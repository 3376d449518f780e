/**
 * @file
 * Configuration of the HARPv2 system simulator.
 *
 * Defaults reproduce the paper's prototype (Sec. V-A): 16 FPGA PEs at
 * 200 MHz, 14 CPU threads, 12.8 GB/s CPU-FPGA bandwidth (two PCIe x8 +
 * one QPI into the CPU LLC), 58 GB/s host DRAM bandwidth.
 */

#ifndef GRAPHABCD_HARP_CONFIG_HH
#define GRAPHABCD_HARP_CONFIG_HH

#include <cstdint>
#include <vector>

#include "core/options.hh"
#include "support/units.hh"

namespace graphabcd {

/**
 * One accelerator device of a heterogeneous deployment: its PE count,
 * clock, per-PE rate and the bandwidth of its own link to the host.
 */
struct AcceleratorSpec
{
    std::uint32_t numPes = 16;
    double clockHz = 200e6;
    double edgesPerCycle = 0.5;
    double busBandwidth = 12.8e9;

    /** Seconds this device's PE needs to compute `edges`. */
    double
    computeSeconds(std::uint64_t edges, double pipeline_depth) const
    {
        return (static_cast<double>(edges) / edgesPerCycle +
                pipeline_depth) /
               clockHz;
    }
};

/** Structural and timing parameters of the simulated platform. */
struct HarpConfig
{
    // ------------------------------------------------- accelerator side
    /**
     * Number of accelerator devices.  The prototype has one FPGA; the
     * paper argues the barrierless design lets GraphABCD "scale out to
     * heterogeneous and distributed accelerators" — setting this above
     * 1 models that: each accelerator gets its own `numPes` PEs and its
     * own CPU link of `busBandwidth`, all fed from the one scheduler.
     */
    std::uint32_t numAccelerators = 1;
    std::uint32_t numPes = 16;          //!< gather-apply PEs per device
    double fpgaClockHz = 200e6;         //!< prototype clock

    /**
     * Explicit device list for *heterogeneous* deployments (e.g. one
     * FPGA plus a weaker embedded accelerator).  When non-empty it
     * overrides numAccelerators/numPes/fpgaClockHz/busBandwidth; the
     * uniform knobs above remain the convenient homogeneous path.
     */
    std::vector<AcceleratorSpec> accelerators;

    /** @return the realised device list (explicit or uniform). */
    std::vector<AcceleratorSpec>
    deviceList() const
    {
        if (!accelerators.empty())
            return accelerators;
        std::vector<AcceleratorSpec> out(numAccelerators);
        for (AcceleratorSpec &spec : out) {
            spec.numPes = numPes;
            spec.clockHz = fpgaClockHz;
            spec.edgesPerCycle = peEdgesPerCycle;
            spec.busBandwidth = busBandwidth;
        }
        return out;
    }
    double peEdgesPerCycle = 0.5;       //!< sustained edges/cycle per PE
    double pePipelineDepth = 24.0;      //!< drain cycles per block task

    // -------------------------------------------------------- CPU side
    std::uint32_t cpuThreads = 14;      //!< SCATTER / scheduler threads
    double cpuThreadBytesPerSec = 2.5e9; //!< per-thread DRAM share
    double scatterRandomPenalty = 2.0;  //!< random-write amplification
    double scatterOverheadSec = 2e-7;   //!< task pickup + active-list

    // -------------------------------------------------- interconnect
    double busBandwidth = 12.8 * GB;    //!< CPU LLC <-> FPGA
    double dispatchLatencySec = 300e-9; //!< queue doorbell over PCIe
    double dmaLatencySec = 300e-9;      //!< DMA setup per transfer

    // ------------------------------------------------------- queues
    std::uint32_t accelQueueDepth = 32; //!< bounds staleness
    std::uint32_t cpuQueueDepth = 32;

    // ----------------------------------------------------- execution
    bool hybrid = false;                //!< CPU-side GATHER-APPLY
    double cpuGatherEdgesPerSec = 30e6; //!< per CPU gather worker
    double barrierSeconds = 5e-6;       //!< per global barrier (BSP)

    // ------------------------------------- structural (Table IV) data
    std::uint32_t peInputBufBytes = 16 * 1024;
    std::uint32_t peOutputBufBytes = 8 * 1024;
    std::uint32_t scratchpadBytes = 64 * 1024;  //!< reduction tag store

    // ------------------------------------------------- graph layout
    /**
     * Topology bytes streamed per edge (src id + weight).  8.0 is the
     * plain CSC record; the job runner (serve/runner, behind abcd_cli
     * and abcd_serve) sets it from the partition's measured
     * BlockPartition::gatherBytesPerEdge() so the simulated DMA traffic
     * tracks the real layout (compressed layouts land well under 8).
     */
    double layoutBytesPerEdge = 8.0;

    /** Bytes of one streamed edge record: topology + value. */
    double
    edgeRecordBytes(std::uint32_t value_bytes) const
    {
        return layoutBytesPerEdge + value_bytes;
    }

    /** Seconds a PE needs to compute `edges` (reduction-pipeline rate). */
    double
    peComputeSeconds(std::uint64_t edges) const
    {
        return (static_cast<double>(edges) / peEdgesPerCycle +
                pePipelineDepth) /
               fpgaClockHz;
    }
};

} // namespace graphabcd

#endif // GRAPHABCD_HARP_CONFIG_HH
