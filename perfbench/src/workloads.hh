/**
 * @file
 * The three named workloads.  Each fills a Report with its end-to-end
 * metrics (always) and its per-layer metrics (traced runs).
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <memory>

#include "common.hh"
#include "host.hh"
#include "spans.hh"

namespace graphabcd {
class BlockPartition;
class Executor;
}

namespace perfbench {

/**
 * Generation seed of the stand-in graphs.  A graph is fixed, as the real
 * dataset it stands in for would be: on LJ scale 1 the generation seed
 * alone moved serial PageRank's epochs to tolerance by 10% (6.81 to
 * 7.48 over five seeds), more than any other source of run-to-run
 * spread.  The workload seed drives everything else: the engine order
 * of the library rounds and the whole serve traffic.
 */
constexpr std::uint64_t kGraphSeed = 1;

/** Set-up is repeated this many times per run; setup_s is the median. */
constexpr int kSetups = 5;

/** What every workload gets from main(). */
struct Context
{
    Args args;
    HostFingerprint host;
    SpanLog &spans;
    /** Engine worker pool: nproc - 1 workers, so with the calling
     *  thread a run never has more than nproc runnable threads. */
    std::shared_ptr<graphabcd::Executor> executor;
};

/** pr-lj-incache and sssp-ps-packed. */
void runLibraryWorkload(Context &ctx, Report &report);

/** serve-open. */
void runServeWorkload(Context &ctx, Report &report);

/**
 * Timed pass of blockEdges() over every block: what a gather pays to
 * turn the stored layout into (src, weight) spans.  @return ns/edge.
 */
double decodePassNs(const graphabcd::BlockPartition &g);

/** Working set an engine sweeps, computed from the built layout. */
double workingSetMb(const graphabcd::BlockPartition &g);

/** Fill the host.* per-layer metrics. */
void reportHost(const HostFingerprint &host, Report &report);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
