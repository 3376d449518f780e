/**
 * @file
 * Threaded asynchronous BCD engine — real barrierless execution on a
 * shared worker pool (the "software GraphABCD" of paper Sec. V-D, with
 * the GATHER-APPLY / SCATTER kernel fusion the paper applies to its
 * software baseline).
 *
 * The data plane is BcdState's fused step (core/state.hh): GATHER reads
 * whatever SCATTER has most recently published (possibly stale — that
 * is asynchronous BCD) through relaxed atomic_refs, and SCATTER
 * publishes whole values (state-based update information, Sec. IV-A3),
 * so no locks or barriers are needed on the data plane.  Dispatch,
 * threading, halts and reporting belong to the shared BlockDriver
 * (core/block_driver.hh); this engine is its state-based-commit policy.
 * The driver's dispatch window is bounded (4 x participation), which
 * bounds the update-propagation delay and hence preserves the
 * asynchronous-BCD convergence guarantee (Sec. III-D), and its
 * one-holder rule keeps an older update of a block from overwriting a
 * newer one.
 *
 * ExecMode::Barrier caps participation at one in-flight block (the
 * paper's per-block memory-barrier baseline); ExecMode::Bsp runs
 * SerialEngine's Jacobi supersteps with the wave gather spread over
 * numThreads participants, reproducing the paper's Fig. 7 baselines.
 */

#ifndef GRAPHABCD_CORE_ASYNC_ENGINE_HH
#define GRAPHABCD_CORE_ASYNC_ENGINE_HH

#include <algorithm>
#include <atomic>
#include <utility>
#include <vector>

#include "core/block_driver.hh"
#include "core/engine.hh"
#include "core/options.hh"
#include "core/state.hh"
#include "core/vertex_program.hh"
#include "graph/partition.hh"
#include "support/timer.hh"

namespace graphabcd {

/**
 * Multi-threaded BCD engine.  Requires a lock-free-atomic Value (the
 * scalar algorithms: PR, SSSP, BFS, CC).  Vector-valued programs (CF)
 * run through the serial engine or the HARP simulator instead.
 */
template <VertexProgram Program>
class AsyncEngine
{
  public:
    using Value = typename Program::Value;

    static_assert(std::atomic<Value>::is_always_lock_free,
                  "AsyncEngine needs a lock-free atomic Value; "
                  "use SerialEngine or HarpSystem for wide values");

    AsyncEngine(const BlockPartition &g, Program p, EngineOptions opt)
        : graph(g), program(std::move(p)), options(opt)
    {
    }

    /**
     * Run to quiescence (or maxEpochs).
     * @param out_values receives the final vertex values.
     */
    EngineReport
    run(std::vector<Value> &out_values)
    {
        Timer timer;
        BcdState<Program> state(graph, program, options.warmStart.get());
        EngineReport report;
        if (options.mode == ExecMode::Bsp) {
            report = SerialEngine<Program>(graph, program, options)
                         .runJacobi(state, nullptr, nullptr,
                                    std::max(1u, options.numThreads),
                                    "engine.bsp.run");
        } else {
            report = runAsync(state,
                              options.mode == ExecMode::Barrier);
        }
        out_values = std::move(state.values());
        report.seconds = timer.seconds();
        return report;
    }

  private:
    /**
     * The state-based commit: BcdState's fused GATHER-APPLY-SCATTER of
     * one block.  The driver guarantees one holder per block, so no
     * older update of this block can land after this one.  Flattened:
     * this is the per-edge hot loop, and large translation units
     * otherwise leave ActivationSink::push or dstBlockOfEdge as calls.
     */
    [[gnu::flatten]] BlockWork
    processAndCommit(BcdState<Program> &state, BlockId b,
                     LayoutScratch &scratch, ActivationSink &out)
    {
        return state.step(graph, program, b, options.tolerance, scratch,
                          [&out](BlockId dst, double p) {
                              out.push(dst, p);
                          });
    }

    /** Async and Barrier modes over the shared block driver. */
    EngineReport
    runAsync(BcdState<Program> &state, bool barrier_per_block)
    {
        // Barrier mode admits one in-flight block (participation one,
        // dispatch window one): the per-block memory barrier baseline.
        // Otherwise the window is 4 x participation, which bounds the
        // update-propagation delay (paper Sec. III-D).
        DriverConfig cfg;
        cfg.participation =
            barrier_per_block ? 1 : std::max(1u, options.numThreads);
        cfg.window =
            barrier_per_block ? 1 : std::size_t{cfg.participation} * 4;
        cfg.runSpan = "engine.async.run";
        cfg.gasHistogram = "engine.async.block_gas_us";
        cfg.fanoutHistogram = "engine.async.scatter_fanout";
        cfg.stalenessHistogram = "engine.async.staleness_blocks";
        cfg.depthGauge = "engine.async.queue_depth";
        BlockDriver driver(graph, options, cfg);
        return driver.run([this, &state](BlockId b, LayoutScratch &scratch,
                                         ActivationSink &out) {
            return processAndCommit(state, b, scratch, out);
        });
    }

    const BlockPartition &graph;
    Program program;
    EngineOptions options;
};

} // namespace graphabcd

#endif // GRAPHABCD_CORE_ASYNC_ENGINE_HH
