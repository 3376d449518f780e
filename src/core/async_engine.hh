/**
 * @file
 * Threaded asynchronous BCD engine — real barrierless execution on a
 * shared worker pool (the "software GraphABCD" of paper Sec. V-D, with
 * the GATHER-APPLY / SCATTER kernel fusion the paper applies to its
 * software baseline).
 *
 * Vertex and edge-carried values are relaxed atomics: GATHER reads
 * whatever SCATTER has most recently published (possibly stale — that is
 * asynchronous BCD), and SCATTER publishes whole values (state-based
 * update information, Sec. IV-A3), so no locks or barriers are needed on
 * the data plane.  Dispatch, threading, halts and reporting belong to
 * the shared BlockDriver (core/block_driver.hh); this engine is its
 * state-based-commit policy.  The driver's dispatch window is bounded
 * (4 x participation), which bounds the update-propagation delay and
 * hence preserves the asynchronous-BCD convergence guarantee
 * (Sec. III-D), and its one-holder rule keeps an older update of a
 * block from overwriting a newer one.
 *
 * ExecMode::Barrier caps participation at one in-flight block (the
 * paper's per-block memory-barrier baseline); ExecMode::Bsp processes
 * whole supersteps against a frozen snapshot (Jacobi), reproducing the
 * paper's Fig. 7 baselines.
 */

#ifndef GRAPHABCD_CORE_ASYNC_ENGINE_HH
#define GRAPHABCD_CORE_ASYNC_ENGINE_HH

#include <algorithm>
#include <atomic>
#include <memory>
#include <utility>
#include <vector>

#include "core/block_driver.hh"
#include "core/convergence_window.hh"
#include "core/engine.hh"
#include "core/options.hh"
#include "core/scheduler.hh"
#include "core/vertex_program.hh"
#include "graph/partition.hh"
#include "obs/obs.hh"
#include "runtime/executor.hh"
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
        initState();

        EngineReport report;
        switch (options.mode) {
          case ExecMode::Async:
            report = runAsync(/*barrier_per_block=*/false);
            break;
          case ExecMode::Barrier:
            report = runAsync(/*barrier_per_block=*/true);
            break;
          case ExecMode::Bsp:
            report = runBsp();
            break;
        }

        out_values.resize(graph.numVertices());
        for (VertexId v = 0; v < graph.numVertices(); v++)
            out_values[v] = values[v].load(std::memory_order_relaxed);
        report.seconds = timer.seconds();
        return report;
    }

  private:
    void
    initState()
    {
        const VertexId n = graph.numVertices();
        const bool warm = [&] {
            if constexpr (std::is_same_v<Value, double>)
                return options.warmStart && options.warmStart->size() == n;
            else
                return false;
        }();
        values = std::vector<std::atomic<Value>>(n);
        edgeValues = std::vector<std::atomic<Value>>(graph.numEdges());
        std::vector<Value> ev(n);
        for (VertexId v = 0; v < n; v++) {
            Value init = program.init(v, graph);
            if constexpr (std::is_same_v<Value, double>) {
                if (warm)
                    init = (*options.warmStart)[v];
            }
            values[v].store(init, std::memory_order_relaxed);
            ev[v] = program.edgeValue(v, init, graph);
        }
        // Seed the edge-carried copies by walking destination in-lists
        // (position order), which every layout supports directly.
        for (VertexId v = 0; v < n; v++) {
            graph.forEachInEdge(v, [&](EdgeId pos, VertexId src, float) {
                edgeValues[pos].store(ev[src], std::memory_order_relaxed);
            });
        }
    }

    /** GATHER-APPLY one vertex against the atomic arrays.
     *  @return (old value, new value). */
    std::pair<Value, Value>
    gatherApply(VertexId v, const BlockEdgesView &slice) const
    {
        auto acc = program.identity();
        const Value old = values[v].load(std::memory_order_relaxed);
        for (EdgeId e = graph.inEdgeBegin(v); e < graph.inEdgeEnd(v); e++) {
            const Value ev = edgeValues[e].load(std::memory_order_relaxed);
            acc = program.combine(
                acc, program.edgeTerm(old, ev, slice.wgt[e - slice.base]));
        }
        return {old, program.apply(v, acc, old, graph)};
    }

    /**
     * SCATTER v's new value onto its out-edges, passing each edge's
     * destination block and priority to `activate`.
     * @return the number of edges written.
     */
    template <typename Activate>
    std::uint64_t
    scatter(VertexId v, Value next, ScatterScratch &scratch, BlockId &hint,
            Activate &&activate)
    {
        const auto positions = graph.scatterList(v, scratch);
        if (positions.empty())
            return 0;
        // Read the outgoing edges' previous value before the stores
        // below overwrite it: the activation priority is old-vs-new,
        // not new-vs-new.
        const Value old_ev =
            edgeValues[positions.front()].load(std::memory_order_relaxed);
        const Value ev = program.edgeValue(v, next, graph);
        const double edge_delta = program.delta(old_ev, ev);
        for (EdgeId pos : positions) {
            edgeValues[pos].store(ev, std::memory_order_relaxed);
            activate(graph.dstBlockOfEdge(pos, hint), edge_delta);
        }
        return positions.size();
    }

    /**
     * The state-based commit: fused GATHER-APPLY-SCATTER of one block
     * directly against the atomic arrays.  The driver guarantees one
     * holder per block, so no older update of this block can land
     * after this one.  Flattened: this is the per-edge hot loop, and
     * large translation units otherwise leave the helpers below (and
     * dstBlockOfEdge) as calls.
     */
    [[gnu::flatten]] BlockWork
    processAndCommit(BlockId b, LayoutScratch &scratch,
                     ActivationSink &out)
    {
        BlockWork work;
        work.vertices = graph.blockVertexCount(b);
        work.edges = graph.blockEdgeCount(b);
        const BlockEdgesView slice = graph.blockEdges(b, scratch.slice);
        BlockId hint = b;
        for (VertexId v = graph.blockBegin(b); v < graph.blockEnd(b);
             v++) {
            const auto [old, next] = gatherApply(v, slice);
            const double d = program.delta(old, next);
            work.l1 += d;
            values[v].store(next, std::memory_order_relaxed);
            if (d > options.tolerance) {
                work.active++;
                work.scatters += scatter(
                    v, next, scratch.scatter, hint,
                    [&out](BlockId dst, double p) { out.push(dst, p); });
            }
        }
        return work;
    }

    /** Async and Barrier modes: the state-based commit over the shared
     *  block driver. */
    EngineReport
    runAsync(bool barrier_per_block)
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
        return driver.run(
            [this](BlockId b, LayoutScratch &scratch, ActivationSink &out) {
                return processAndCommit(b, scratch, out);
            });
    }

    EngineReport
    runBsp()
    {
        // Jacobi supersteps with a pool-parallel wave and a global
        // barrier (Job::wait) per iteration; commits go to a double
        // buffer.  Unlike SerialEngine::runJacobi this runs on atomic
        // values and pool workers.
        Timer timer;
        obs::Span run_span("engine.bsp.run");
        EngineReport report;
        const double n = std::max<double>(graph.numVertices(), 1.0);
        auto sched = makeScheduler(options.schedule, graph.numBlocks(),
                                   options.seed);
        for (BlockId b = 0; b < graph.numBlocks(); b++)
            sched->activate(b, initialActivationPriority());

        const std::uint32_t participation =
            std::max(1u, options.numThreads);
        std::shared_ptr<Executor> exec =
            Executor::orShared(options.executor);
        std::shared_ptr<Executor::Job> job =
            exec->createJob(participation);
        ConvergenceWindow conv(options.convergence, options.traceInterval);

        std::vector<BlockId> wave;
        std::vector<BlockUpdate<Value>> updates;
        // Commits run serially after the superstep barrier, so one
        // scatter decode buffer serves every commitUpdate call.
        ScatterScratch commit_scratch;
        while (!sched->empty()) {
            if (options.stop.stopRequested()) {
                report.stopped = true;
                break;
            }
            wave.clear();
            while (auto b = sched->next())
                wave.push_back(*b);

            updates.assign(wave.size(), {});
            std::atomic<std::size_t> cursor{0};
            auto sweep = [&] {
                // Declared inside the body, NOT captured: this one
                // closure runs on several workers at once, and each
                // needs its own decode buffer.
                EdgeSliceScratch slice_scratch;
                for (;;) {
                    std::size_t i =
                        cursor.fetch_add(1, std::memory_order_relaxed);
                    if (i >= wave.size())
                        return;
                    updates[i] = gatherApplyBlock(wave[i], slice_scratch);
                }
            };
            // participation-1 pool helpers; the caller sweeps too.
            const std::size_t helpers = std::min<std::size_t>(
                participation - 1, wave.size());
            for (std::size_t h = 0; h < helpers; h++)
                job->submit(sweep);
            sweep();
            job->wait();   // the global memory barrier

            for (std::size_t i = 0; i < wave.size(); i++) {
                commitUpdate(wave[i], updates[i], *sched, report,
                             commit_scratch);
                conv.add(updates[i].l1Delta, updates[i].changed);
            }
            report.epochs = static_cast<double>(report.vertexUpdates) / n;
            conv.maybeSample(report.epochs, report.vertexUpdates,
                             report.edgeTraversals, timer);
            if (options.progress) {
                options.progress->publish(report.vertexUpdates,
                                          report.blockUpdates,
                                          report.edgeTraversals,
                                          report.scatterWrites);
            }
            if (report.epochs >= options.maxEpochs)
                break;
        }
        report.converged = !report.stopped && sched->empty();
        report.residual = conv.finish(report.epochs, report.vertexUpdates,
                                      report.edgeTraversals, timer);
        flushSchedulerCounters(*sched);
        return report;
    }

    /** Jacobi helper: GATHER-APPLY one block without committing. */
    BlockUpdate<Value>
    gatherApplyBlock(BlockId b, EdgeSliceScratch &slice_scratch)
    {
        BlockUpdate<Value> out;
        out.block = b;
        const BlockEdgesView slice = graph.blockEdges(b, slice_scratch);
        for (VertexId v = graph.blockBegin(b); v < graph.blockEnd(b);
             v++) {
            const auto [old, next] = gatherApply(v, slice);
            const double d = program.delta(old, next);
            out.l1Delta += d;
            if (d > options.tolerance)
                out.changed++;
            out.newValues.push_back(next);
            out.deltas.push_back(d);
        }
        return out;
    }

    /** Jacobi helper: commit + activate one block update. */
    void
    commitUpdate(BlockId b, const BlockUpdate<Value> &update,
                 BlockScheduler &sched, EngineReport &report,
                 ScatterScratch &scatter_scratch)
    {
        const VertexId begin = graph.blockBegin(b);
        BlockId hint = b;
        for (std::size_t i = 0; i < update.newValues.size(); i++) {
            const VertexId v = begin + static_cast<VertexId>(i);
            values[v].store(update.newValues[i],
                            std::memory_order_relaxed);
            if (update.deltas[i] > options.tolerance) {
                report.scatterWrites += scatter(
                    v, update.newValues[i], scatter_scratch, hint,
                    [&sched](BlockId dst, double p) {
                        sched.activate(dst, p);
                    });
            }
        }
        report.blockUpdates++;
        report.vertexUpdates += update.newValues.size();
        report.edgeTraversals += graph.blockEdgeCount(b);
    }

    const BlockPartition &graph;
    Program program;
    EngineOptions options;

    std::vector<std::atomic<Value>> values;
    std::vector<std::atomic<Value>> edgeValues;
};

} // namespace graphabcd

#endif // GRAPHABCD_CORE_ASYNC_ENGINE_HH
