/**
 * @file
 * Serial BCD engine — the algorithmic reference for every execution mode.
 *
 * One engine covers the paper's whole design spectrum (Sec. III-B/C):
 *
 *  - block size n with Async/Barrier mode => block Gauss-Seidel: each
 *    block's SCATTER commits before the next block is picked (serially,
 *    Async and Barrier are identical — they differ only in *timing*,
 *    which the HARP simulator models);
 *  - mode Bsp => Jacobi: every active block is processed against a
 *    snapshot of the edge values and all commits land at the end of the
 *    superstep, which is exactly block size |V| in convergence terms;
 *  - schedule Cyclic / Priority / Obim picks the block selection rule.
 *
 * This engine produces the convergence-rate results (Fig. 4, Table III,
 * Fig. 5).  Every state transition is BcdState's (core/state.hh), which
 * the HARP simulator, the threaded engine and the fragment shards run
 * too.  The Jacobi loop here is also AsyncEngine's Bsp mode: there it
 * spreads each superstep's read-only wave gather over the Executor and
 * still commits serially after the barrier.  A serial run starts no
 * Executor and no threads.
 */

#ifndef GRAPHABCD_CORE_ENGINE_HH
#define GRAPHABCD_CORE_ENGINE_HH

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <vector>

#include "core/convergence_window.hh"
#include "core/options.hh"
#include "core/scheduler.hh"
#include "core/state.hh"
#include "core/vertex_program.hh"
#include "graph/partition.hh"
#include "obs/obs.hh"
#include "runtime/executor.hh"
#include "support/timer.hh"

namespace graphabcd {

template <VertexProgram Program>
class AsyncEngine;

/**
 * Update budget in vertex updates, shared by the threaded engines.
 * maxEpochs * |V| is computed in double and can exceed the uint64
 * range, where the bare cast is UB; clamp to UINT64_MAX (and to 0 for
 * non-positive budgets).
 */
inline std::uint64_t
updateBudget(double max_epochs, double n)
{
    constexpr std::uint64_t kMax =
        std::numeric_limits<std::uint64_t>::max();
    const double budget = max_epochs * n;
    if (!(budget > 0.0))
        return 0;
    if (budget >= static_cast<double>(kMax))
        return kMax;
    return static_cast<std::uint64_t>(budget);
}

/** Outcome and work accounting of an engine run. */
struct EngineReport
{
    double epochs = 0.0;          //!< vertexUpdates / |V|
    std::uint64_t blockUpdates = 0;
    std::uint64_t vertexUpdates = 0;
    std::uint64_t edgeTraversals = 0;
    std::uint64_t scatterWrites = 0;
    bool converged = false;       //!< quiescent before maxEpochs
    bool stopped = false;         //!< ended early by EngineOptions::stop
    double seconds = 0.0;         //!< host wall-clock (monotonic) of the run
    /**
     * L1 value delta accumulated over the last convergence sample
     * window (roughly one epoch).  0 at quiescence, and always 0 under
     * GRAPHABCD_OBS=OFF — residual accounting rides the observability
     * hooks so the uninstrumented hot loop stays byte-comparable.
     */
    double residual = 0.0;
};

/**
 * Single-threaded BCD engine over a partitioned graph.
 */
template <VertexProgram Program>
class SerialEngine
{
  public:
    using Value = typename Program::Value;

    /**
     * Observer called at every trace interval; receives the epoch count
     * and the current vertex values (e.g. to evaluate RMSE for Fig. 5).
     */
    using TraceFn =
        std::function<void(double epochs, const std::vector<Value> &)>;

    /**
     * Optional stopping rule, checked at every trace interval: return
     * true to end the run (converged).  This is how the paper's
     * objective-discrepancy convergence criterion (Sec. II-B) is
     * expressed — e.g. stop once the Eq. (3) residual or the CF RMSE
     * falls below a threshold.  Quiescence of the active list remains
     * the default criterion when no StopFn is given.
     */
    using StopFn =
        std::function<bool(double epochs, const std::vector<Value> &)>;

    /**
     * @param g partition whose block size should equal opt.blockSize
     *        (the engine trusts the partition).
     * @param p the vertex program (copied).
     * @param opt run options.
     */
    SerialEngine(const BlockPartition &g, Program p, EngineOptions opt)
        : graph(g), program(std::move(p)), options(opt)
    {
        // A convergence sink samples once per epoch by default.
        if (options.convergence && options.traceInterval <= 0.0)
            options.traceInterval = 1.0;
    }

    /**
     * Run to quiescence (or maxEpochs) mutating `state`.
     * @param trace_fn optional observer, invoked every
     *        options.traceInterval epochs when that is > 0.
     */
    EngineReport
    run(BcdState<Program> &state, const TraceFn &trace_fn = nullptr,
        const StopFn &stop_fn = nullptr)
    {
        if (stop_fn && options.traceInterval <= 0.0)
            options.traceInterval = 1.0;
        return options.mode == ExecMode::Bsp
            ? runJacobi(state, trace_fn, stop_fn, 1, "engine.serial.run")
            : runGaussSeidel(state, trace_fn, stop_fn);
    }

    /** Convenience: fresh (or warm-started) state, run, return
     *  (report, values). */
    EngineReport
    run(std::vector<Value> &out_values, const TraceFn &trace_fn = nullptr,
        const StopFn &stop_fn = nullptr)
    {
        BcdState<Program> state(graph, program, options.warmStart.get());
        EngineReport report = run(state, trace_fn, stop_fn);
        out_values = std::move(state.values());
        return report;
    }

  private:
    // Bsp mode of the threaded engine is this engine's Jacobi loop.
    friend class AsyncEngine<Program>;

    /** Publish live counters for serve-layer status snapshots. */
    void
    publishProgress(const EngineReport &report) const
    {
        if (options.progress) {
            options.progress->publish(report.vertexUpdates,
                                      report.blockUpdates,
                                      report.edgeTraversals,
                                      report.scatterWrites);
        }
    }

    /** Initial activation: every block at the same large priority. */
    std::unique_ptr<BlockScheduler>
    seededScheduler() const
    {
        auto sched = makeScheduler(options.schedule, graph.numBlocks());
        for (BlockId b = 0; b < graph.numBlocks(); b++)
            sched->activate(b, initialActivationPriority());
        return sched;
    }

    /** @return true when the StopFn asks to end the run. */
    bool
    maybeTrace(EngineReport &report, const BcdState<Program> &state,
               const TraceFn &trace_fn, const StopFn &stop_fn,
               double &next_trace, const Timer &timer,
               ConvergenceWindow &win)
    {
        if (options.traceInterval <= 0.0)
            return false;
        if (report.epochs + 1e-12 < next_trace)
            return false;
        next_trace += options.traceInterval;
        report.residual = win.sample(report.epochs, report.vertexUpdates,
                                     report.edgeTraversals, timer);
        if (trace_fn)
            trace_fn(report.epochs, state.values());
        return stop_fn && stop_fn(report.epochs, state.values());
    }

    /** Close a run: final sample, quiescence, scheduler counters. */
    void
    finish(EngineReport &report, const BlockScheduler &sched,
           bool stop_fn_converged, const Timer &timer,
           ConvergenceWindow &win) const
    {
        if (!stop_fn_converged) {
            report.residual = win.finish(report.epochs,
                                         report.vertexUpdates,
                                         report.edgeTraversals, timer);
        }
        report.converged = stop_fn_converged || sched.empty();
        report.seconds = timer.seconds();
        flushSchedulerCounters(sched);
    }

    EngineReport
    runGaussSeidel(BcdState<Program> &state, const TraceFn &trace_fn,
                   const StopFn &stop_fn)
    {
        Timer timer;
        // Root span of this engine run; under the serve layer it nests
        // into the submitting job's causal tree.
        obs::Span run_span("engine.serial.run");
        EngineReport report;
        const double n = std::max<double>(graph.numVertices(), 1.0);
        auto sched = seededScheduler();

        // Resolve metrics once per run; recording is per block.
        obs::Histogram &gasHist = obs::histogram(
            "engine.serial.block_gas_us", obs::latencyBucketsUs());
        obs::Histogram &fanoutHist = obs::histogram(
            "engine.serial.scatter_fanout", obs::fanoutBuckets());

        double next_trace = options.traceInterval;
        ConvergenceWindow win(options.convergence, options.traceInterval);
        LayoutScratch scratch;
        BlockUpdate<Value> update;
        bool stop_fn_converged = false;
        while (auto b = sched->next()) {
            std::uint64_t block_scatter = 0;
            {
                obs::ScopedLatency lat(gasHist);
                state.processBlock(graph, program, *b, options.tolerance,
                                   scratch.slice, update);
                block_scatter = state.commitBlock(
                    graph, program, update, options.tolerance,
                    scratch.scatter, [&sched](BlockId dst, double delta) {
                        sched->activate(dst, delta);
                    });
            }
            fanoutHist.record(static_cast<double>(block_scatter));
            report.scatterWrites += block_scatter;
            report.blockUpdates++;
            report.vertexUpdates += update.newValues.size();
            report.edgeTraversals += graph.blockEdgeCount(*b);
            report.epochs = static_cast<double>(report.vertexUpdates) / n;
            win.add(update.l1Delta, update.changed);
            publishProgress(report);
            if (options.stop.stopRequested()) {
                report.stopped = true;
                break;
            }
            if (maybeTrace(report, state, trace_fn, stop_fn, next_trace,
                           timer, win)) {
                stop_fn_converged = true;
                break;
            }
            if (report.epochs >= options.maxEpochs)
                break;
        }
        finish(report, *sched, stop_fn_converged, timer, win);
        return report;
    }

    /**
     * Jacobi supersteps: drain the active set into a wave, GATHER-APPLY
     * the wave against a frozen snapshot, then commit it in wave order
     * behind a global barrier.  With participation > 1 the read-only
     * gather spreads over an Executor job (the caller sweeps too);
     * the commits stay serial, so every participation count gives the
     * same values and counters.
     */
    EngineReport
    runJacobi(BcdState<Program> &state, const TraceFn &trace_fn,
              const StopFn &stop_fn, std::uint32_t participation,
              const char *span)
    {
        Timer timer;
        obs::Span run_span(span);
        EngineReport report;
        const double n = std::max<double>(graph.numVertices(), 1.0);
        auto sched = seededScheduler();

        std::shared_ptr<Executor::Job> job;
        if (participation > 1) {
            job = Executor::orShared(options.executor)
                      ->createJob(participation);
        }
        std::vector<EdgeSliceScratch> gather(participation);
        ScatterScratch commit;

        double next_trace = options.traceInterval;
        ConvergenceWindow win(options.convergence, options.traceInterval);
        std::vector<BlockId> wave;
        std::vector<BlockUpdate<Value>> updates;   // reused per slot
        bool stop_fn_converged = false;
        while (!sched->empty()) {
            if (options.stop.stopRequested()) {
                report.stopped = true;
                break;
            }
            // Drain the active set: this superstep's work list.
            wave.clear();
            while (auto b = sched->next())
                wave.push_back(*b);
            if (updates.size() < wave.size())
                updates.resize(wave.size());

            // GATHER-APPLY the whole wave against a frozen snapshot.
            // Each participant takes its own decode buffer; each
            // update slot has one writer.  A failing block (a program
            // bug) ends every sweep and is rethrown after the barrier,
            // so no participant outlives the locals it uses.
            std::atomic<std::uint32_t> next_scratch{0};
            std::atomic<std::size_t> cursor{0};
            std::mutex failure_mu;
            std::exception_ptr failure;
            auto sweep = [&] {
                EdgeSliceScratch &scratch = gather[next_scratch.fetch_add(
                    1, std::memory_order_relaxed)];
                try {
                    for (;;) {
                        const std::size_t i = cursor.fetch_add(
                            1, std::memory_order_relaxed);
                        if (i >= wave.size())
                            return;
                        state.processBlock(graph, program, wave[i],
                                           options.tolerance, scratch,
                                           updates[i]);
                    }
                } catch (...) {
                    cursor.store(wave.size());
                    std::lock_guard<std::mutex> lock(failure_mu);
                    if (!failure)
                        failure = std::current_exception();
                }
            };
            if (job) {
                const std::size_t helpers = std::min<std::size_t>(
                    participation - 1, wave.size());
                for (std::size_t h = 0; h < helpers; h++)
                    job->submit(sweep);
            }
            sweep();
            if (job)
                job->wait();
            if (failure)
                std::rethrow_exception(failure);

            // Global barrier: commit everything, then activate.
            for (std::size_t i = 0; i < wave.size(); i++) {
                const BlockUpdate<Value> &update = updates[i];
                report.scatterWrites += state.commitBlock(
                    graph, program, update, options.tolerance, commit,
                    [&sched](BlockId dst, double delta) {
                        sched->activate(dst, delta);
                    });
                report.blockUpdates++;
                report.vertexUpdates += update.newValues.size();
                report.edgeTraversals += graph.blockEdgeCount(update.block);
                win.add(update.l1Delta, update.changed);
            }
            report.epochs = static_cast<double>(report.vertexUpdates) / n;
            publishProgress(report);
            if (maybeTrace(report, state, trace_fn, stop_fn, next_trace,
                           timer, win)) {
                stop_fn_converged = true;
                break;
            }
            if (report.epochs >= options.maxEpochs)
                break;
        }
        finish(report, *sched, stop_fn_converged, timer, win);
        return report;
    }

    const BlockPartition &graph;
    Program program;
    EngineOptions options;
};

} // namespace graphabcd

#endif // GRAPHABCD_CORE_ENGINE_HH
