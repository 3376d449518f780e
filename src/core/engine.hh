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
 *  - schedule Cyclic / Priority / Random picks the block selection rule.
 *
 * This engine produces the convergence-rate results (Fig. 4, Table III,
 * Fig. 5); the timing results come from the HARP simulator and the
 * threaded engine, both of which reuse the same state transitions.
 */

#ifndef GRAPHABCD_CORE_ENGINE_HH
#define GRAPHABCD_CORE_ENGINE_HH

#include <cstdint>
#include <functional>
#include <limits>
#include <type_traits>
#include <vector>

#include "core/convergence_window.hh"
#include "core/options.hh"
#include "core/scheduler.hh"
#include "core/state.hh"
#include "core/vertex_program.hh"
#include "graph/partition.hh"
#include "obs/obs.hh"
#include "support/timer.hh"

namespace graphabcd {

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

/** One sample of a convergence trace. */
struct TracePoint
{
    double epochs = 0.0;     //!< |V|-normalised vertex updates so far
    double blockDelta = 0.0; //!< L1 delta of the most recent update
};

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
    std::vector<TracePoint> trace;
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
        if ((stop_fn || options.convergence) &&
            options.traceInterval <= 0.0)
            options.traceInterval = 1.0;
        return options.mode == ExecMode::Bsp
            ? runJacobi(state, trace_fn, stop_fn)
            : runGaussSeidel(state, trace_fn, stop_fn);
    }

    /** Convenience: fresh state, run, return (report, values). */
    EngineReport
    run(std::vector<Value> &out_values, const TraceFn &trace_fn = nullptr,
        const StopFn &stop_fn = nullptr)
    {
        BcdState<Program> state(graph, program);
        if constexpr (std::is_same_v<Value, double>) {
            if (options.warmStart &&
                options.warmStart->size() == graph.numVertices())
                state.setValues(graph, program, *options.warmStart);
        }
        EngineReport report = run(state, trace_fn, stop_fn);
        out_values = state.values();
        return report;
    }

  private:
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
    void
    seedScheduler(BlockScheduler &sched) const
    {
        for (BlockId b = 0; b < graph.numBlocks(); b++)
            sched.activate(b, initialActivationPriority());
    }

    /** @return true when the StopFn asks to end the run. */
    bool
    maybeTrace(EngineReport &report, const BcdState<Program> &state,
               const TraceFn &trace_fn, const StopFn &stop_fn,
               double &next_trace, double block_delta,
               const Timer &timer, ConvergenceWindow &win)
    {
        if (options.traceInterval <= 0.0)
            return false;
        if (report.epochs + 1e-12 < next_trace)
            return false;
        next_trace += options.traceInterval;
        report.trace.push_back(TracePoint{report.epochs, block_delta});
        report.residual = win.sample(report.epochs, report.vertexUpdates,
                                     report.edgeTraversals, timer);
        if (trace_fn)
            trace_fn(report.epochs, state.values());
        return stop_fn && stop_fn(report.epochs, state.values());
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
        auto sched = makeScheduler(options.schedule, graph.numBlocks(),
                                   options.seed);
        seedScheduler(*sched);

        // Resolve metrics once per run; recording is per block.
        obs::Histogram &gasHist = obs::histogram(
            "engine.serial.block_gas_us", obs::latencyBucketsUs());
        obs::Histogram &fanoutHist = obs::histogram(
            "engine.serial.scatter_fanout", obs::fanoutBuckets());

        double next_trace = options.traceInterval;
        ConvergenceWindow win(options.convergence, options.traceInterval);
        BlockUpdate<Value> update;
        while (auto b = sched->next()) {
            std::uint64_t block_scatter = 0;
            {
                obs::ScopedLatency lat(gasHist);
                update = state.processBlock(graph, program, *b,
                                            options.tolerance);
                block_scatter = state.commitBlock(
                    graph, program, update, options.tolerance,
                    [&sched](BlockId dst, double delta) {
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
                           update.l1Delta, timer, win)) {
                report.converged = true;
                report.seconds = timer.seconds();
                return report;
            }
            if (report.epochs >= options.maxEpochs)
                break;
        }
        report.residual = win.finish(report.epochs, report.vertexUpdates,
                                     report.edgeTraversals, timer);
        report.converged = sched->empty();
        report.seconds = timer.seconds();
        return report;
    }

    EngineReport
    runJacobi(BcdState<Program> &state, const TraceFn &trace_fn,
              const StopFn &stop_fn)
    {
        Timer timer;
        obs::Span run_span("engine.serial.run");
        EngineReport report;
        const double n = std::max<double>(graph.numVertices(), 1.0);
        auto sched = makeScheduler(options.schedule, graph.numBlocks(),
                                   options.seed);
        seedScheduler(*sched);

        double next_trace = options.traceInterval;
        ConvergenceWindow win(options.convergence, options.traceInterval);
        std::vector<BlockId> wave;
        std::vector<BlockUpdate<Value>> updates;
        while (!sched->empty()) {
            // Drain the active set: this superstep's work list.
            wave.clear();
            while (auto b = sched->next())
                wave.push_back(*b);

            // GATHER-APPLY the whole wave against a frozen snapshot.
            updates.clear();
            updates.reserve(wave.size());
            for (BlockId b : wave) {
                updates.push_back(state.processBlock(graph, program, b,
                                                     options.tolerance));
            }

            // Global barrier: commit everything, then activate.
            double wave_delta = 0.0;
            for (const auto &update : updates) {
                report.scatterWrites += state.commitBlock(
                    graph, program, update, options.tolerance,
                    [&sched](BlockId dst, double delta) {
                        sched->activate(dst, delta);
                    });
                report.blockUpdates++;
                report.vertexUpdates += update.newValues.size();
                report.edgeTraversals += graph.blockEdgeCount(update.block);
                wave_delta += update.l1Delta;
                win.add(update.l1Delta, update.changed);
            }
            report.epochs = static_cast<double>(report.vertexUpdates) / n;
            publishProgress(report);
            if (options.stop.stopRequested()) {
                report.stopped = true;
                break;
            }
            if (maybeTrace(report, state, trace_fn, stop_fn, next_trace,
                           wave_delta, timer, win)) {
                report.converged = true;
                report.seconds = timer.seconds();
                return report;
            }
            if (report.epochs >= options.maxEpochs)
                break;
        }
        report.residual = win.finish(report.epochs, report.vertexUpdates,
                                     report.edgeTraversals, timer);
        report.converged = sched->empty();
        report.seconds = timer.seconds();
        return report;
    }

    const BlockPartition &graph;
    Program program;
    EngineOptions options;
};

} // namespace graphabcd

#endif // GRAPHABCD_CORE_ENGINE_HH
