/**
 * @file
 * BCD engine configuration — the paper's three algorithm design options
 * (Sec. III-B) plus execution-model and termination knobs.
 */

#ifndef GRAPHABCD_CORE_OPTIONS_HH
#define GRAPHABCD_CORE_OPTIONS_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/stop_token.hh"
#include "graph/types.hh"
#include "obs/obs.hh"

namespace graphabcd {

class Executor;

/**
 * Block selection method (scheduling strategy, paper Sec. III-B): the
 * paper's two rules, cyclic and Gauss-Southwell priority, with OBIM as
 * the concurrent-push form of the second.
 */
enum class Schedule
{
    Cyclic,     //!< fixed order, predictable, prefetch friendly
    Priority,   //!< Gauss-Southwell: largest estimated gradient first
    Obim,       //!< Gauss-Southwell via log-bucketed concurrent worklist
};

/** @return human-readable name of a Schedule. */
const char *to_string(Schedule schedule);

/** Parse a schedule name (the to_string spelling); nullopt if
 *  unrecognized. */
std::optional<Schedule> parseSchedule(std::string_view name);

/**
 * Execution model, used by the threaded engine and the HARP simulator to
 * build the paper's Fig. 7 breakdown.
 */
enum class ExecMode
{
    Async,     //!< barrierless, lock-free (GraphABCD proper)
    Barrier,   //!< memory barrier after every block's GAS processing
    Bsp,       //!< global barrier per iteration, Jacobi-style commits
};

/** @return human-readable name of an ExecMode. */
const char *to_string(ExecMode mode);

/**
 * Knobs of a BCD run.  Defaults follow the paper's prototype: block size
 * of a few hundred to a few thousand vertices, cyclic selection unless
 * priority is switched on.
 */
struct EngineOptions
{
    /** Vertices per block; >= |V| degenerates to full gradient descent
     *  (BSP / Jacobi). */
    VertexId blockSize = 512;

    /** Block selection rule. */
    Schedule schedule = Schedule::Cyclic;

    /** Execution model.  Serially, Async and Barrier are the same
     *  block Gauss-Seidel run and Bsp is Jacobi; the threaded engine
     *  and the simulator also differ in timing. */
    ExecMode mode = ExecMode::Async;

    /**
     * Per-vertex activation threshold: a vertex whose value moved by
     * less than this does not (re)activate its downstream blocks.  This
     * is the quiescence-based convergence criterion.
     */
    double tolerance = 1e-7;

    /** Hard safety limit in epochs (1 epoch == |V| vertex updates). */
    double maxEpochs = 10000.0;

    /**
     * Participation bound of the threaded asynchronous engine (and of
     * its Bsp wave gather): at most this many participants, the
     * calling thread included, execute one run concurrently.  The engine never spawns threads of its own; it
     * borrows them from `executor`.
     */
    std::uint32_t numThreads = 4;

    /**
     * Shard count of the fragment engine (src/fragment): the graph is
     * cut into this many contiguous, edge-balanced vertex-range
     * fragments exchanging deltas over SPSC rings.  Clamped to the
     * block count; 1 degenerates to a single self-contained shard.
     * Ignored by every other engine.
     */
    std::uint32_t fragments = 1;

    /**
     * Record a convergence-trace sample roughly every `traceInterval`
     * epochs (0 disables tracing).  Used by the Fig. 4/5 harnesses.
     */
    double traceInterval = 0.0;

    // ------------------------------------------------- serve-layer hooks
    // These do not change what fixpoint a run converges to, only how a
    // run is observed or ended early; the ResultCache fingerprint
    // (serve/runner) therefore excludes them.

    /**
     * Cooperative cancellation: every engine polls this at block-update
     * granularity and ends the run (EngineReport::stopped) when it
     * fires.  Default-constructed = never fires.
     */
    StopToken stop;

    /**
     * Optional live work counters the engine publishes into while
     * running, for lock-free status snapshots from other threads.
     */
    std::shared_ptr<Progress> progress;

    /**
     * Optional warm-start values (one per vertex): engines whose Value
     * is double seed the run from these instead of Program::init(),
     * letting a re-submitted job resume from a cached fixpoint (the
     * Maiter-style accumulative-iteration motivation).  Ignored when
     * null or when the size does not match |V|.
     */
    std::shared_ptr<const std::vector<double>> warmStart;

    /**
     * Optional convergence curve sink: engines append one sample per
     * trace interval (residual over the window, active vertices, work
     * counters, wall/simulated time) plus a final sample at run end.
     * When set and traceInterval is 0, engines sample once per epoch.
     * Null (the default) records nothing; under GRAPHABCD_OBS=OFF the
     * facade type is a no-op stub and this is always null.
     */
    std::shared_ptr<obs::ConvergenceSeries> convergence;

    /**
     * Worker pool the threaded asynchronous engine draws from.  Null
     * selects the process-wide pool (Executor::shared()), so by
     * default every run in the process shares one fixed set of
     * workers; the serve layer injects its own pool here.  Like the
     * hooks above, the pool does not change what fixpoint a run
     * converges to, so the ResultCache fingerprint excludes it.
     */
    std::shared_ptr<Executor> executor;
};

} // namespace graphabcd

#endif // GRAPHABCD_CORE_OPTIONS_HH
