/**
 * @file
 * Accumulative (delta) BCD engine — Maiter-style delta propagation made
 * safe under barrierless execution (ROADMAP item 1).
 *
 * The paper rejects operation-based updates because the per-edge
 * pending arrays of PageRank-Delta put a read-modify-write window
 * between GATHER's consume and SCATTER's accumulate (Sec. IV-A3; the
 * anomaly is reproduced by src/core/delta_state.hh).  Maiter's insight
 * is that the window is an artifact of the *layout*, not of delta
 * propagation itself: give every vertex ONE atomic pending accumulator,
 * make SCATTER a single atomic accumulate (fetch-add for PageRank, CAS
 * min for path problems) and GATHER a single exchange-to-zero, and
 * every delta is either in the accumulator or in exactly one
 * extractor's hands — nothing can be overwritten or double-counted, no
 * locks, no barriers.  Commutative + associative accumulation is the
 * whole correctness argument.
 *
 * Conservation: a delta whose application would move the value by less
 * than the tolerance is not dropped (the bug this engine exists to
 * kill) but folded back into the vertex's accumulator, so value mass is
 * conserved *by construction*: for PageRank,
 * sum(values) + sum(pending)/(1-alpha) == 1 holds at every instant and
 * the fixpoint drops rank mass only through the per-vertex tolerance,
 * never through lost residuals.
 *
 * Scheduling: deltas make the Gauss-Southwell rule natural — a block's
 * priority tracks the estimated value moves of the deltas accumulated
 * into it since its last processing, maintained by the scatter hook.
 * The hook applies Maiter's activation filter: a destination is woken
 * only when its whole accumulated pending would move its value by more
 * than the tolerance, so sub-tolerance traffic parks in the
 * accumulator (conserved) instead of churning the worklist.  With
 * Schedule::Obim the
 * engine pushes activations concurrently from inside SCATTER (the
 * scheduler's concurrentPush() contract); with the serialized
 * schedulers it batches activations per block under the control lock,
 * exactly like AsyncEngine.
 *
 * Threading, dispatch and halts are the shared BlockDriver's
 * (core/block_driver.hh), exactly as for AsyncEngine: StopToken and the
 * maxEpochs budget halt the run without ever claiming convergence
 * while work remains.
 */

#ifndef GRAPHABCD_CORE_ACCUM_ENGINE_HH
#define GRAPHABCD_CORE_ACCUM_ENGINE_HH

#include <algorithm>
#include <atomic>
#include <cmath>
#include <concepts>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/block_driver.hh"
#include "core/engine.hh"
#include "core/options.hh"
#include "graph/partition.hh"
#include "obs/obs.hh"
#include "support/timer.hh"

namespace graphabcd {

/**
 * Contract of an accumulative vertex program.  combineDelta must be
 * commutative and associative (sum, min, ...) — that is what makes
 * concurrent scatter safe — and apply/propagate must be monotone in
 * the Maiter sense: applying deltas in any order reaches the same
 * fixpoint.
 */
template <typename P>
concept AccumulativeProgram =
    requires(const P p, typename P::Value v, VertexId vid, EdgeId e,
             const BlockPartition &g) {
        typename P::Value;
        /** Initial vertex value (before any delta lands). */
        { p.init(vid, g) } -> std::convertible_to<typename P::Value>;
        /** Initial accumulator content (the seed work). */
        { p.initialDelta(vid, g) }
            -> std::convertible_to<typename P::Value>;
        /** Neutral element of combineDelta; an accumulator holding it
         *  has no work. */
        { p.identityDelta() }
            -> std::convertible_to<typename P::Value>;
        /** Merge two deltas (commutative + associative). */
        { p.combineDelta(v, v) }
            -> std::convertible_to<typename P::Value>;
        /** New vertex value after absorbing a delta. */
        { p.apply(v, v) } -> std::convertible_to<typename P::Value>;
        /** Delta shipped along out-edge at CSC position e when the
         *  vertex moved to `next` by absorbing `applied`. */
        { p.propagate(vid, v, v, e, g) }
            -> std::convertible_to<typename P::Value>;
        /** Part of an extracted delta still worth keeping when its
         *  application moved the value by <= tolerance (identityDelta
         *  to keep nothing). */
        { p.foldResidual(v, v) }
            -> std::convertible_to<typename P::Value>;
        /** Scalar size of a value move (activation priority). */
        { p.magnitude(v, v) } -> std::convertible_to<double>;
    };

/**
 * Accumulative PageRank (Maiter Sec. 2's canonical example): values
 * start at 0, accumulators at (1-alpha)/N, and a vertex that absorbs
 * delta d ships alpha*d/outdeg to each out-neighbour.  The fixpoint is
 * exactly PageRank's: x = (1-alpha)/N + alpha * sum(x_u / deg_u).
 * Every delta is non-negative, so accumulation is monotone and
 * sum(values) + sum(pending)/(1-alpha) == 1 is invariant (on graphs
 * without dangling vertices; a dangling vertex drains its alpha-share,
 * matching the non-accumulative engines' semantics).
 */
struct PageRankAccumProgram
{
    using Value = double;

    double alpha = 0.85;

    explicit PageRankAccumProgram(double damping = 0.85)
        : alpha(damping)
    {
    }

    Value init(VertexId, const BlockPartition &) const { return 0.0; }

    Value
    initialDelta(VertexId, const BlockPartition &g) const
    {
        return (1.0 - alpha) / std::max<double>(g.numVertices(), 1.0);
    }

    Value identityDelta() const { return 0.0; }
    Value combineDelta(Value a, Value b) const { return a + b; }
    Value apply(Value old, Value d) const { return old + d; }

    Value
    propagate(VertexId v, Value, Value applied, EdgeId,
              const BlockPartition &g) const
    {
        const std::uint32_t deg = g.outDegree(v);
        return deg ? alpha * applied / deg : 0.0;
    }

    /** Keep the whole residual: this is the mass-conservation fix. */
    Value foldResidual(Value d, Value) const { return d; }

    double magnitude(Value old, Value next) const
    {
        return std::abs(next - old);
    }
};

/**
 * Accumulative SSSP: min-accumulation of tentative distances.
 * Absorbing a shorter distance ships next+w along each out-edge — the
 * asynchronous label-correcting form (Maiter Sec. 2.2).
 */
struct SsspAccumProgram
{
    using Value = double;

    VertexId source = 0;
    static constexpr Value unreachable = 1e18;

    explicit SsspAccumProgram(VertexId src = 0) : source(src) {}

    Value init(VertexId, const BlockPartition &) const
    {
        return unreachable;
    }

    Value
    initialDelta(VertexId v, const BlockPartition &) const
    {
        return v == source ? 0.0 : unreachable;
    }

    Value identityDelta() const { return unreachable; }
    Value combineDelta(Value a, Value b) const { return std::min(a, b); }
    Value apply(Value old, Value d) const { return std::min(old, d); }

    Value
    propagate(VertexId, Value next, Value, EdgeId e,
              const BlockPartition &g) const
    {
        return next + g.edgeWeight(e);
    }

    /** A candidate that no longer improves the value is dead. */
    Value
    foldResidual(Value d, Value old) const
    {
        return d < old ? d : unreachable;
    }

    double magnitude(Value old, Value next) const
    {
        return std::abs(old - next);
    }
};

/** Accumulative BFS: SSSP with unit hop cost. */
struct BfsAccumProgram : SsspAccumProgram
{
    explicit BfsAccumProgram(VertexId src = 0) : SsspAccumProgram(src) {}

    Value
    propagate(VertexId, Value next, Value, EdgeId,
              const BlockPartition &) const
    {
        return next + 1.0;
    }
};

/**
 * Accumulative connected components: min-label accumulation.  Every
 * vertex seeds its own id as a candidate label; absorbing a smaller
 * label re-ships it unchanged.  On a symmetrized graph the fixpoint
 * labels every vertex with its component's minimum id (ccReference).
 */
struct CcAccumProgram
{
    using Value = double;

    static constexpr Value unlabeled = 1e18;

    Value init(VertexId, const BlockPartition &) const
    {
        return unlabeled;
    }

    Value
    initialDelta(VertexId v, const BlockPartition &) const
    {
        return static_cast<Value>(v);
    }

    Value identityDelta() const { return unlabeled; }
    Value combineDelta(Value a, Value b) const { return std::min(a, b); }
    Value apply(Value old, Value d) const { return std::min(old, d); }

    Value
    propagate(VertexId, Value next, Value, EdgeId,
              const BlockPartition &) const
    {
        return next;
    }

    Value
    foldResidual(Value d, Value old) const
    {
        return d < old ? d : unlabeled;
    }

    double magnitude(Value old, Value next) const
    {
        return std::abs(old - next);
    }
};

/** What processVertex did with a vertex's accumulator. */
enum class AccumOutcome
{
    Idle,     //!< accumulator held the identity: no work
    Folded,   //!< sub-tolerance move: residual folded back, no scatter
    Applied,  //!< value moved; deltas scattered downstream
};

/**
 * The accumulative data plane: one atomic value + one atomic pending
 * accumulator per vertex.  Exposed separately from the engine so tests
 * can drive adversarial interleavings directly (the analogue of
 * DeltaState's split gather/commit API) and audit conservation.
 */
template <AccumulativeProgram Program>
class AccumState
{
  public:
    using Value = typename Program::Value;

    static_assert(std::atomic<Value>::is_always_lock_free,
                  "AccumState needs a lock-free atomic Value");

    AccumState(const BlockPartition &g, const Program &p) : graph(g)
    {
        const VertexId n = g.numVertices();
        values_ = std::vector<std::atomic<Value>>(n);
        pending_ = std::vector<std::atomic<Value>>(n);
        for (VertexId v = 0; v < n; v++) {
            values_[v].store(p.init(v, g), std::memory_order_relaxed);
            pending_[v].store(p.initialDelta(v, g),
                              std::memory_order_relaxed);
        }
    }

    Value
    value(VertexId v) const
    {
        return values_[v].load(std::memory_order_relaxed);
    }

    Value
    pendingAt(VertexId v) const
    {
        return pending_[v].load(std::memory_order_relaxed);
    }

    std::vector<Value>
    valuesSnapshot() const
    {
        std::vector<Value> out(values_.size());
        for (std::size_t v = 0; v < values_.size(); v++)
            out[v] = values_[v].load(std::memory_order_relaxed);
        return out;
    }

    std::vector<Value>
    pendingSnapshot() const
    {
        std::vector<Value> out(pending_.size());
        for (std::size_t v = 0; v < pending_.size(); v++)
            out[v] = pending_[v].load(std::memory_order_relaxed);
        return out;
    }

    /** SCATTER primitive: merge a delta into v's accumulator. */
    void
    accumulate(const Program &p, VertexId v, Value d)
    {
        atomicCombine(p, pending_[v], d);
    }

    /** Result of one processVertex call. */
    struct Result
    {
        AccumOutcome outcome = AccumOutcome::Idle;
        double magnitude = 0.0;       //!< value move (Applied) or the
                                      //!< sub-tolerance move (Folded)
        std::uint32_t scatters = 0;   //!< out-edge accumulates done
    };

    /**
     * Extract-apply-scatter one vertex.
     *
     * The extraction (exchange to identity) and the scatter
     * (atomicCombine per out-edge) are each single atomic RMWs, so any
     * interleaving with concurrent processors — including of the same
     * vertex — loses nothing: a delta is in exactly one accumulator or
     * one extractor's hands at all times.  The value update is a CAS
     * loop for the same reason.  A move <= tol folds the still-useful
     * part of the delta back into the accumulator (conservation)
     * without activating downstream blocks (quiescence).
     *
     * @param on_activate (dst_vertex, est_move) called after an
     *        out-edge accumulate when dst's whole accumulated pending
     *        would move dst's value by more than tol (the Maiter
     *        activation filter); the engine maps dst to its block and
     *        activates.  Sub-tolerance accumulations stay parked in
     *        dst's accumulator — for additive programs the last
     *        combiner of a super-tolerance total always observes it,
     *        and for monotone min-programs a skipped wake can never
     *        become necessary later (the estimated move only
     *        shrinks), so no wakeup is lost.
     * @param scratch caller-owned scatter decode buffer — processors
     *        run concurrently, so each participant brings its own.
     */
    template <typename OnActivate>
    Result
    processVertex(const Program &p, VertexId v, double tol,
                  OnActivate &&on_activate, ScatterScratch &scratch)
    {
        Result r;
        const Value identity = p.identityDelta();
        const Value d =
            pending_[v].exchange(identity, std::memory_order_acq_rel);
        if (d == identity)
            return r;
        Value cur = values_[v].load(std::memory_order_relaxed);
        for (;;) {
            const Value next = p.apply(cur, d);
            const double mag = p.magnitude(cur, next);
            if (!(mag > tol)) {
                const Value residual = p.foldResidual(d, cur);
                if (!(residual == identity))
                    atomicCombine(p, pending_[v], residual);
                r.outcome = AccumOutcome::Folded;
                r.magnitude = mag;
                return r;
            }
            if (values_[v].compare_exchange_weak(
                    cur, next, std::memory_order_acq_rel,
                    std::memory_order_relaxed)) {
                r.outcome = AccumOutcome::Applied;
                r.magnitude = mag;
                BlockId hint = graph.numBlocks() ? graph.blockOf(v)
                                                 : invalidBlock;
                for (EdgeId pos : graph.scatterList(v, scratch)) {
                    const Value contrib =
                        p.propagate(v, next, d, pos, graph);
                    if (contrib == identity)
                        continue;
                    const VertexId dst = graph.edgeDstAt(pos, hint);
                    const Value after =
                        atomicCombine(p, pending_[dst], contrib);
                    r.scatters++;
                    const Value dval =
                        values_[dst].load(std::memory_order_relaxed);
                    const double est =
                        p.magnitude(dval, p.apply(dval, after));
                    if (est > tol) {
                        // Schedulers ACCUMULATE activation priorities
                        // (Gauss-Southwell L1), so pass this
                        // contribution's own move — the running sum
                        // then tracks dst's total pending.  Passing
                        // `est` (already a total) would double-count
                        // earlier contributions and over-prioritize
                        // hot vertices into premature, fragmenting
                        // applies.
                        on_activate(
                            dst,
                            p.magnitude(dval, p.apply(dval, contrib)));
                    }
                }
                return r;
            }
            // CAS lost to a concurrent applier of this vertex: re-apply
            // d against the fresh value (monotonicity makes any order
            // reach the same fixpoint).
        }
    }

    /** processVertex with a throwaway scratch (direct test callers). */
    template <typename OnActivate>
    Result
    processVertex(const Program &p, VertexId v, double tol,
                  OnActivate &&on_activate)
    {
        ScatterScratch scratch;
        return processVertex(p, v, tol,
                             std::forward<OnActivate>(on_activate),
                             scratch);
    }

  private:
    /** @return the post-combine accumulator value. */
    static Value
    atomicCombine(const Program &p, std::atomic<Value> &slot, Value d)
    {
        Value cur = slot.load(std::memory_order_relaxed);
        for (;;) {
            const Value next = p.combineDelta(cur, d);
            if (next == cur)
                return cur;   // absorbing element (e.g. a worse min)
            if (slot.compare_exchange_weak(cur, next,
                                           std::memory_order_acq_rel,
                                           std::memory_order_relaxed))
                return next;
        }
    }

    const BlockPartition &graph;
    std::vector<std::atomic<Value>> values_;
    std::vector<std::atomic<Value>> pending_;
};

/**
 * Threaded accumulative engine: the accumulator-fold policy over the
 * shared BlockDriver.  Its dispatch window is one block (a direct claim
 * from the scheduler): deltas are commutative, so staleness needs no
 * bound.
 *
 * vertexUpdates counts vertices whose value actually moved (Applied) —
 * that is the "vertex updates to tolerance" the Maiter comparison is
 * about.  Folded claims (sub-tolerance residual returned to the
 * accumulator) are deferrals, not updates; they are tallied in the
 * engine.accum.foldbacks counter instead.  warmStart is ignored:
 * resuming needs a consistent (values, pending) pair, which cached
 * final values alone cannot provide.
 */
template <AccumulativeProgram Program>
class AccumEngine
{
  public:
    using Value = typename Program::Value;

    AccumEngine(const BlockPartition &g, Program p, EngineOptions opt)
        : graph(g), program(std::move(p)), options(opt)
    {
    }

    /**
     * Run to quiescence (or maxEpochs / stop).
     * @param out_values receives the final vertex values.
     */
    EngineReport
    run(std::vector<Value> &out_values)
    {
        Timer timer;
        state_ = std::make_unique<AccumState<Program>>(graph, program);
        obs::Histogram &residualHist = obs::histogram(
            "engine.accum.residual_mag", obs::magnitudeBuckets());
        std::atomic<std::uint64_t> foldbacks{0};

        DriverConfig cfg;
        cfg.participation = std::max(1u, options.numThreads);
        cfg.window = 1;
        cfg.runSpan = "engine.accum.run";
        cfg.gasHistogram = "engine.accum.block_gas_us";
        cfg.fanoutHistogram = "engine.accum.scatter_fanout";
        BlockDriver driver(graph, options, cfg);
        // The accumulator fold: extract-apply-scatter each vertex.
        EngineReport report = driver.run(
            [&](BlockId b, LayoutScratch &scratch, ActivationSink &out) {
                BlockWork work;
                std::uint64_t folded = 0;
                auto on_activate = [&](VertexId dst, double mag) {
                    out.push(graph.blockOf(dst), mag);
                };
                for (VertexId v = graph.blockBegin(b);
                     v < graph.blockEnd(b); v++) {
                    auto r = state_->processVertex(
                        program, v, options.tolerance, on_activate,
                        scratch.scatter);
                    switch (r.outcome) {
                      case AccumOutcome::Idle:
                        break;
                      case AccumOutcome::Folded:
                        folded++;
                        residualHist.record(r.magnitude);
                        break;
                      case AccumOutcome::Applied:
                        work.vertices++;
                        work.l1 += r.magnitude;
                        work.edges += graph.outDegree(v);
                        work.scatters += r.scatters;
                        break;
                    }
                }
                work.active = work.vertices;
                foldbacks.fetch_add(folded, std::memory_order_relaxed);
                return work;
            });

        if constexpr (obs::kEnabled) {
            obs::counter("engine.accum.foldbacks").add(foldbacks.load());
            if (report.converged) {
                obs::counter("engine.accum.updates_to_tolerance")
                    .add(report.vertexUpdates);
            }
        }
        out_values = state_->valuesSnapshot();
        report.seconds = timer.seconds();
        return report;
    }

    /** Post-run accumulator snapshot (conservation audits). */
    std::vector<Value>
    pendingSnapshot() const
    {
        return state_ ? state_->pendingSnapshot()
                      : std::vector<Value>{};
    }

  private:
    const BlockPartition &graph;
    Program program;
    EngineOptions options;
    std::unique_ptr<AccumState<Program>> state_;
};

} // namespace graphabcd

#endif // GRAPHABCD_CORE_ACCUM_ENGINE_HH
