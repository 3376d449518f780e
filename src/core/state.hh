/**
 * @file
 * Mutable BCD state: vertex values plus edge-carried value copies, and
 * the one home of the state-based GATHER-APPLY and SCATTER.
 *
 * There is exactly one copy of the topology (in BlockPartition); this
 * class owns the value arrays that change during a run.  `edgeValues`
 * is parallel to the partition's CSC edge arrays: position e holds the
 * edge-carried copy of edgeSrc(e)'s value, written by SCATTER.
 *
 * Every engine that commits whole values runs its blocks through here:
 * SerialEngine (processBlock + commitBlock, Gauss-Seidel or Jacobi),
 * the HARP simulator (the same pair, split in simulated time),
 * AsyncEngine (the fused step, concurrently on distinct blocks) and
 * FragmentShard (gatherApply over a vertex-range state, with its own
 * ownership-split scatter).  Decode scratch is always the caller's, so
 * one state can serve several participants.
 */

#ifndef GRAPHABCD_CORE_STATE_HH
#define GRAPHABCD_CORE_STATE_HH

#include <atomic>
#include <cmath>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "core/vertex_program.hh"
#include "graph/partition.hh"
#include "support/logging.hh"

namespace graphabcd {

/**
 * Result of the GATHER-APPLY phase over one block, before SCATTER
 * commits it.  This mirrors the PE output buffer of the prototype.
 * Callers reuse one across blocks: processBlock clears it and keeps
 * its capacity.
 */
template <typename Value>
struct BlockUpdate
{
    BlockId block = invalidBlock;
    std::vector<Value> newValues;   //!< one per vertex in the block
    std::vector<double> deltas;     //!< |new - old| per vertex
    double l1Delta = 0.0;           //!< sum of deltas (priority estimate)
    VertexId changed = 0;           //!< vertices moving more than tol
};

/** What one fused (or policy) step did to a block. */
struct BlockWork
{
    std::uint64_t vertices = 0;  //!< vertex updates (budget and epochs)
    std::uint64_t edges = 0;     //!< edge traversals
    std::uint64_t scatters = 0;  //!< scatter writes (fanout histogram)
    double l1 = 0.0;             //!< L1 value move (convergence window)
    std::uint64_t active = 0;    //!< vertices moved by more than tol
    std::uint64_t blocks = 1;    //!< blocks processed (a fragment pump: 0+)
};

/**
 * Vertex + edge-carried values of one run, over the whole graph or
 * over one fragment's vertex range and its in-edge slice.
 *
 * processBlock only reads, so concurrent calls on distinct blocks are
 * safe (the Jacobi wave).  commitBlock is single-writer.  step() may
 * run concurrently on distinct blocks: for a lock-free Value it reads
 * and writes through relaxed atomic_refs, so GATHER sees whatever
 * SCATTER most recently published (asynchronous BCD).
 */
template <VertexProgram Program>
class BcdState
{
  public:
    using Value = typename Program::Value;

    /** One vertex's GATHER-APPLY outcome. */
    struct Move
    {
        Value next;
        double delta;   //!< Program::delta(old, next)
    };

    BcdState() = default;

    /**
     * Seed the whole graph from Program::init(), or from `warm_start`
     * (one value per vertex) when Value is double and the size
     * matches |V| — a re-submitted job resumes from a cached fixpoint.
     */
    BcdState(const BlockPartition &g, const Program &p,
             const std::vector<double> *warm_start = nullptr)
        : BcdState(g, p, warm_start, 0, g.numVertices())
    {
    }

    /**
     * Seed vertices [begin, end) and their in-edge slice.  The slice's
     * copies of sources outside the range are derived locally too: the
     * program is pure, so the owner seeds exactly the same values.
     */
    BcdState(const BlockPartition &g, const Program &p,
             const std::vector<double> *warm_start, VertexId begin,
             VertexId end)
        : vBegin_(begin), eBegin_(g.inEdgeBegin(begin))
    {
        const VertexId n = g.numVertices();
        std::vector<Value> seed(n);
        for (VertexId v = 0; v < n; v++)
            seed[v] = p.init(v, g);
        if constexpr (std::is_same_v<Value, double>) {
            if (warm_start && warm_start->size() == n)
                seed = *warm_start;
        }
        values_.assign(seed.begin() + begin, seed.begin() + end);
        for (VertexId v = 0; v < n; v++)
            seed[v] = p.edgeValue(v, seed[v], g);
        // Walk destination in-lists (position order), which works in
        // every layout.
        edgeValues_.resize(g.inEdgeBegin(end) - eBegin_);
        for (VertexId v = begin; v < end; v++) {
            g.forEachInEdge(v, [&](EdgeId pos, VertexId src, float) {
                edgeValues_[pos - eBegin_] = seed[src];
            });
        }
    }

    /** @return the values of the state's vertex range. */
    const std::vector<Value> &values() const { return values_; }
    std::vector<Value> &values() { return values_; }

    const Value &value(VertexId v) const { return values_[v - vBegin_]; }
    Value &value(VertexId v) { return values_[v - vBegin_]; }

    /** @return the edge-carried copy at CSC position pos. */
    Value &edgeCopy(EdgeId pos) { return edgeValues_[pos - eBegin_]; }

    /**
     * GATHER-APPLY of vertex v: reduce its in-edge copies through the
     * program and apply.  The one per-vertex gather body of every
     * state-based engine.
     * @tparam Shared read through relaxed atomic_refs (step()).
     * @param slice v's block slice, as decoded by blockEdges().
     */
    template <bool Shared = false>
    [[gnu::always_inline]] Move
    gatherApply(const BlockPartition &g, const Program &p, VertexId v,
                const BlockEdgesView &slice) const
    {
        const EdgeId first = g.inEdgeBegin(v);
        const EdgeId degree = g.inEdgeEnd(v) - first;
        const Value *copies = edgeValues_.data() + (first - eBegin_);
        const float *wgt = slice.wgt.data() + (first - slice.base);
        const Value old = load<Shared>(values_[v - vBegin_]);
        auto acc = p.identity();
        for (EdgeId i = 0; i < degree; i++)
            acc = p.combine(acc, p.edgeTerm(old, load<Shared>(copies[i]),
                                            wgt[i]));
        const Value next = p.apply(v, acc, old, g);
        const double delta = p.delta(old, next);
        GRAPHABCD_ASSERT(!(delta < 0.0), "delta() must be non-negative");
        return {next, delta};
    }

    /**
     * GATHER-APPLY over block b into `out` (no mutation): stream the
     * block's in-edge slice, reduce per destination vertex, apply.
     * @param tol per-vertex change threshold for the `changed` count.
     * @param scratch the caller's decode buffer (compressed layout).
     */
    void
    processBlock(const BlockPartition &g, const Program &p, BlockId b,
                 double tol, EdgeSliceScratch &scratch,
                 BlockUpdate<Value> &out) const
    {
        out.block = b;
        out.newValues.clear();
        out.deltas.clear();
        out.l1Delta = 0.0;
        out.changed = 0;
        // Plain layout returns spans in place, compressed decodes into
        // the scratch — either way the gather tally is charged.
        const BlockEdgesView slice = g.blockEdges(b, scratch);
        for (VertexId v = g.blockBegin(b); v < g.blockEnd(b); v++) {
            const Move m = gatherApply(g, p, v, slice);
            out.l1Delta += m.delta;
            if (m.delta > tol)
                out.changed++;
            out.newValues.push_back(m.next);
            out.deltas.push_back(m.delta);
        }
    }

    /**
     * SCATTER: commit a block update — write the new vertex values and
     * copy each changed vertex's edge value onto its out-edges.  State-
     * based (whole values, not deltas), so replays are idempotent.
     * Whole-graph states only.
     * @param tol vertices moving by <= tol skip the edge copies.
     * @param on_write called as (dst_block, delta) for every out-edge
     *        written; schedulers hook block activation here.
     * @return number of out-edge positions written (random writes).
     */
    template <typename OnWrite>
    EdgeId
    commitBlock(const BlockPartition &g, const Program &p,
                const BlockUpdate<Value> &update, double tol,
                ScatterScratch &scratch, OnWrite &&on_write)
    {
        const VertexId begin = g.blockBegin(update.block);
        EdgeId writes = 0;
        BlockId hint = update.block;
        for (std::size_t i = 0; i < update.newValues.size(); i++) {
            const VertexId v = begin + static_cast<VertexId>(i);
            values_[v] = update.newValues[i];
            if (update.deltas[i] > tol)
                writes += scatter(g, p, v, values_[v], scratch, hint,
                                  on_write);
        }
        return writes;
    }

    /** commitBlock without an activation hook. */
    EdgeId
    commitBlock(const BlockPartition &g, const Program &p,
                const BlockUpdate<Value> &update, double tol,
                ScatterScratch &scratch)
    {
        return commitBlock(g, p, update, tol, scratch,
                           [](BlockId, double) {});
    }

    /**
     * Fused GATHER-APPLY-SCATTER of block b, committed in place — the
     * asynchronous engine's step.  Concurrent calls must be on distinct
     * blocks (one holder per block).  Whole-graph states only.
     * @return the block's work; `on_write` sees every out-edge write.
     */
    template <typename OnWrite>
    [[gnu::always_inline]] BlockWork
    step(const BlockPartition &g, const Program &p, BlockId b, double tol,
         LayoutScratch &scratch, OnWrite &&on_write)
    {
        BlockWork work;
        work.vertices = g.blockVertexCount(b);
        work.edges = g.blockEdgeCount(b);
        const BlockEdgesView slice = g.blockEdges(b, scratch.slice);
        BlockId hint = b;
        for (VertexId v = g.blockBegin(b); v < g.blockEnd(b); v++) {
            const Move m = gatherApply<kAtomic>(g, p, v, slice);
            work.l1 += m.delta;
            store<kAtomic>(values_[v], m.next);
            if (m.delta > tol) {
                work.active++;
                work.scatters += scatter<kAtomic>(g, p, v, m.next,
                                                  scratch.scatter, hint,
                                                  on_write);
            }
        }
        return work;
    }

  private:
    /** Lock-free Values are shared through atomic_refs; wide (CF)
     *  values stay plain and never run concurrently. */
    static constexpr bool kAtomic =
        std::atomic_ref<Value>::is_always_lock_free &&
        std::atomic_ref<Value>::required_alignment <= alignof(Value);

    template <bool Shared>
    [[gnu::always_inline]] static Value
    load(const Value &x)
    {
        if constexpr (Shared) {
            return std::atomic_ref<Value>(const_cast<Value &>(x))
                .load(std::memory_order_relaxed);
        } else {
            return x;
        }
    }

    template <bool Shared>
    [[gnu::always_inline]] static void
    store(Value &x, const Value &v)
    {
        if constexpr (Shared)
            std::atomic_ref<Value>(x).store(v, std::memory_order_relaxed);
        else
            x = v;
    }

    /**
     * SCATTER v's new value onto its out-edges, passing each edge's
     * destination block and priority to `on_write`.  The one state-
     * based scatter body (commitBlock and step).
     * @return the number of edges written.
     */
    template <bool Shared = false, typename OnWrite>
    [[gnu::always_inline]] EdgeId
    scatter(const BlockPartition &g, const Program &p, VertexId v,
            const Value &next, ScatterScratch &scratch, BlockId &hint,
            OnWrite &on_write)
    {
        const auto positions = g.scatterList(v, scratch);
        if (positions.empty())
            return 0;
        const Value ev = p.edgeValue(v, next, g);
        // Gauss-Southwell estimate: the perturbation a destination
        // block actually receives is the change of the *edge-carried*
        // value (e.g. rank/degree for PR).  All of v's out-edges
        // carried the same old copy, so the first position serves as
        // the old value; it is read before the stores overwrite it.
        const double edge_delta =
            p.delta(load<Shared>(edgeValues_[positions.front()]), ev);
        for (EdgeId pos : positions) {
            store<Shared>(edgeValues_[pos], ev);
            on_write(g.dstBlockOfEdge(pos, hint), edge_delta);
        }
        return positions.size();
    }

    VertexId vBegin_ = 0;   //!< first vertex of the range
    EdgeId eBegin_ = 0;     //!< first in-edge position of the slice
    std::vector<Value> values_;      //!< v - vBegin_
    std::vector<Value> edgeValues_;  //!< pos - eBegin_
};

} // namespace graphabcd

#endif // GRAPHABCD_CORE_STATE_HH
