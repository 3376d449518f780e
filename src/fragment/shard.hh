/**
 * @file
 * FragmentShard — one fragment's private slice of a BCD run.
 *
 * A shard owns the vertex values of its contiguous vertex range and the
 * edge-carried value copies of its contiguous in-edge slice (the
 * destination-sliced CSC layout makes both ranges contiguous).  Slice
 * positions whose source vertex lives in another fragment are the
 * *mirror slots*: read-only from the local sweep's perspective, written
 * only when a delta message from the owner fragment is applied.  All
 * state is plain (non-atomic): the fragment is the block driver's
 * dispatch unit, so at most one runner drives a shard at a time, and
 * the driver's locked claim and commit hand the shard between runners.
 *
 * SCATTER of a changed local vertex v splits by ownership along v's
 * sorted scatter-position list: positions inside the local slice are
 * written directly (and their destination blocks activated), and one
 * {v, edgeValue} message per *distinct remote owner* is appended to
 * that owner's outbox — the receiver fans it out to all of its mirror
 * slots, so a vertex with a thousand out-edges into a fragment costs
 * one ring slot, not a thousand.  Messages carry whole edge-carried
 * values (state, not differences), so application is idempotent and
 * per-ring FIFO order is the only ordering needed.
 */

#ifndef GRAPHABCD_FRAGMENT_SHARD_HH
#define GRAPHABCD_FRAGMENT_SHARD_HH

#include <algorithm>
#include <memory>
#include <optional>
#include <vector>

#include "core/options.hh"
#include "core/scheduler.hh"
#include "core/state.hh"
#include "core/vertex_program.hh"
#include "fragment/message_plane.hh"
#include "fragment/topology.hh"
#include "graph/partition.hh"
#include "support/logging.hh"

namespace graphabcd {

/** Work accounting of one FragmentShard::processNext call. */
struct ShardWork
{
    BlockId block = invalidBlock;    //!< global block id processed
    VertexId vertices = 0;           //!< vertex updates
    EdgeId edges = 0;                //!< in-edges streamed
    EdgeId scatterWrites = 0;        //!< local edge positions written
    std::uint64_t messagesQueued = 0; //!< delta messages appended
    double l1Delta = 0.0;            //!< L1 value change of the block
    VertexId changed = 0;            //!< vertices moved > tol
};

/** One fragment's values, mirrors, scheduler, and outboxes. */
template <VertexProgram Program>
class FragmentShard
{
  public:
    using Value = typename Program::Value;
    using Msg = DeltaMsg<Value>;

    FragmentShard(const BlockPartition &g, const FragmentTopology &topo,
                  FragmentId id, const Program &p,
                  const EngineOptions &opt)
        : graph(g), topology(topo), program(p), self(id),
          bBegin(topo.blockBegin(id)),
          vBegin(topo.vertexBegin(id)), vEnd(topo.vertexEnd(id)),
          eBegin(topo.edgeBegin(id)), eEnd(topo.edgeEnd(id)),
          // Mirror slots start from the source's seed too: the program
          // is pure, so the remote owner seeds exactly the same value
          // and no start-up message exchange is needed.
          state_(g, p, opt.warmStart.get(), vBegin, vEnd)
    {
        const BlockId localBlocks = topo.blockCount(id);
        sched = makeScheduler(opt.schedule, localBlocks);
        for (BlockId b = 0; b < localBlocks; b++)
            sched->activate(b, initialActivationPriority());

        outboxes.resize(topo.numFragments());
    }

    FragmentShard(const FragmentShard &) = delete;
    FragmentShard &operator=(const FragmentShard &) = delete;

    /**
     * GATHER-APPLY-SCATTER the next active local block.  Local scatter
     * positions are written in place; remote ones become outbox
     * messages.
     * @return nullopt when no local block is active.
     */
    std::optional<ShardWork>
    processNext(double tol)
    {
        const std::optional<BlockId> local = sched->next();
        if (!local)
            return std::nullopt;
        const BlockId b = bBegin + *local;

        ShardWork work;
        work.block = b;
        const BlockEdgesView slice = graph.blockEdges(b, sliceScratch_);
        for (VertexId v = graph.blockBegin(b); v < graph.blockEnd(b);
             v++) {
            const auto m = state_.gatherApply(graph, program, v, slice);
            work.l1Delta += m.delta;
            state_.value(v) = m.next;
            if (!(m.delta > tol))
                continue;
            work.changed++;
            scatter(v, m.next, work);
        }
        work.vertices = graph.blockVertexCount(b);
        work.edges = graph.blockEdgeCount(b);
        return work;
    }

    /**
     * Fan one incoming delta message out to the local mirror slots of
     * its vertex and activate the affected blocks.
     * @return mirror positions written.
     */
    EdgeId
    applyMessage(const Msg &msg)
    {
        const auto positions = graph.scatterList(msg.vertex,
                                                 scatterScratch_);
        auto it = std::lower_bound(positions.begin(), positions.end(),
                                   eBegin);
        EdgeId writes = 0;
        double edge_delta = 0.0;
        BlockId hint = bBegin;
        for (; it != positions.end() && *it < eEnd; ++it) {
            const EdgeId pos = *it;
            if (writes == 0) {
                // All local copies carry the same old value; the first
                // serves as the activation-priority baseline.
                edge_delta = program.delta(state_.edgeCopy(pos), msg.value);
            }
            state_.edgeCopy(pos) = msg.value;
            sched->activate(graph.dstBlockOfEdge(pos, hint) - bBegin,
                            edge_delta);
            writes++;
        }
        GRAPHABCD_ASSERT(writes > 0,
                         "delta message for a vertex with no mirror here");
        return writes;
    }

    /**
     * Push pending outbox messages into the plane's rings, as far as
     * ring space allows — never blocks; a full ring leaves the
     * remainder queued.
     * @param stamp sender's global block-update clock, published per
     *        flushed channel for the receiver's staleness gauge.
     * @param on_push called with dst after each push that put
     *        messages in dst's ring.
     * @return true when every outbox drained completely.
     */
    template <typename OnPush>
    bool
    flushOutboxes(MessagePlane<Value> &plane, std::uint64_t stamp,
                  OnPush &&on_push)
    {
        bool all_drained = true;
        for (FragmentId d = 0;
             d < static_cast<FragmentId>(outboxes.size()); d++) {
            Outbox &ob = outboxes[d];
            if (ob.head == ob.buf.size()) {
                ob.buf.clear();
                ob.head = 0;
                continue;
            }
            auto &ch = plane.channel(self, d);
            const std::size_t k =
                ch.ring.pushN(ob.buf.data() + ob.head,
                              ob.buf.size() - ob.head);
            ob.head += k;
            if (k > 0) {
                ch.flushStamp.store(stamp, std::memory_order_relaxed);
                on_push(d);
            }
            if (ob.head == ob.buf.size()) {
                ob.buf.clear();
                ob.head = 0;
            } else {
                all_drained = false;
            }
        }
        return all_drained;
    }

    /** @return messages appended but not yet pushed into a ring. */
    std::size_t
    pendingOutbox() const
    {
        std::size_t pending = 0;
        for (const Outbox &ob : outboxes)
            pending += ob.buf.size() - ob.head;
        return pending;
    }

    /** @return whether no local block is active. */
    bool schedulerEmpty() const { return sched->empty(); }

    /** @return this shard's scheduler (counter flush at run end). */
    const BlockScheduler &scheduler() const { return *sched; }

    /** @return the fragment's local values, indexed v - vertexBegin. */
    const std::vector<Value> &values() const { return state_.values(); }

    VertexId vertexBegin() const { return vBegin; }
    VertexId vertexEnd() const { return vEnd; }

  private:
    struct Outbox
    {
        std::vector<Msg> buf;
        std::size_t head = 0;   //!< messages [0, head) already pushed
    };

    /** SCATTER one changed vertex: local writes + one msg per owner. */
    void
    scatter(VertexId v, const Value &next, ShardWork &work)
    {
        const auto positions = graph.scatterList(v, scatterScratch_);
        if (positions.empty())
            return;
        const Value ev = program.edgeValue(v, next, graph);
        // Positions are sorted, so the local run is contiguous and the
        // remote owners are monotone: one ownership lookup per owner
        // change, one message per distinct remote owner.
        FragmentId last_owner = self;
        bool have_local_delta = false;
        double edge_delta = 0.0;
        BlockId hint = bBegin;
        for (const EdgeId pos : positions) {
            if (pos >= eBegin && pos < eEnd) {
                if (!have_local_delta) {
                    edge_delta = program.delta(state_.edgeCopy(pos), ev);
                    have_local_delta = true;
                }
                state_.edgeCopy(pos) = ev;
                sched->activate(
                    graph.dstBlockOfEdge(pos, hint) - bBegin,
                    edge_delta);
                work.scatterWrites++;
                continue;
            }
            const FragmentId owner = topology.fragmentOfEdge(pos);
            if (owner != last_owner) {
                outboxes[owner].buf.push_back(Msg{v, ev});
                work.messagesQueued++;
                last_owner = owner;
            }
        }
    }

    const BlockPartition &graph;
    const FragmentTopology &topology;
    Program program;
    const FragmentId self;
    const BlockId bBegin;
    const VertexId vBegin;
    const VertexId vEnd;
    const EdgeId eBegin;
    const EdgeId eEnd;

    BcdState<Program> state_;        //!< local values + slice copies
    std::unique_ptr<BlockScheduler> sched;
    std::vector<Outbox> outboxes;    //!< per destination fragment

    // Layout decode buffers.  Safe as members: at most one runner
    // drives a shard at a time (the driver's one-holder rule).
    EdgeSliceScratch sliceScratch_;
    ScatterScratch scatterScratch_;
};

} // namespace graphabcd

#endif // GRAPHABCD_FRAGMENT_SHARD_HH
