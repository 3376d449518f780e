/**
 * @file
 * FragmentEngine — multi-fragment scale-out execution of one BCD run.
 *
 * The graph is cut into contiguous, edge-balanced fragments
 * (FragmentTopology); each fragment's values, mirrors, scheduler, and
 * outboxes live in a FragmentShard, and all cross-fragment traffic goes
 * through the MessagePlane's SPSC rings.  This is the libgrape-lite /
 * GraphScale shared-nothing model run inside one process: the same
 * partitioning later maps each fragment to a process or an accelerator
 * (the HARP sim's multi-device affinity reuses FragmentTopology).
 *
 * The engine is a BlockDriver policy (core/block_driver.hh) whose
 * dispatch unit is a fragment, claimed in cyclic order.  Its process
 * step is one *pump*: drain the incoming rings (apply deltas to mirror
 * slots, activate the shard's blocks), process at most kBlocksPerPump
 * of the shard's blocks under the shard's own schedule, then flush the
 * outboxes as far as ring space allows.  A flush that put messages in
 * fragment d's ring activates d; a fragment whose shard scheduler is
 * non-empty, or whose outbox could not drain, activates itself.  Pumps
 * never block on a full ring, so two fragments flooding each other
 * cannot deadlock.
 *
 * Why the driver's rules are enough:
 *  - One holder per unit: each shard has one runner at a time, so its
 *    state stays plain, and each ring has one producer (the sender's
 *    runner) and one consumer (the receiver's runner).  The driver's
 *    locked claim and commit order one runner's writes before the next.
 *  - No lost wakeup: every ring push is followed by an activation of
 *    its receiver, committed after the push.  If the receiver is held
 *    at that commit, the activation is parked and re-delivered when the
 *    holder commits.  Either way a pump of the receiver starts after
 *    the push and drains it.
 *  - Quiescence: a shard's blocks are activated only by its own pumps
 *    (local scatter, applied messages), and a pump that leaves work
 *    behind activates its fragment.  So when the driver's scheduler is
 *    empty, nothing is held and no halt dropped work, every ring and
 *    outbox is empty and every shard scheduler is empty: the run is at
 *    global quiescence, with no detector and no idle flags.
 *
 * Threading: the engine spawns nothing; participation is
 * min(numThreads, fragments), the caller plus pool tasks on the shared
 * Executor.  Halts, budget, convergence window, work counters and the
 * report are the driver's; blockUpdates counts shard blocks, not pumps.
 */

#ifndef GRAPHABCD_FRAGMENT_ENGINE_HH
#define GRAPHABCD_FRAGMENT_ENGINE_HH

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/block_driver.hh"
#include "core/engine.hh"
#include "core/options.hh"
#include "core/scheduler.hh"
#include "core/vertex_program.hh"
#include "fragment/message_plane.hh"
#include "fragment/shard.hh"
#include "fragment/topology.hh"
#include "graph/partition.hh"
#include "obs/obs.hh"
#include "support/timer.hh"

namespace graphabcd {

/** Per-fragment outcome accounting, exposed for tests and bench. */
struct FragmentRunStats
{
    std::uint64_t blockUpdates = 0;
    std::uint64_t messagesSent = 0;
    std::uint64_t messagesReceived = 0;
};

/**
 * Sharded BCD engine over a fragment topology.  Works for every scalar
 * program (the shard state is plain values, no atomicity requirement).
 */
template <VertexProgram Program>
class FragmentEngine
{
  public:
    using Value = typename Program::Value;
    using Msg = DeltaMsg<Value>;

    FragmentEngine(const BlockPartition &g, Program p, EngineOptions opt)
        : graph(g), program(std::move(p)), options(opt),
          topology_(g, std::max(1u, opt.fragments))
    {
    }

    /** @return the realised shard layout (after clamping). */
    const FragmentTopology &topology() const { return topology_; }

    /** @return per-fragment stats of the last run() (empty before). */
    const std::vector<FragmentRunStats> &
    fragmentStats() const
    {
        return stats_;
    }

    /**
     * Run to global quiescence (or maxEpochs / stop).
     * @param out_values receives the stitched final vertex values.
     */
    EngineReport
    run(std::vector<Value> &out_values)
    {
        Timer timer;
        const FragmentId nFrags = topology_.numFragments();

        // Ring capacity scales with shard size but stays bounded: the
        // outbox absorbs bursts beyond it without blocking.
        const std::size_t ringCap = std::clamp<std::size_t>(
            graph.numVertices() / std::max<FragmentId>(nFrags, 1), 1024,
            65536);
        MessagePlane<Value> plane(nFrags, ringCap);

        // Blocks one pump processes before flushing and releasing the
        // fragment; bounds both mirror staleness and claim latency.
        constexpr std::uint32_t kBlocksPerPump = 32;
        // Messages drained per popN batch.
        constexpr std::size_t kDrainBatch = 256;
        // Outbox backpressure: beyond this backlog a pump stops
        // producing and spends its turn draining + flushing.
        const std::size_t outboxCap = 4 * ringCap;

        // Everything here belongs to the fragment's holder, one at a
        // time; the driver's claim and commit hand it over.
        struct Fragment
        {
            std::unique_ptr<FragmentShard<Program>> shard;
            std::vector<Msg> drain;   //!< popN batch buffer
            FragmentRunStats stats;
        };
        std::vector<Fragment> frags(nFrags);
        for (FragmentId f = 0; f < nFrags; f++) {
            frags[f].shard = std::make_unique<FragmentShard<Program>>(
                graph, topology_, f, program, options);
            frags[f].drain.resize(kDrainBatch);
        }

        // Resolve metrics once per run; record per pump / per block.
        obs::Counter &sentCtr = obs::counter("fragment.messages_sent");
        obs::Counter &recvCtr =
            obs::counter("fragment.messages_received");
        obs::Histogram &depthHist = obs::histogram(
            "fragment.ring_depth", obs::ringDepthBuckets());
        obs::Histogram &staleHist = obs::histogram(
            "fragment.mirror_staleness_blocks", obs::stalenessBuckets());

        // Fragments are claimed in cyclic order, a round-robin sweep;
        // each shard keeps options.schedule for its own blocks.
        EngineOptions unitOptions = options;
        unitOptions.schedule = Schedule::Cyclic;
        DriverConfig cfg;
        cfg.units = nFrags;
        cfg.participation =
            std::min<std::uint32_t>(std::max(1u, options.numThreads),
                                    nFrags);
        cfg.runSpan = "engine.fragment.run";
        cfg.gasHistogram = "engine.fragment.pump_us";
        cfg.fanoutHistogram = "engine.fragment.pump_scatters";
        BlockDriver driver(graph, unitOptions, cfg);

        // ---- one pump: drain -> process -> flush -> re-activate ----
        auto pumpOnce = [&](FragmentId f, ActivationSink &out) {
            Fragment &frag = frags[f];
            FragmentShard<Program> &shard = *frag.shard;
            BlockWork work;
            work.blocks = 0;

            for (FragmentId src = 0; src < nFrags; src++) {
                if (src == f)
                    continue;
                auto &ch = plane.channel(src, f);
                if constexpr (obs::kEnabled) {
                    const std::size_t depth = ch.ring.size();
                    if (depth > 0)
                        depthHist.record(static_cast<double>(depth));
                }
                for (;;) {
                    const std::size_t k = ch.ring.popN(
                        frag.drain.data(), frag.drain.size());
                    if (k == 0)
                        break;
                    if constexpr (obs::kEnabled) {
                        const std::uint64_t now = driver.blocksProcessed();
                        const std::uint64_t stamp = ch.flushStamp.load(
                            std::memory_order_relaxed);
                        staleHist.record(static_cast<double>(
                            now > stamp ? now - stamp : 0));
                    }
                    for (std::size_t i = 0; i < k; i++)
                        work.scatters += shard.applyMessage(frag.drain[i]);
                    frag.stats.messagesReceived += k;
                    recvCtr.add(k);
                }
            }

            while (work.blocks < kBlocksPerPump &&
                   shard.pendingOutbox() <= outboxCap) {
                const std::optional<ShardWork> w =
                    shard.processNext(options.tolerance);
                if (!w)
                    break;
                work.blocks++;
                work.vertices += w->vertices;
                work.edges += w->edges;
                work.scatters += w->scatterWrites;
                work.l1 += w->l1Delta;
                work.active += w->changed;
                frag.stats.messagesSent += w->messagesQueued;
                sentCtr.add(w->messagesQueued);
            }
            frag.stats.blockUpdates += work.blocks;

            // Each push is followed by its receiver's activation, which
            // the driver commits after this step returns.
            const bool drained = shard.flushOutboxes(
                plane, driver.blocksProcessed(),
                [&out](FragmentId d) { out.push(d, 1.0); });
            if (!drained || !shard.schedulerEmpty())
                out.push(f, 1.0);
            return work;
        };

        EngineReport report = driver.run(
            [&](BlockId f, LayoutScratch &, ActivationSink &out) {
                if (!obs::tracingEnabled())
                    return pumpOnce(f, out);
                // Productive pumps become child spans of the ambient
                // context (the executor task adopted the job's tree);
                // a pump that found nothing to do records nothing.
                const double t0 = obs::traceNowMicros();
                const BlockWork work = pumpOnce(f, out);
                if (work.blocks > 0 || work.scatters > 0) {
                    obs::completeSpan("fragment.pump", t0,
                                      obs::traceNowMicros() - t0,
                                      obs::childSpan());
                }
                return work;
            });

        // ---- stitch results ----
        out_values.resize(graph.numVertices());
        stats_.clear();
        for (const Fragment &frag : frags) {
            const FragmentShard<Program> &shard = *frag.shard;
            std::copy(shard.values().begin(), shard.values().end(),
                      out_values.begin() + shard.vertexBegin());
            stats_.push_back(frag.stats);
            flushSchedulerCounters(shard.scheduler());
        }
        report.seconds = timer.seconds();
        return report;
    }

  private:
    const BlockPartition &graph;
    Program program;
    EngineOptions options;
    FragmentTopology topology_;
    std::vector<FragmentRunStats> stats_;
};

} // namespace graphabcd

#endif // GRAPHABCD_FRAGMENT_ENGINE_HH
