/**
 * @file
 * Block selection (scheduling) strategies — paper Sec. III-B / IV-B.
 *
 * A scheduler owns the active list: blocks become active when SCATTER
 * writes changed values into their edge slice, and inactive when picked
 * for processing.  The algorithm terminates when no block is active
 * (the Termination Unit's check in Fig. 2, step 1).
 *
 * PriorityScheduler implements the Gauss-Southwell rule with the paper's
 * approximation: a block's priority is the L1 norm of the value changes
 * recently scattered into it (an estimate of its gradient magnitude),
 * cheap to maintain and reset when the block is processed.
 *
 * ObimScheduler implements the same rule with Galois/Katana's OBIM
 * (ordered-by-integer-metric) structure: priorities are bucketed into
 * logarithmic levels, each level is a FIFO of fixed-size chunks filled
 * through per-worker slots, and activate() is safe to call concurrently
 * — which lets the accumulative engine push from SCATTER hooks without
 * holding the control lock.  next() publishes the caller's own open
 * chunk before selecting a level, so a consumer never pops a weaker
 * level while its own stronger activations sit unpublished (with one
 * consumer this makes processing strictly level-ordered).
 *
 * Concurrency contract
 * --------------------
 * Unless concurrentPush() returns true, a scheduler is *fully
 * serialized*: the engine's control lock (or a single-threaded run
 * loop) must cover every call.  PriorityScheduler in particular relies
 * on this — next() identifies a block's live heap entry by comparing
 * the popped key against pushedPrio[b], and an activate() interleaved
 * between the pop and the compare could retag the live entry and make
 * next() discard the only entry of an active block (breaking the
 * "active blocks missing from the heap" invariant).  Under the
 * serialized contract that interleaving cannot happen; the audit test
 * in tests/test_scheduler.cc pins the invariant.
 *
 * When concurrentPush() returns true (ObimScheduler), activate() may be
 * called from any thread at any time, but next() / activeCount() /
 * counters() remain single-consumer: at most one thread calls them at a
 * time (the engine already guarantees this by claiming under its
 * control lock).  A next() that returns nullopt while a concurrent
 * activate() is mid-flight may miss that block; engines must therefore
 * only treat "empty" as quiescence once in-flight work has drained
 * (the same inflight==0 test they already apply).
 */

#ifndef GRAPHABCD_CORE_SCHEDULER_HH
#define GRAPHABCD_CORE_SCHEDULER_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "core/options.hh"
#include "graph/types.hh"
#include "obs/obs.hh"

namespace graphabcd {

/**
 * Cumulative work counters a scheduler maintains over its lifetime.
 * Plain (non-atomic) fields: every scheduler call already happens under
 * the engine's control lock.  heapPushes / staleDiscards / refreshes
 * measure heap churn and are only meaningful for PriorityScheduler.
 */
struct SchedulerCounters
{
    std::uint64_t activations = 0;   //!< activate() calls
    std::uint64_t heapPushes = 0;    //!< entries pushed into the heap
    std::uint64_t staleDiscards = 0; //!< lazy-deleted entries seen by next()
    std::uint64_t refreshes = 0;     //!< re-pushes of already-active blocks
};

/**
 * Abstract block scheduler.  All implementations are deterministic given
 * the same activation sequence.
 */
class BlockScheduler
{
  public:
    virtual ~BlockScheduler() = default;

    /**
     * Record that block `b` received updated inputs.
     * @param priority_delta estimated gradient-magnitude increase (L1 of
     *        the incoming value changes); ignored by order-based rules.
     */
    virtual void activate(BlockId b, double priority_delta) = 0;

    /**
     * Pick the next block to process and mark it inactive.
     * @return std::nullopt when no block is active (quiescence).
     */
    virtual std::optional<BlockId> next() = 0;

    /** @return number of active blocks. */
    virtual std::size_t activeCount() const = 0;

    /** @return whether no block is active. */
    bool empty() const { return activeCount() == 0; }

    /** @return current priority estimate of block b (0 if unsupported). */
    virtual double priority(BlockId) const { return 0.0; }

    /**
     * @return the priority estimate the last next() consumed (0 for the
     * order-based rules), so a caller that cannot process the block yet
     * can hand it back through activate() without losing its weight.
     */
    double lastPriority() const { return popped; }

    /** @return cumulative work counters (heap fields 0 if heapless). */
    virtual const SchedulerCounters &counters() const { return stats; }

    /**
     * @return whether activate() is safe to call concurrently with
     * other activate() calls and with one next() consumer (see the
     * concurrency contract in the file comment).  False means every
     * call must be serialized by the caller.
     */
    virtual bool concurrentPush() const { return false; }

    /** @return the strategy this scheduler implements. */
    virtual Schedule kind() const = 0;

  protected:
    SchedulerCounters stats;
    double popped = 0.0;   //!< priority consumed by the last next()
};

/**
 * Cyclic selection: repeatedly sweeps the block id space in fixed order,
 * skipping inactive blocks.  Predictable access pattern (prefetchable).
 */
class CyclicScheduler : public BlockScheduler
{
  public:
    explicit CyclicScheduler(BlockId num_blocks);

    void activate(BlockId b, double priority_delta) override;
    std::optional<BlockId> next() override;
    std::size_t activeCount() const override { return nActive; }
    Schedule kind() const override { return Schedule::Cyclic; }

  private:
    std::vector<char> active;
    BlockId cursor = 0;
    std::size_t nActive = 0;
};

/**
 * Gauss-Southwell priority selection: argmax of the maintained gradient
 * estimates.  Max-heap with lazy deletion; stale heap entries are skipped
 * on pop, so activate() is O(log B) and next() is amortised O(log B).
 *
 * Serialized-only (concurrentPush() == false): next() tells a block's
 * live heap entry from its stale duplicates by key comparison against
 * pushedPrio, which is sound under the file-level concurrency contract
 * (all calls serialized) but not against interleaved activate() calls.
 * Duplicate *keys* are fine — two entries of one block pushed at equal
 * priorities are interchangeable, and whichever pops second fails the
 * active[] check.  The audit test in tests/test_scheduler.cc checks the
 * invariants (every pop is an active max-priority block; a drain
 * matches a reference model exactly).
 */
class PriorityScheduler : public BlockScheduler
{
  public:
    explicit PriorityScheduler(BlockId num_blocks);

    void activate(BlockId b, double priority_delta) override;
    std::optional<BlockId> next() override;
    std::size_t activeCount() const override { return nActive; }
    double priority(BlockId b) const override { return prio[b]; }
    Schedule kind() const override { return Schedule::Priority; }

  private:
    struct HeapEntry
    {
        double priority;
        BlockId block;

        bool
        operator<(const HeapEntry &other) const
        {
            // std::priority_queue is a max-heap on operator<.
            return priority < other.priority;
        }
    };

    std::vector<double> prio;
    std::vector<double> pushedPrio;   //!< key of the live heap entry
    std::vector<char> active;
    std::vector<HeapEntry> heap;   //!< std::*_heap managed
    std::size_t nActive = 0;
};

/**
 * OBIM (ordered-by-integer-metric) worklist, after Galois/Katana.
 * Approximate Gauss-Southwell at concurrent-push cost:
 *
 *  - a block's accumulated |delta| L1 is mapped by its binary exponent
 *    onto one of 64 logarithmic levels (level 0 = largest priorities),
 *    and a 64-bit occupancy mask lets next() find the best non-empty
 *    level with one countr_zero;
 *  - within a level, blocks sit in a FIFO of fixed-size chunks; pushes
 *    go through per-worker slots (each worker fills a private open
 *    chunk and publishes it when full or when its level changes), so
 *    concurrent activate() calls mostly touch thread-local state plus
 *    one per-block atomic flag;
 *  - a per-block queued flag (exchange) dedups activations; when an
 *    activation raises a block to a strictly better level, a duplicate
 *    entry is pushed and the stale one is discarded on pop (counted in
 *    staleDiscards, like the heap's lazy deletion).
 *
 * Ordering is approximate (per paper Sec. III-B the selection rule only
 * needs to be *biased* toward large gradients): levels are exact,
 * order within a level is chunked FIFO.
 *
 * activate() is thread-safe (concurrentPush() == true); next(),
 * activeCount(), priority() and counters() are single-consumer.
 */
class ObimScheduler : public BlockScheduler
{
  public:
    /**
     * @param num_workers sizing hint for the push-side slot array
     *        (contention, not correctness: more slots = fewer collisions
     *        between concurrently pushing threads).
     */
    ObimScheduler(BlockId num_blocks, std::uint32_t num_workers);

    void activate(BlockId b, double priority_delta) override;
    std::optional<BlockId> next() override;
    std::size_t activeCount() const override;
    double priority(BlockId b) const override;
    const SchedulerCounters &counters() const override;
    bool concurrentPush() const override { return true; }
    Schedule kind() const override { return Schedule::Obim; }

    /** Level a priority maps to (public: pinned by unit tests). */
    static int levelOf(double priority);

    static constexpr int kLevels = 64;
    static constexpr std::uint32_t kChunkSize = 16;

  private:
    struct Chunk
    {
        std::array<BlockId, kChunkSize> items;
        std::uint32_t head = 0;   //!< next index to pop
        std::uint32_t count = 0;  //!< next index to fill
    };

    struct Level
    {
        std::mutex m;
        std::deque<Chunk> chunks;   //!< published, FIFO order
    };

    /** Push-side slot: one open chunk a worker is filling. */
    struct Slot
    {
        std::mutex m;
        Chunk open;
        int level = -1;   //!< level of `open`, -1 when empty
    };

    std::uint32_t slotIndex() const;
    void publishChunk(Chunk &&chunk, int level);
    void pushToSlot(BlockId b, int level);
    std::optional<BlockId> popLevel(int level);
    void drainOwnSlot();
    void drainSlots();

    std::array<Level, kLevels> levels;
    std::vector<Slot> slots;
    std::atomic<std::uint64_t> occupancy{0};   //!< bit l: level l non-empty
    std::atomic<std::uint64_t> slotMask{0};    //!< bit s: slot s non-empty

    std::vector<std::atomic<double>> prio;     //!< accumulated |delta| L1
    std::vector<std::atomic<char>> queued;     //!< has a live entry
    std::vector<std::atomic<int>> queuedLevel; //!< level of the live entry
    std::atomic<std::int64_t> nQueued{0};

    obs::Histogram &popLevelHist;   //!< bucket residency of pops

    // Concurrent-push counters, folded into `snap` by counters().
    std::atomic<std::uint64_t> cActivations{0};
    std::atomic<std::uint64_t> cPushes{0};
    std::atomic<std::uint64_t> cStaleDiscards{0};
    std::atomic<std::uint64_t> cRefreshes{0};
    mutable SchedulerCounters snap;
};

/** Fold a finished run's scheduler counters into the metrics registry
 *  (scheduler.activations, .heap_pushes, .stale_discards, .refreshes). */
void flushSchedulerCounters(const BlockScheduler &sched);

/** Factory keyed by the EngineOptions schedule.
 *  @param num_workers push-side sizing hint, only used by Obim. */
std::unique_ptr<BlockScheduler> makeScheduler(Schedule schedule,
                                              BlockId num_blocks,
                                              std::uint32_t num_workers = 8);

/**
 * Initial activation priority used when every block is seeded at the
 * start of a run.  It is *equal* across blocks and far larger than any
 * gradient estimate, so the first sweep visits every block once before
 * Gauss-Southwell ordering takes over — seeding by block density
 * instead measurably hurts convergence on skewed graphs.
 */
inline double
initialActivationPriority()
{
    return 1e9;
}

} // namespace graphabcd

#endif // GRAPHABCD_CORE_SCHEDULER_HH
