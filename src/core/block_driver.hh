/**
 * @file
 * BlockDriver — the one dispatch loop behind the threaded BCD engines.
 *
 * The engines differ only in what they do to one dispatch unit.  A unit
 * is a block, except for FragmentEngine, whose unit is a fragment:
 *
 *  - AsyncEngine: a state-based commit (BcdState::step, gather-apply-
 *    scatter over shared edge values);
 *  - AccumEngine: an accumulator fold (AccumState::processVertex);
 *  - FragmentEngine: a fragment pump (drain the incoming delta rings,
 *    process a bounded number of the shard's blocks, flush outboxes).
 *
 * Everything around that step is this driver's:
 *
 *   claim -> process -> commit -> account -> requeue
 *
 *  - claim: refill a bounded dispatch window (FIFO) from the scheduler
 *    and take its head, under one control lock;
 *  - process: the policy's step, without the lock, on per-participant
 *    scratch; activations go to an ActivationSink;
 *  - commit: under the lock, apply the batched activations, release the
 *    unit, and sample the convergence window;
 *  - account: work counters, Progress, histograms;
 *  - requeue: a pool task hands its slot back after kQuantum units so
 *    concurrent runs interleave on a shared Executor.
 *
 * One holder per unit.  A unit is dispatched to at most one participant
 * at a time.  A unit the scheduler yields while it already sits in the
 * window is dropped: its claim comes later and reads the new inputs.  A
 * unit yielded while a participant holds it is parked and re-activated,
 * with the priority the scheduler consumed, when the holder commits.
 * So every activation is followed by a claim that starts after it was
 * committed.  A state-based commit needs the rule: two holders of one
 * block each store whole values, and the older one can land last and
 * overwrite a newer value.  Accumulator folds would survive two holders
 * (every delta is in exactly one accumulator), so for them the rule
 * only avoids duplicate work.  A fragment pump needs it to keep its
 * shard state plain and each delta ring single-producer,
 * single-consumer.
 *
 * Threading: the driver spawns nothing.  It opens an Executor::Job with
 * the configured participation, and the calling thread pumps units
 * alongside the pool tasks, so a run progresses even on a saturated
 * pool.  When the caller finds nothing to claim it parks (no spinning)
 * until a commit hands it a participant slot again, and leaves when
 * the last participant does.  StopToken and the maxEpochs budget halt
 * the run; a halt that drops dispatched units never reports
 * convergence.  A process step that throws halts the run too, and
 * run() rethrows the exception on the calling thread once every
 * participant has left.
 */

#ifndef GRAPHABCD_CORE_BLOCK_DRIVER_HH
#define GRAPHABCD_CORE_BLOCK_DRIVER_HH

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "core/convergence_window.hh"
#include "core/engine.hh"
#include "core/options.hh"
#include "core/scheduler.hh"
#include "core/state.hh"
#include "graph/partition.hh"
#include "obs/obs.hh"
#include "runtime/executor.hh"
#include "support/timer.hh"

namespace graphabcd {

/**
 * Where a process step sends unit activations.  A concurrent-push
 * scheduler (OBIM) takes them at once; the serialized schedulers get
 * them batched at the locked commit.
 */
class ActivationSink
{
  public:
    explicit ActivationSink(BlockScheduler &sched)
        : sched_(sched), direct_(sched.concurrentPush())
    {
    }

    // Runs once per scattered edge, so it is forced inline and keeps
    // its own growth check: left to the inliner, large translation
    // units called it (or vector::emplace_back) out of line, which
    // cost about a tenth of a PageRank solve.
    [[gnu::always_inline]] void
    push(BlockId b, double priority)
    {
        if (direct_) {
            sched_.activate(b, priority);
            return;
        }
        if (count_ == batch_.size())
            batch_.resize(std::max<std::size_t>(64, 2 * count_));
        batch_[count_++] = {b, priority};
    }

  private:
    friend class BlockDriver;

    BlockScheduler &sched_;
    const bool direct_;
    std::vector<std::pair<BlockId, double>> batch_;
    std::size_t count_ = 0;   //!< live prefix of batch_
};

/** Dispatch shape and instrument names of one policy. */
struct DriverConfig
{
    BlockId units = 0;                //!< dispatch units; 0 = numBlocks()
    std::uint32_t participation = 1;  //!< caller + pool participants
    std::size_t window = 1;           //!< dispatch FIFO capacity
    // String literals: the trace recorder keeps the span pointer.
    const char *runSpan = "";
    const char *gasHistogram = "";
    const char *fanoutHistogram = "";
    /** Staleness histogram and window-depth gauge; null = unmeasured. */
    const char *stalenessHistogram = nullptr;
    const char *depthGauge = nullptr;
};

/**
 * The shared dispatch loop.  One driver runs one engine run: construct,
 * call run() once.
 */
class BlockDriver
{
  public:
    /** The policy's process step: unit, per-participant scratch,
     *  activation sink.  Runs concurrently, never on one unit twice. */
    using Process =
        std::function<BlockWork(BlockId, LayoutScratch &, ActivationSink &)>;

    /** Units a pool task processes before requeueing itself. */
    static constexpr std::uint32_t kQuantum = 32;

    BlockDriver(const BlockPartition &g, const EngineOptions &opt,
                const DriverConfig &cfg);

    // Pool tasks hold `this`.
    BlockDriver(const BlockDriver &) = delete;
    BlockDriver &operator=(const BlockDriver &) = delete;

    /**
     * Seed every unit, pump to quiescence or a halt, and report.
     * @throws whatever a process step threw, after the run has halted.
     */
    EngineReport run(Process process);

    /** @return blocks processed so far (a relaxed, racy clock). */
    std::uint64_t
    blocksProcessed() const
    {
        return blockUpdates.load(std::memory_order_relaxed);
    }

  private:
    /** Dispatch state of a unit; all fields guarded by ctl. */
    struct BlockSlot
    {
        bool windowed = false;      //!< in the FIFO, not yet claimed
        bool held = false;          //!< claimed, not yet committed
        bool parked = false;        //!< yielded while held
        double parkedPriority = 0.0;
    };

    struct WorkItem
    {
        BlockId block;
        std::uint64_t stamp;  //!< blockUpdates at FIFO entry
    };

    void refillLocked();
    std::optional<WorkItem> claimLocked();
    void spawnLocked();
    void leaveLocked();
    void commitLocked(BlockId b, ActivationSink &sink,
                      const BlockWork &work);
    void pump(bool allow_requeue);

    const BlockPartition &graph;
    const EngineOptions &options;
    const DriverConfig cfg;
    const double n;
    const std::uint64_t maxUpdates;
    Timer timer;

    Process process_;
    std::unique_ptr<BlockScheduler> sched;
    std::shared_ptr<Executor> exec;
    std::shared_ptr<Executor::Job> job;
    std::function<void()> pumpTask;

    // Control state: every participant takes ctl once per block.
    std::mutex ctl;
    std::deque<WorkItem> window;
    std::vector<BlockSlot> slots;
    std::uint32_t pumps = 0;     //!< live participants
    bool callerIdle = false;     //!< caller parked in run(), no slot
    std::condition_variable callerCv;
    bool halted = false;         //!< stop token or budget
    bool droppedWork = false;    //!< a halt discarded window items
    std::exception_ptr failure;  //!< first exception of a process step
    ConvergenceWindow conv;

    std::atomic<std::uint64_t> vertexUpdates{0};
    std::atomic<std::uint64_t> blockUpdates{0};
    std::atomic<std::uint64_t> edgeTraversals{0};
    std::atomic<std::uint64_t> scatterWrites{0};

    obs::Histogram &gasHist;
    obs::Histogram &fanoutHist;
    obs::Histogram *staleHist = nullptr;
    obs::Gauge *depth = nullptr;
};

} // namespace graphabcd

#endif // GRAPHABCD_CORE_BLOCK_DRIVER_HH
