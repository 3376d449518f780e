/**
 * @file
 * BlockDriver — the one block loop behind the threaded BCD engines.
 *
 * AsyncEngine and AccumEngine differ only in what they do to a block:
 * a state-based commit (BcdState::step, gather-apply-scatter over
 * shared edge values) or an accumulator fold
 * (AccumState::processVertex).  Everything around that step is this
 * driver's:
 *
 *   claim -> process -> commit -> account -> requeue
 *
 *  - claim: refill a bounded dispatch window (FIFO) from the scheduler
 *    and take its head, under one control lock;
 *  - process: the policy's step, without the lock, on per-participant
 *    scratch; activations go to an ActivationSink;
 *  - commit: under the lock, apply the batched activations, release the
 *    block, and sample the convergence window;
 *  - account: work counters, Progress, histograms;
 *  - requeue: a pool task hands its slot back after kQuantum blocks so
 *    concurrent runs interleave on a shared Executor.
 *
 * One holder per block.  A block is dispatched to at most one
 * participant at a time.  A block the scheduler yields while it already
 * sits in the window is dropped: its claim comes later and reads the
 * new inputs.  A block yielded while a participant holds it is parked
 * and re-activated, with the priority the scheduler consumed, when the
 * holder commits.  A state-based commit needs the rule: two holders of
 * one block each store whole values, and the older one can land last
 * and overwrite a newer value.  Accumulator folds would survive two
 * holders (every delta is in exactly one accumulator), so for them the
 * rule only avoids duplicate work.
 *
 * Threading: the driver spawns nothing.  It opens an Executor::Job with
 * the configured participation, and the calling thread pumps blocks
 * alongside the pool tasks, so a run progresses even on a saturated
 * pool.  StopToken and the maxEpochs budget halt the run; a halt that
 * drops dispatched blocks never reports convergence.
 */

#ifndef GRAPHABCD_CORE_BLOCK_DRIVER_HH
#define GRAPHABCD_CORE_BLOCK_DRIVER_HH

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
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
 * Where a process step sends block activations.  A concurrent-push
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
 * The shared block loop.  One driver runs one engine run: construct,
 * call run() once.
 */
class BlockDriver
{
  public:
    /** The policy's process step: block, per-participant scratch,
     *  activation sink.  Runs concurrently, never on one block twice. */
    using Process =
        std::function<BlockWork(BlockId, LayoutScratch &, ActivationSink &)>;

    /** Blocks a pool task processes before requeueing itself. */
    static constexpr std::uint32_t kQuantum = 32;

    BlockDriver(const BlockPartition &g, const EngineOptions &opt,
                const DriverConfig &cfg);

    // Pool tasks hold `this`.
    BlockDriver(const BlockDriver &) = delete;
    BlockDriver &operator=(const BlockDriver &) = delete;

    /** Seed every block, pump to quiescence or a halt, and report. */
    EngineReport run(Process process);

  private:
    /** Dispatch state of a block; all fields guarded by ctl. */
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
    bool halted = false;         //!< stop token or budget
    bool droppedWork = false;    //!< a halt discarded window items
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
