#include "runtime/executor.hh"

#include "obs/log.hh"
#include "obs/obs.hh"

namespace graphabcd {

namespace {

/** Resolved once per process (registration takes a mutex); the gauge
 *  tracks the instantaneous cross-shard queue depth. */
[[maybe_unused]] obs::Gauge &
queuedGauge()
{
    static obs::Gauge &gauge = obs::gauge("executor.queued");
    return gauge;
}

/**
 * The job and adopted span context of the task this worker runs.  A
 * task that submits into its own job is requeueing itself; the new task
 * gets the context the running one was submitted under, so a requeue
 * chain stays one level of siblings in the trace instead of nesting one
 * level deeper per requeue.
 */
thread_local const void *runningJob = nullptr;
thread_local obs::SpanContext runningCtx;

} // namespace

// ------------------------------------------------------------- Executor

Executor::Executor(std::uint32_t num_workers)
{
    std::uint32_t n = num_workers;
    if (n == 0) {
        n = std::max(1u, std::thread::hardware_concurrency());
    }
    shards.reserve(n);
    for (std::uint32_t i = 0; i < n; i++)
        shards.push_back(std::make_unique<Shard>());
    workers.reserve(n);
    for (std::uint32_t i = 0; i < n; i++)
        workers.emplace_back([this, i] { workerLoop(i); });
    GRAPHABCD_LOG_INFO("runtime", "executor started",
                       LOGF("workers", n));
}

Executor::~Executor()
{
    {
        std::lock_guard<std::mutex> lock(sleepMtx);
        stopping = true;
    }
    sleepCv.notify_all();
    for (std::thread &t : workers)
        t.join();
}

const std::shared_ptr<Executor> &
Executor::shared()
{
    // One pool per process, sized to the hardware.  Function-local so
    // the first engine run constructs it; destroyed (drained + joined)
    // at static teardown, after any engine holding a reference.
    static const std::shared_ptr<Executor> instance =
        std::make_shared<Executor>();
    return instance;
}

std::shared_ptr<Executor::Job>
Executor::createJob(std::uint32_t max_participation)
{
    // make_shared needs a public ctor; Job's is private to keep the
    // invariant that every Job belongs to an Executor.
    return std::shared_ptr<Job>(new Job(*this, max_participation));
}

Executor::Stats
Executor::stats() const
{
    Stats s;
    s.executed = nExecuted.load(std::memory_order_relaxed);
    s.steals = nSteals.load(std::memory_order_relaxed);
    return s;
}

void
Executor::enqueue(Task task)
{
    {
        const std::size_t shard =
            rr.fetch_add(1, std::memory_order_relaxed) % shards.size();
        std::lock_guard<std::mutex> lock(shards[shard]->mtx);
        shards[shard]->queue.push_back(std::move(task));
    }
    queued.fetch_add(1, std::memory_order_release);
    if constexpr (obs::kEnabled)
        queuedGauge().set(static_cast<double>(
            queued.load(std::memory_order_relaxed)));
    // The empty critical section orders the queued increment against a
    // worker's predicate check, so the notify cannot be lost.
    { std::lock_guard<std::mutex> lock(sleepMtx); }
    sleepCv.notify_one();
}

bool
Executor::tryTake(std::uint32_t self, Task &out, bool &stolen)
{
    // Own shard first (FIFO), then sweep the others as a thief,
    // starting just past our own so thieves fan out instead of all
    // hammering shard 0.
    {
        Shard &own = *shards[self];
        std::lock_guard<std::mutex> lock(own.mtx);
        if (!own.queue.empty()) {
            out = std::move(own.queue.front());
            own.queue.pop_front();
            stolen = false;
            return true;
        }
    }
    const std::size_t n = shards.size();
    for (std::size_t i = 1; i < n; i++) {
        Shard &victim = *shards[(self + i) % n];
        std::lock_guard<std::mutex> lock(victim.mtx);
        if (!victim.queue.empty()) {
            out = std::move(victim.queue.back());
            victim.queue.pop_back();
            stolen = true;
            return true;
        }
    }
    return false;
}

void
Executor::workerLoop(std::uint32_t self)
{
    for (;;) {
        Task task;
        bool stolen = false;
        if (tryTake(self, task, stolen)) {
            queued.fetch_sub(1, std::memory_order_acq_rel);
            if constexpr (obs::kEnabled)
                queuedGauge().set(static_cast<double>(
                    queued.load(std::memory_order_relaxed)));
            if (stolen)
                nSteals.fetch_add(1, std::memory_order_relaxed);
            {
                // Adopt the submitter's span context for the task's
                // duration, and wrap the task itself in a span so the
                // per-task slice shows up under the submitting job's
                // tree.  Both are no-ops while tracing is off.
                obs::SpanScope adopt(task.ctx);
                obs::CausalSpan span("executor.task");
                runningJob = task.job.get();
                runningCtx = task.ctx;
                task.fn();
                runningJob = nullptr;
            }
            nExecuted.fetch_add(1, std::memory_order_relaxed);
            finishTask(task.job);
            continue;
        }
        std::unique_lock<std::mutex> lock(sleepMtx);
        if (stopping && queued.load(std::memory_order_acquire) == 0)
            return;   // drained: nothing left to run, ever
        sleepCv.wait(lock, [this] {
            return stopping || queued.load(std::memory_order_acquire) > 0;
        });
        if (stopping && queued.load(std::memory_order_acquire) == 0)
            return;
    }
}

void
Executor::finishTask(const std::shared_ptr<Job> &job)
{
    Job::Pending next;
    bool have_next = false;
    bool idle = false;
    {
        std::lock_guard<std::mutex> lock(job->mtx);
        job->released--;
        job->unfinished--;
        if (!job->backlog.empty() && job->released < job->limit) {
            next = std::move(job->backlog.front());
            job->backlog.pop_front();
            job->released++;
            have_next = true;
        }
        idle = job->unfinished == 0;
    }
    if (have_next)
        enqueue(Task{std::move(next.fn), job, next.ctx});
    if (idle)
        job->idleCv.notify_all();
}

// ------------------------------------------------------------ Executor::Job

void
Executor::Job::submit(std::function<void()> fn)
{
    // Capture the submitter's ambient span context here, not at
    // release time: a backlogged task still belongs to the tree of
    // whoever submitted it, no matter which worker later frees a slot.
    // A requeue inherits its predecessor's context (see runningJob).
    const obs::SpanContext ctx =
        runningJob == this ? runningCtx : obs::currentSpan();
    bool release = false;
    {
        std::lock_guard<std::mutex> lock(mtx);
        unfinished++;
        if (released < limit) {
            released++;
            release = true;
        } else {
            backlog.push_back(Pending{std::move(fn), ctx});
        }
    }
    if (release)
        exec.enqueue(Task{std::move(fn), shared_from_this(), ctx});
}

void
Executor::Job::wait()
{
    std::unique_lock<std::mutex> lock(mtx);
    idleCv.wait(lock, [this] { return unfinished == 0; });
}

std::size_t
Executor::Job::pending() const
{
    std::lock_guard<std::mutex> lock(mtx);
    return unfinished;
}

} // namespace graphabcd
