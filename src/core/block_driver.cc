#include "core/block_driver.hh"

#include <algorithm>

namespace graphabcd {

BlockDriver::BlockDriver(const BlockPartition &g, const EngineOptions &opt,
                         const DriverConfig &config)
    : graph(g), options(opt), cfg(config),
      n(std::max<double>(g.numVertices(), 1.0)),
      maxUpdates(updateBudget(opt.maxEpochs, n)),
      slots(config.units ? config.units : g.numBlocks()),
      conv(opt.convergence, opt.traceInterval),
      gasHist(obs::histogram(config.gasHistogram,
                             obs::latencyBucketsUs())),
      fanoutHist(obs::histogram(config.fanoutHistogram,
                                obs::fanoutBuckets()))
{
    if (config.stalenessHistogram) {
        staleHist = &obs::histogram(config.stalenessHistogram,
                                    obs::stalenessBuckets());
    }
    if (config.depthGauge)
        depth = &obs::gauge(config.depthGauge);
}

// ---- ctl must be held by callers of the *Locked helpers ----

void
BlockDriver::refillLocked()
{
    if (!halted && options.stop.stopRequested())
        halted = true;
    while (!halted && window.size() < cfg.window) {
        if (vertexUpdates.load(std::memory_order_relaxed) >= maxUpdates) {
            halted = true;
            break;
        }
        std::optional<BlockId> b = sched->next();
        if (!b)
            break;
        BlockSlot &slot = slots[*b];
        if (slot.held) {
            // One holder per block: hand the activation back when the
            // holder commits, with the weight the scheduler consumed.
            slot.parked = true;
            slot.parkedPriority += sched->lastPriority();
            continue;
        }
        if (slot.windowed)
            continue;   // its pending claim reads the new inputs
        slot.windowed = true;
        std::uint64_t stamp = 0;
        if constexpr (obs::kEnabled) {
            if (staleHist)
                stamp = blockUpdates.load(std::memory_order_relaxed);
        }
        window.push_back({*b, stamp});
    }
    if (halted && !window.empty()) {
        // A halted run drops (not processes) dispatched work, so an
        // empty scheduler no longer implies quiescence.
        droppedWork = true;
        for (const WorkItem &item : window)
            slots[item.block].windowed = false;
        window.clear();
    }
    if (depth)
        depth->set(static_cast<double>(window.size()));
}

std::optional<BlockDriver::WorkItem>
BlockDriver::claimLocked()
{
    if (window.empty())
        return std::nullopt;
    const WorkItem item = window.front();
    window.pop_front();
    BlockSlot &slot = slots[item.block];
    slot.windowed = false;
    slot.held = true;
    if constexpr (obs::kEnabled) {
        // Measured inside the locked claim, the FIFO bound is exact:
        // only items claimed before this one can have committed.
        if (staleHist) {
            staleHist->record(static_cast<double>(
                blockUpdates.load(std::memory_order_relaxed) -
                item.stamp));
        }
        if (depth)
            depth->set(static_cast<double>(window.size()));
    }
    return item;
}

void
BlockDriver::spawnLocked()
{
    const std::size_t free_slots =
        cfg.participation > pumps ? cfg.participation - pumps : 0;
    std::size_t want = std::min<std::size_t>(
        free_slots, window.size() + sched->activeCount());
    for (; want > 0; want--) {
        pumps++;
        if (callerIdle) {
            // The calling thread is parked in run(): hand it the slot.
            callerIdle = false;
            callerCv.notify_one();
        } else {
            job->submit(pumpTask);
        }
    }
}

void
BlockDriver::leaveLocked()
{
    if (--pumps == 0)
        callerCv.notify_one();
}

void
BlockDriver::commitLocked(BlockId b, ActivationSink &sink,
                          const BlockWork &work)
{
    for (std::size_t i = 0; i < sink.count_; i++)
        sched->activate(sink.batch_[i].first, sink.batch_[i].second);
    sink.count_ = 0;
    BlockSlot &slot = slots[b];
    slot.held = false;
    if (slot.parked) {
        sched->activate(b, slot.parkedPriority);
        slot.parked = false;
        slot.parkedPriority = 0.0;
    }
    if constexpr (obs::kEnabled) {
        conv.add(work.l1, work.active);
        const std::uint64_t updates =
            vertexUpdates.load(std::memory_order_relaxed);
        conv.maybeSample(static_cast<double>(updates) / n, updates,
                         edgeTraversals.load(std::memory_order_relaxed),
                         timer);
    }
}

void
BlockDriver::pump(bool allow_requeue)
{
    LayoutScratch scratch;   // per-participant decode buffers
    ActivationSink sink(*sched);
    std::uint32_t done = 0;
    std::optional<WorkItem> cur;
    {
        std::lock_guard<std::mutex> lock(ctl);
        refillLocked();
        cur = claimLocked();
        if (!cur) {
            leaveLocked();
            return;
        }
    }
    for (;;) {
        const BlockId b = cur->block;
        BlockWork work;
        try {
            obs::ScopedLatency lat(gasHist);
            work = process_(b, scratch, sink);
        } catch (...) {
            // A failing step (a program bug) halts the run; run()
            // rethrows it once every participant has left.
            std::lock_guard<std::mutex> lock(ctl);
            if (!failure)
                failure = std::current_exception();
            halted = true;
            refillLocked();   // drops the window: never "converged"
            leaveLocked();
            return;
        }
        fanoutHist.record(static_cast<double>(work.scatters));
        vertexUpdates.fetch_add(work.vertices, std::memory_order_relaxed);
        blockUpdates.fetch_add(work.blocks, std::memory_order_relaxed);
        edgeTraversals.fetch_add(work.edges, std::memory_order_relaxed);
        scatterWrites.fetch_add(work.scatters, std::memory_order_relaxed);
        if (options.progress) {
            options.progress->accumulate(work.vertices, work.blocks,
                                         work.edges, work.scatters);
        }
        done++;
        bool requeue = false;
        {
            std::lock_guard<std::mutex> lock(ctl);
            commitLocked(b, sink, work);
            refillLocked();
            if (allow_requeue && done >= kQuantum && !window.empty()) {
                // Keep pumps: the requeued task inherits this slot.
                requeue = true;
            } else {
                cur = claimLocked();
                if (cur)
                    spawnLocked();
                else
                    leaveLocked();
            }
        }
        if (requeue) {
            job->submit(pumpTask);
            return;
        }
        if (!cur)
            return;
    }
}

EngineReport
BlockDriver::run(Process process)
{
    // Root span of this engine run; under the serve layer it nests into
    // the submitting job's causal tree.
    obs::Span run_span(cfg.runSpan);
    process_ = std::move(process);
    const auto units = static_cast<BlockId>(slots.size());
    sched = makeScheduler(options.schedule, units, cfg.participation);
    for (BlockId u = 0; u < units; u++)
        sched->activate(u, initialActivationPriority());
    exec = Executor::orShared(options.executor);
    job = exec->createJob(cfg.participation);
    pumpTask = [this] { pump(/*allow_requeue=*/true); };

    {
        std::lock_guard<std::mutex> lock(ctl);
        pumps = 1;   // the calling thread participates
        refillLocked();
        spawnLocked();
    }
    pump(/*allow_requeue=*/false);
    {
        // The calling thread belongs to this run: rather than sleep in
        // job->wait(), it parks until a commit hands it a slot again.
        // Else a run whose few units are all briefly held goes on with
        // pool participants alone, one fewer than its participation
        // on a pool of nproc - 1 workers.
        std::unique_lock<std::mutex> lock(ctl);
        while (pumps > 0) {
            callerIdle = true;
            callerCv.wait(lock,
                          [this] { return !callerIdle || pumps == 0; });
            if (!callerIdle) {
                lock.unlock();
                pump(/*allow_requeue=*/false);
                lock.lock();
            }
        }
        callerIdle = false;
    }
    job->wait();   // all pool participants drained
    if (failure)
        std::rethrow_exception(failure);

    // No lock needed below: job->wait() ordered every participant (and
    // all of its activations) before this point.
    EngineReport report;
    report.stopped = options.stop.stopRequested();
    report.vertexUpdates = vertexUpdates.load();
    report.blockUpdates = blockUpdates.load();
    report.edgeTraversals = edgeTraversals.load();
    report.scatterWrites = scatterWrites.load();
    report.epochs = static_cast<double>(report.vertexUpdates) / n;
    report.converged = !report.stopped && !droppedWork && sched->empty();
    report.residual = conv.finish(report.epochs, report.vertexUpdates,
                                  report.edgeTraversals, timer);
    // A scheduler over fragments dispatches pumps; it makes no block
    // activations, so only a block scheduler's counters are published.
    if (cfg.units == 0)
        flushSchedulerCounters(*sched);
    return report;
}

} // namespace graphabcd
