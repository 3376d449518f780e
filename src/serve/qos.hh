/**
 * @file
 * Per-tenant QoS admission — the serve layer's multi-tenant front door.
 *
 * A single bounded priority heap treats every submitter alike, so one
 * chatty client fills the queue and starves everyone else.
 * FairShareQueue keeps one FIFO *lane per tenant* (each lane internally
 * a max-priority / FIFO-within-class heap, so priority and deadline
 * semantics are preserved *within* a tenant) plus a virtual-time
 * weighted-fair picker across lanes:
 *
 *  - every lane carries a virtual clock `vtime` advanced by 1/weight
 *    per job served; pop() serves the eligible lane with the smallest
 *    vtime, so backlogged tenants receive service proportional to
 *    their configured weights no matter how unequal the offered load;
 *  - a lane activating from idle catches its clock up to the system
 *    virtual time, so sleeping does not bank credit;
 *  - per-tenant in-flight quotas (maxInFlight) make a lane ineligible
 *    while that many of its jobs are running, bounding any tenant's
 *    share of the worker pool (release() returns the slot);
 *  - deadline-aware shedding rejects at admission any job whose
 *    estimated queue wait alone (EWMA service time x jobs expected to
 *    be served first, over the worker count) would blow its deadline —
 *    the client fails fast instead of queueing doomed work;
 *  - under capacity pressure the *newest* work of the most over-share
 *    lane (largest queued/weight, counting the incoming job against
 *    its own lane) is shed first; when the submitting tenant is itself
 *    the (tied-)most over-share, nobody else should pay — the push
 *    reports Full and the flooder gets plain backpressure.
 *
 * After close() pushes fail and consumers drain the backlog (quotas
 * ignored — shutdown skips jobs anyway), then see std::nullopt.
 */

#ifndef GRAPHABCD_SERVE_QOS_HH
#define GRAPHABCD_SERVE_QOS_HH

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "obs/obs.hh"
#include "support/timer.hh"

namespace graphabcd {

/**
 * Outcome of a non-blocking dequeue.  Empty and Drained are distinct on
 * purpose: a non-blocking consumer that treats them the same spins
 * forever once the queue is closed and emptied.
 */
enum class PopStatus
{
    Ok,      //!< an item was dequeued
    Empty,   //!< nothing available right now — retrying can succeed
    Drained, //!< closed and empty — no item will ever arrive
};

/** Per-tenant fair-share parameters. */
struct TenantQos
{
    double weight = 1.0;          //!< fair-share weight (> 0)
    std::size_t maxInFlight = 0;  //!< concurrent running cap; 0 = none
    std::size_t maxQueued = 0;    //!< per-lane backlog cap; 0 = none
};

/** Sizing and policy of a FairShareQueue. */
struct QosConfig
{
    std::size_t capacity = 16;   //!< total backlog bound; 0 = unbounded
    std::uint32_t workers = 2;   //!< consumers (for the wait estimate)
    bool shedOnDeadline = true;  //!< admission-time deadline shedding

    /**
     * Seeds the EWMA of per-job service seconds used by the deadline
     * shed estimate.  0 disables shedding until the first completed
     * job reports a measurement (no evidence, no rejection).
     */
    double initialServiceSeconds = 0.0;

    TenantQos defaults;                      //!< unlisted tenants
    std::map<std::string, TenantQos> tenants; //!< per-tenant overrides
};

/** Outcome of FairShareQueue::tryPush for the *incoming* item. */
enum class AdmitOutcome
{
    Admitted,  //!< enqueued (possibly displacing another tenant's work)
    Full,      //!< backpressure: bounds hit while over share, or closed
    Shed,      //!< dropped for cause: the deadline is infeasible
};

/**
 * Parse a comma-separated tenant QoS spec of the form
 *   name:weight[:maxInFlight[:maxQueued]],...
 * e.g. "gold:4,free:1:2:8".  @return whether the spec parsed; on
 * failure *error names the offending clause and *out is untouched.
 */
bool parseTenantQosSpecs(const std::string &spec,
                         std::map<std::string, TenantQos> *out,
                         std::string *error = nullptr);

/**
 * Weighted-fair multi-lane admission queue (see file comment).
 * Blocking consumers, rejecting/shedding producers.
 */
template <typename T>
class FairShareQueue
{
  public:
    /** tryPush outcome plus any queued items displaced to make room. */
    struct Pushed
    {
        AdmitOutcome outcome = AdmitOutcome::Full;
        std::vector<T> shed;   //!< displaced victims (caller terminalises)
    };

    /** Point-in-time view of one lane (stats, TENANTS verb, tests). */
    struct LaneSnapshot
    {
        std::string tenant;
        std::size_t queued = 0;
        std::size_t running = 0;
        double weight = 1.0;
        double vtime = 0.0;
    };

    explicit FairShareQueue(QosConfig config)
        : cfg_(std::move(config)), ewmaService_(cfg_.initialServiceSeconds)
    {
    }

    FairShareQueue(const FairShareQueue &) = delete;
    FairShareQueue &operator=(const FairShareQueue &) = delete;

    /**
     * Admit an item into `tenant`'s lane, never blocking.
     * @param priority larger dequeues first within the lane.
     * @param deadline_at absolute monotonicSeconds() instant the job
     *        must have *started* by; 0 = no deadline.  Jobs whose
     *        estimated queue wait already overshoots it are Shed.
     */
    Pushed
    tryPush(T item, const std::string &tenant, double priority = 0.0,
            double deadline_at = 0.0)
    {
        Pushed out;
        {
            std::lock_guard<std::mutex> lock(mtx_);
            if (closed_)
                return out;   // Full: rejected like a saturated queue
            Lane &lane = laneForLocked(tenant);
            if (lane.qos.maxQueued != 0 &&
                lane.heap.size() >= lane.qos.maxQueued)
                return out;   // Full: per-tenant backlog bound
            if (cfg_.shedOnDeadline && deadline_at > 0.0 &&
                monotonicSeconds() + estimatedWaitLocked(lane) >=
                    deadline_at) {
                out.outcome = AdmitOutcome::Shed;
                return out;   // doomed: fail fast at admission
            }
            if (cfg_.capacity != 0 && totalQueued_ >= cfg_.capacity) {
                Lane *victim = shedVictimLocked(lane);
                if (!victim) {
                    // The submitter is itself the (tied-)most
                    // over-share tenant: plain backpressure, no other
                    // lane pays for its flood.
                    return out;   // Full
                }
                out.shed.push_back(removeNewestLocked(*victim));
            }
            // A lane activating from idle starts at the system virtual
            // time: no credit accrues while sleeping.
            if (lane.heap.empty())
                lane.vtime = std::max(lane.vtime, virtualNow_);
            Entry entry{priority, nextSeq_++, std::move(item), 0.0,
                        deadline_at};
            if constexpr (obs::kEnabled) {
                if (waitHist_)
                    entry.enqueuedAt = monotonicSeconds();
            }
            lane.heap.push_back(std::move(entry));
            std::push_heap(lane.heap.begin(), lane.heap.end());
            totalQueued_++;
            publishDepth();
            out.outcome = AdmitOutcome::Admitted;
        }
        notEmpty_.notify_one();
        return out;
    }

    /**
     * Block until an eligible lane has work or the queue is closed and
     * drained.  Serving increments the lane's in-flight count; the
     * caller must pair every successful pop with release(tenant).
     * @param tenant_out receives the served lane's tenant when non-null.
     */
    std::optional<T>
    pop(std::string *tenant_out = nullptr)
    {
        std::unique_lock<std::mutex> lock(mtx_);
        notEmpty_.wait(lock, [this] {
            return closed_ || pickLaneLocked() != lanes_.end();
        });
        auto it = pickLaneLocked();
        if (it == lanes_.end())
            return std::nullopt;   // closed and drained
        return serveLocked(it, tenant_out);
    }

    /** Non-blocking pop with closed-and-drained visibility. */
    PopStatus
    tryPop(T &out, std::string *tenant_out = nullptr)
    {
        std::lock_guard<std::mutex> lock(mtx_);
        auto it = pickLaneLocked();
        if (it == lanes_.end()) {
            if (closed_ && totalQueued_ == 0)
                return PopStatus::Drained;
            return PopStatus::Empty;
        }
        out = serveLocked(it, tenant_out);
        return PopStatus::Ok;
    }

    /** A running job of `tenant` finished: return its in-flight slot. */
    void
    release(const std::string &tenant)
    {
        {
            std::lock_guard<std::mutex> lock(mtx_);
            auto it = lanes_.find(tenant);
            if (it != lanes_.end() && it->second.running > 0)
                it->second.running--;
        }
        notEmpty_.notify_all();   // a quota-blocked lane may be eligible
    }

    /** Feed the deadline-shed estimate with a measured run duration. */
    void
    recordServiceSeconds(double seconds)
    {
        if (seconds < 0.0)
            return;
        std::lock_guard<std::mutex> lock(mtx_);
        ewmaService_ = ewmaService_ <= 0.0
                           ? seconds
                           : 0.8 * ewmaService_ + 0.2 * seconds;
    }

    /** Current EWMA of per-job service seconds (0 = no evidence yet). */
    double
    serviceEstimateSeconds() const
    {
        std::lock_guard<std::mutex> lock(mtx_);
        return ewmaService_;
    }

    /** Estimated queue wait a new `tenant` job would see now. */
    double
    estimatedWaitSeconds(const std::string &tenant)
    {
        std::lock_guard<std::mutex> lock(mtx_);
        return estimatedWaitLocked(laneForLocked(tenant));
    }

    /** Reject subsequent pushes; consumers drain then see nullopt. */
    void
    close()
    {
        {
            std::lock_guard<std::mutex> lock(mtx_);
            closed_ = true;
        }
        notEmpty_.notify_all();
    }

    /** @return total backlog across all lanes (racy, for stats only). */
    std::size_t
    size() const
    {
        std::lock_guard<std::mutex> lock(mtx_);
        return totalQueued_;
    }

    /** @return whether close() has been called. */
    bool
    isClosed() const
    {
        std::lock_guard<std::mutex> lock(mtx_);
        return closed_;
    }

    /** @return configured total capacity (0 = unbounded). */
    std::size_t capacity() const { return cfg_.capacity; }

    /** One snapshot row per lane ever seen, sorted by tenant. */
    std::vector<LaneSnapshot>
    lanes() const
    {
        std::lock_guard<std::mutex> lock(mtx_);
        std::vector<LaneSnapshot> out;
        out.reserve(lanes_.size());
        for (const auto &[tenant, lane] : lanes_) {
            out.push_back({tenant, lane.heap.size(), lane.running,
                           lane.qos.weight, lane.vtime});
        }
        return out;
    }

    /** Publish total backlog depth into `g` on every push/pop. */
    void
    attachDepthGauge(obs::Gauge *g)
    {
        std::lock_guard<std::mutex> lock(mtx_);
        depthGauge_ = g;
    }

    /** Record each item's queueing delay (microseconds) into `h`. */
    void
    attachWaitHistogram(obs::Histogram *h)
    {
        std::lock_guard<std::mutex> lock(mtx_);
        waitHist_ = h;
    }

  private:
    struct Entry
    {
        double priority;
        std::uint64_t seq;
        T item;
        double enqueuedAt;   //!< monotonicSeconds(); 0 when untimed
        double deadlineAt;   //!< absolute start-by instant; 0 = none

        bool
        operator<(const Entry &other) const
        {
            // Max-heap on priority; FIFO (smaller seq first) within a
            // priority class — identical to AdmissionQueue.
            if (priority != other.priority)
                return priority < other.priority;
            return seq > other.seq;
        }
    };

    struct Lane
    {
        TenantQos qos;
        std::vector<Entry> heap;   //!< std::*_heap managed
        std::size_t running = 0;   //!< popped, not yet release()d
        double vtime = 0.0;        //!< normalised service received
    };

    using LaneMap = std::map<std::string, Lane>;

    static double
    weightOf(const Lane &lane)
    {
        return std::max(lane.qos.weight, 1e-9);
    }

    Lane &
    laneForLocked(const std::string &tenant)
    {
        auto it = lanes_.find(tenant);
        if (it != lanes_.end())
            return it->second;
        Lane lane;
        auto cfg_it = cfg_.tenants.find(tenant);
        lane.qos =
            cfg_it != cfg_.tenants.end() ? cfg_it->second : cfg_.defaults;
        return lanes_.emplace(tenant, std::move(lane)).first->second;
    }

    bool
    eligibleLocked(const Lane &lane) const
    {
        if (lane.heap.empty())
            return false;
        // Quotas gate scheduling, not shutdown: a closed queue drains
        // regardless so workers can skip the cancelled backlog.
        if (!closed_ && lane.qos.maxInFlight != 0 &&
            lane.running >= lane.qos.maxInFlight)
            return false;
        return true;
    }

    /** The eligible lane with the smallest virtual time (ties: map
     *  order, deterministic); end() when none is eligible. */
    typename LaneMap::iterator
    pickLaneLocked()
    {
        auto best = lanes_.end();
        for (auto it = lanes_.begin(); it != lanes_.end(); ++it) {
            if (!eligibleLocked(it->second))
                continue;
            if (best == lanes_.end() ||
                it->second.vtime < best->second.vtime)
                best = it;
        }
        return best;
    }

    /** Serve the chosen lane's best entry (caller holds mtx_). */
    T
    serveLocked(typename LaneMap::iterator it, std::string *tenant_out)
    {
        Lane &lane = it->second;
        virtualNow_ = std::max(virtualNow_, lane.vtime);
        lane.vtime += 1.0 / weightOf(lane);
        std::pop_heap(lane.heap.begin(), lane.heap.end());
        Entry entry = std::move(lane.heap.back());
        lane.heap.pop_back();
        lane.running++;
        totalQueued_--;
        publishDepth();
        if constexpr (obs::kEnabled) {
            if (waitHist_ && entry.enqueuedAt > 0.0) {
                waitHist_->record(
                    (monotonicSeconds() - entry.enqueuedAt) * 1e6);
            }
        }
        if (tenant_out)
            *tenant_out = it->first;
        return std::move(entry.item);
    }

    /**
     * Expected queue wait of one more `lane` job: while its (q+1)
     * backlog drains, a fair picker interleaves other backlogged lanes
     * in proportion to total active weight, and `workers` consumers
     * drain in parallel.  Pure estimate — no evidence (ewma 0) means
     * no shedding.
     */
    double
    estimatedWaitLocked(const Lane &lane) const
    {
        if (ewmaService_ <= 0.0)
            return 0.0;
        double active_weight = weightOf(lane);
        for (const auto &[tenant, other] : lanes_) {
            if (&other != &lane && !other.heap.empty())
                active_weight += weightOf(other);
        }
        double ahead =
            std::ceil(static_cast<double>(lane.heap.size() + 1) *
                      active_weight / weightOf(lane)) -
            1.0;
        ahead = std::min(ahead, static_cast<double>(totalQueued_));
        return ahead * ewmaService_ /
               static_cast<double>(std::max(1u, cfg_.workers));
    }

    /**
     * The lane to displace work from when the queue is full: the one
     * with the largest normalised backlog (queued/weight), counting
     * the incoming job against its own lane.  Null when the incoming
     * lane is itself (tied-)worst — the caller then backpressures the
     * submitter instead of displacing anyone.
     */
    Lane *
    shedVictimLocked(const Lane &incoming)
    {
        const double incoming_load =
            static_cast<double>(incoming.heap.size() + 1) /
            weightOf(incoming);
        Lane *victim = nullptr;
        double worst = incoming_load;
        for (auto &[tenant, lane] : lanes_) {
            if (&lane == &incoming || lane.heap.empty())
                continue;
            const double load =
                static_cast<double>(lane.heap.size()) / weightOf(lane);
            if (load > worst) {
                worst = load;
                victim = &lane;
            }
        }
        return victim;
    }

    /** Remove and return the newest (latest-admitted) entry of `lane`. */
    T
    removeNewestLocked(Lane &lane)
    {
        auto newest = lane.heap.begin();
        for (auto it = lane.heap.begin(); it != lane.heap.end(); ++it) {
            if (it->seq > newest->seq)
                newest = it;
        }
        T item = std::move(newest->item);
        lane.heap.erase(newest);
        std::make_heap(lane.heap.begin(), lane.heap.end());
        totalQueued_--;
        publishDepth();
        return item;
    }

    void
    publishDepth()
    {
        if constexpr (obs::kEnabled) {
            if (depthGauge_)
                depthGauge_->set(static_cast<double>(totalQueued_));
        }
    }

    const QosConfig cfg_;
    mutable std::mutex mtx_;
    std::condition_variable notEmpty_;
    LaneMap lanes_;
    std::size_t totalQueued_ = 0;
    double virtualNow_ = 0.0;   //!< system virtual time (activation floor)
    double ewmaService_;        //!< EWMA of measured per-job run seconds
    std::uint64_t nextSeq_ = 0;
    bool closed_ = false;
    obs::Gauge *depthGauge_ = nullptr;
    obs::Histogram *waitHist_ = nullptr;
};

} // namespace graphabcd

#endif // GRAPHABCD_SERVE_QOS_HH
