/**
 * @file
 * serve-open: an open loop of seeded Poisson arrivals into JobManager.
 *
 * Two tenants (weights 2:1) send pr/sssp/bfs/cc jobs over two small
 * registered graphs (WT and PS stand-ins at scale 0.1, symmetrized so
 * cc is defined).  About 30% of requests repeat an earlier request
 * exactly (result-cache reads), about 20% repeat an earlier request's
 * family on another engine (warm starts) and the rest are fresh (cache
 * inserts).  The calling thread is the generator: it sleeps until each
 * request is due and submits it, so a stalled service delays nothing
 * but its own jobs.  Each job is timed from its due time to its
 * terminal state.  After the window every Done job is checked against
 * the exact reference.
 */

#include <algorithm>
#include <cmath>
#include <map>
#include <random>
#include <thread>
#include <tuple>

#include "algorithms/reference.hh"
#include "gate.hh"
#include "graph/datasets.hh"
#include "obs/obs.hh"
#include "serve/graph_registry.hh"
#include "serve/job_manager.hh"
#include "workloads.hh"

namespace perfbench {

using namespace graphabcd;

namespace {

/** Arrival rate (jobs/s): half the capacity (about 220 Done jobs/s)
 *  measured on the commit that introduced this benchmark; see
 *  README.md for why not 75%. */
constexpr double kRate = 110.0;
/** Latency limit of slo_share, from due time to Done. */
constexpr double kLimitMs = 250.0;
/** A run whose generator ran later than this share of the limit (p99)
 *  measured the generator, not the service: it is invalid. */
constexpr double kMaxLateShare = 0.1;

/** A request is repeated only once it is this old (seconds). */
constexpr double kRepeatAge = 0.5;

constexpr VertexId kBlockSize = 512;
constexpr double kTolerance = 1e-7;
const char *const kGraphs[2] = {"wt", "ps"};
const char *const kAlgos[4] = {"pr", "sssp", "bfs", "cc"};
const char *const kEngines[4] = {"serial", "async", "accum", "fragment"};

enum Kind { kFresh, kFamily, kExact };

/**
 * A shuffled deck of choices, redealt when empty: every run of the deck
 * holds each choice in its exact share, so the seed moves the order of
 * the traffic but not its mix.
 */
class Deck
{
  public:
    explicit Deck(std::vector<int> cards) : cards_(std::move(cards)) {}

    int
    draw(std::mt19937_64 &rng)
    {
        if (hand_.empty()) {
            hand_ = cards_;
            std::shuffle(hand_.begin(), hand_.end(), rng);
        }
        const int card = hand_.back();
        hand_.pop_back();
        return card;
    }

  private:
    std::vector<int> cards_;
    std::vector<int> hand_;
};

struct Planned
{
    JobRequest req;
    Kind kind = kFresh;
    double due = 0.0;   //!< seconds after the window opens
};

/** The seeded request schedule (deterministic in the seed). */
std::vector<Planned>
planSchedule(std::uint64_t seed, double seconds, double rate,
             const std::vector<VertexId> sources[2])
{
    std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ULL + 11);
    std::exponential_distribution<double> gap(rate);
    // 30% exact repeats, 20% family repeats, 50% fresh.
    Deck kinds({kExact, kExact, kExact, kFamily, kFamily, kFresh, kFresh,
                kFresh, kFresh, kFresh});
    // serial 35%, async 35%, accum 15%, fragment 15% (kEngines order).
    Deck engines({0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 3, 3,
                  3});
    Deck graphs({0, 1});
    Deck algos({0, 1, 2, 3});
    Deck tenants({0, 0, 1});   // weights 2:1
    std::vector<Planned> plan;
    std::uint64_t fresh_ladder = 0;
    std::size_t settled = 0;   // requests due at least kRepeatAge ago
    for (double t = gap(rng); t < seconds; t += gap(rng)) {
        Planned p;
        p.due = t;
        while (settled < plan.size() && plan[settled].due <= t - kRepeatAge)
            settled++;
        p.kind = static_cast<Kind>(kinds.draw(rng));
        if (settled < 8)
            p.kind = kFresh;   // nothing settled to repeat yet
        if (p.kind != kFresh) {
            // Repeat one of the 64 most recent settled requests:
            // exactly, or its fixpoint family on another engine (a warm
            // start).  Settled requests have long finished, so whether
            // a repeat is a cache read does not depend on how fast the
            // service ran.
            const std::size_t lo = settled > 64 ? settled - 64 : 0;
            p.req = plan[std::uniform_int_distribution<std::size_t>(
                             lo, settled - 1)(rng)]
                        .req;
            if (p.kind == kFamily) {
                const std::string old = p.req.engine;
                while (p.req.engine == old)
                    p.req.engine = kEngines[engines.draw(rng)];
                p.req.allowWarmStart = true;
            }
        } else {
            const int gi = graphs.draw(rng);
            p.req.graph = kGraphs[gi];
            p.req.algo = kAlgos[algos.draw(rng)];
            p.req.engine = kEngines[engines.draw(rng)];
            p.req.options.tolerance = kTolerance;
            if (p.req.algo == "sssp" || p.req.algo == "bfs") {
                const auto &s = sources[gi];
                p.req.source = s[std::uniform_int_distribution<std::size_t>(
                    0, s.size() - 1)(rng)];
            } else {
                // A tolerance no earlier request used: a new cache key,
                // solved cold.
                p.req.options.tolerance =
                    kTolerance * (1.0 + 1e-4 * static_cast<double>(
                                                   ++fresh_ladder));
                p.req.allowWarmStart = false;
            }
        }
        p.req.tenant = tenants.draw(rng) == 0 ? "a" : "b";
        // Engine threads: async/accum = 1 pool worker + the service
        // worker; fragment = 2 participants over 2 fragments.
        p.req.options.numThreads = p.req.engine == "fragment" ? 2 : 1;
        p.req.options.fragments = p.req.engine == "fragment" ? 2 : 1;
        plan.push_back(std::move(p));
    }
    return plan;
}

/** What the generator saw for one request. */
struct Sent
{
    double callAt = 0.0;     //!< submit() entered (absolute)
    double returnAt = 0.0;   //!< submit() returned (absolute)
    JobManager::Submitted sub;
    std::size_t queueDepth = 0;
    bool traced = false;
};

} // namespace

void
runServeWorkload(Context &ctx, Report &report)
{
    const Args &args = ctx.args;
    const double scale = args.tiny ? 0.02 : 0.1;
    const unsigned nproc = ctx.host.nproc;
    SpanLog &spans = ctx.spans;

    // ---------------------------------------------------------- set-up
    // Generate both graphs and register them, kSetups times; setup_s is
    // the median.  The last registry serves the window.
    std::vector<double> setup_s, generate_s, partition_s;
    std::unique_ptr<GraphRegistry> registry;
    EdgeList edge_lists[2];   // of the registered graphs, for references
    for (int i = 0; i < kSetups; i++) {
        registry = std::make_unique<GraphRegistry>();
        const double t0 = now();
        edge_lists[0] =
            makeDataset("WT", scale, kGraphSeed).graph.symmetrized();
        edge_lists[1] =
            makeDataset("PS", scale, kGraphSeed + 1).graph.symmetrized();
        const double t1 = now();
        for (int gi = 0; gi < 2; gi++)
            registry->add(kGraphs[gi], edge_lists[gi], kBlockSize);
        const double t2 = now();
        spans.record("graph.generate", t0, t1);
        spans.record("graph.partition", t1, t2);
        generate_s.push_back(t1 - t0);
        partition_s.push_back(t2 - t1);
        setup_s.push_back(t2 - t0);
    }
    std::vector<VertexId> sources[2];
    for (int gi = 0; gi < 2; gi++) {
        const auto deg = edge_lists[gi].outDegrees();
        for (VertexId v = 0; v < deg.size(); v++) {
            if (deg[v] > 0)
                sources[gi].push_back(v);
        }
        info("serve-open: graph %s: %u vertices, %llu edges (symmetrized)",
             kGraphs[gi], edge_lists[gi].numVertices(),
             static_cast<unsigned long long>(edge_lists[gi].numEdges()));
    }

    const std::vector<Planned> plan =
        planSchedule(args.seed, args.seconds, kRate, sources);
    std::size_t kinds[3] = {0, 0, 0};
    for (const Planned &p : plan)
        kinds[p.kind]++;
    const double plan_n = std::max<double>(1.0, plan.size());
    info("serve-open: mix %.1f%% exact repeats, %.1f%% family repeats on "
         "another engine, %.1f%% fresh",
         100.0 * kinds[kExact] / plan_n, 100.0 * kinds[kFamily] / plan_n,
         100.0 * kinds[kFresh] / plan_n);

    // Threads: this generator + `workers` service workers + a private
    // engine pool; together at most nproc runnable threads.
    ServeConfig cfg;
    cfg.workers = std::max(1u, nproc / 2);
    cfg.poolThreads = std::max(1u, nproc - cfg.workers - 1);
    cfg.queueCapacity = 1024;
    // Holds every result inserted while a request settles and stays a
    // repeat candidate (about 1.1 s of inserts at kRate).
    cfg.cacheCapacity = 256;
    cfg.maxRetainedJobs = plan.size() + 16;
    cfg.tenantQos["a"] = TenantQos{2.0, 0, 0};
    cfg.tenantQos["b"] = TenantQos{1.0, 0, 0};
    info("serve-open: open loop, Poisson %.1f jobs/s for %.3g s = %zu "
         "jobs; %u service workers + %u pool threads + this generator; "
         "limit %.0f ms",
         kRate, args.seconds, plan.size(), cfg.workers, cfg.poolThreads,
         kLimitMs);

    // ------------------------------------------------------ the window
    std::vector<Sent> sent(plan.size());
    double window_start = 0.0;
    {
        JobManager jm(*registry, cfg);
        window_start = now() + 0.05;
        for (std::size_t i = 0; i < plan.size(); i++) {
            const double due = window_start + plan[i].due;
            // Traced runs alternate one-second segments with the
            // program's own tracing on and off; the latency ratio of
            // the two is obs.tracing_overhead.
            const bool traced = args.trace &&
                static_cast<long>(plan[i].due) % 2 == 1;
            if (args.trace)
                obs::setTracingEnabled(traced);
            const double wait = due - now();
            if (wait > 0)
                std::this_thread::sleep_for(
                    std::chrono::duration<double>(wait));
            Sent &s = sent[i];
            s.traced = traced;
            s.callAt = now();
            s.sub = jm.submit(plan[i].req);
            s.returnAt = now();
            s.queueDepth = jm.stats().queueDepth;
        }
        obs::setTracingEnabled(false);
        const double sent_at = now();

        // Drain, then read each job's terminal status.
        for (const Sent &s : sent) {
            if (s.sub.ok())
                jm.wait(s.sub.id, 60.0);
        }
        const double drained_at = now();
        // Peak memory of set-up + window, before any reference exists.
        report.endToEnd["peak_rss_mb"] = peakRssMb();
        info("serve-open: drained %.3f s after the last send",
             drained_at - sent_at);

        // ----------------------------------------------- gate + timing
        std::map<std::tuple<int, std::string, VertexId>, std::vector<double>>
            refs;
        auto reference = [&](int gi, const std::string &algo,
                             VertexId source) -> const std::vector<double> & {
            const bool uses_source = algo == "sssp" || algo == "bfs";
            auto key = std::make_tuple(gi, algo, uses_source ? source : 0);
            auto it = refs.find(key);
            if (it != refs.end())
                return it->second;
            std::vector<double> ref;
            const EdgeList &el = edge_lists[gi];
            if (algo == "pr")
                ref = pagerankReference(el, 0.85, 1e-15, 100000);
            else if (algo == "sssp")
                ref = dijkstraReference(el, source);
            else if (algo == "bfs")
                ref = bfsReference(el, source);
            else
                ref = ccReference(el);
            return refs.emplace(key, std::move(ref)).first->second;
        };

        std::vector<double> latency_ms, late_ms, submit_us, wait_ms, run_ms;
        std::vector<double> lat_traced, lat_plain;
        // Cold run seconds per (engine, graph/algo cell).
        std::map<std::string, std::map<std::string, std::vector<double>>>
            cold_run_s;
        std::map<std::string, std::vector<double>> epochs, edges, blocks,
            mtes;
        std::uint64_t within = 0, hits = 0, warm = 0, shed = 0,
                      admitted = 0, done = 0, self_checked = 0;
        double busy_s = 0.0;
        for (std::size_t i = 0; i < plan.size(); i++) {
            const Planned &p = plan[i];
            const Sent &s = sent[i];
            const double due = window_start + p.due;
            const std::string cell = "serve-open/job" + std::to_string(i) +
                                     "/" + p.req.algo + "/" + p.req.engine;
            report.attempted++;
            late_ms.push_back((s.callAt - due) * 1e3);
            submit_us.push_back((s.returnAt - s.callAt) * 1e6);
            if (!s.sub.ok()) {
                if (s.sub.error == SubmitError::Shed)
                    shed++;
                report.fail(cell + ": refused (" + to_string(s.sub.error) +
                            ")");
                continue;
            }
            admitted++;
            const auto st = jm.status(s.sub.id);
            if (!st || st->state != JobState::Done) {
                if (st && st->state == JobState::Shed)
                    shed++;
                report.fail(cell + ": ended " +
                            (st ? to_string(st->state) : "unknown") +
                            (st && !st->error.empty() ? " " + st->error
                                                      : ""));
                continue;
            }
            done++;
            // submittedAt ~ callAt; terminal = submitted + queued + run.
            const double done_at =
                std::max(s.returnAt,
                         s.callAt + st->queuedSeconds + st->runSeconds);
            const double lat = (done_at - due) * 1e3;
            hits += st->cacheHit;
            warm += st->warmStarted;
            if (!st->cacheHit) {
                wait_ms.push_back(st->queuedSeconds * 1e3);
                run_ms.push_back(st->runSeconds * 1e3);
                busy_s += st->runSeconds;
                if (!st->warmStarted)
                    cold_run_s[p.req.engine][p.req.graph + "/" + p.req.algo]
                        .push_back(st->runSeconds);
            }
            const auto res = jm.result(s.sub.id);
            std::string err;
            if (!res || !res->report.converged) {
                err = "did not converge";
            } else {
                const std::vector<double> &ref =
                    reference(p.req.graph == "ps", p.req.algo, p.req.source);
                const GateTolerance tol =
                    gateTolerance(p.req.algo, p.req.options.tolerance);
                err = compareValues(res->values, ref, tol);
                if (err.empty() && self_checked == 0) {
                    self_checked++;
                    report.attempted++;
                    if (!gateSelfCheck(res->values, ref, tol))
                        report.fail("serve-open/gate-self-check: perturbed "
                                    "vector was not caught");
                }
                if (!st->cacheHit) {
                    const EngineReport &r = res->report;
                    epochs[p.req.engine].push_back(r.epochs);
                    edges[p.req.engine].push_back(r.edgeTraversals);
                    blocks[p.req.engine].push_back(r.blockUpdates);
                    if (st->runSeconds > 0)
                        mtes[p.req.engine].push_back(
                            r.edgeTraversals / st->runSeconds / 1e6);
                }
            }
            if (!err.empty()) {
                report.fail(cell + ": " + err);
                continue;
            }
            latency_ms.push_back(lat);
            (s.traced ? lat_traced : lat_plain).push_back(lat);
            if (lat <= kLimitMs)
                within++;

            if (spans.enabled()) {
                const std::uint64_t job = spans.newId();
                const std::uint64_t root =
                    spans.record("serve.job", due, done_at, job);
                spans.record("serve.submit", s.callAt, s.returnAt, job, root);
                spans.record("serve.queue", s.callAt,
                             s.callAt + st->queuedSeconds, job, root);
                spans.record("serve.run", s.callAt + st->queuedSeconds,
                             s.callAt + st->queuedSeconds + st->runSeconds,
                             job, root);
            }
        }
        if (self_checked == 0) {
            report.attempted++;
            report.fail("serve-open/gate-self-check: no job passed");
        } else
            info("gate self-check: a perturbed vector trips the gate");

        const double sent_n = static_cast<double>(plan.size());
        const double late_p99 = quantile(late_ms, 0.99);
        info("serve-open: %zu sent, %llu admitted, %llu Done (%.1f Done "
             "jobs/s over send + drain: the capacity when the rate "
             "saturates the service), %zu Done+correct; latency over %zu "
             "jobs, p99 leaves %.1f beyond; generator lateness p99 %.3f ms",
             plan.size(), static_cast<unsigned long long>(admitted),
             static_cast<unsigned long long>(done),
             static_cast<double>(done) / (drained_at - window_start),
             latency_ms.size(), latency_ms.size(),
             0.01 * static_cast<double>(latency_ms.size()), late_p99);
        if (late_p99 > kMaxLateShare * kLimitMs) {
            char buf[160];
            std::snprintf(buf, sizeof(buf),
                          "generator lateness p99 %.3f ms exceeds %.0f%% "
                          "of the %.0f ms limit",
                          late_p99, kMaxLateShare * 100, kLimitMs);
            report.invalid = buf;
        }

        // Backlog: queue depth over the last tenth of the sends vs the
        // tenth around the middle.
        auto depth_mean = [&](double lo, double hi) {
            std::vector<double> d;
            for (std::size_t i = 0; i < sent.size(); i++) {
                const double f = static_cast<double>(i) / sent_n;
                if (f >= lo && f < hi)
                    d.push_back(static_cast<double>(sent[i].queueDepth));
            }
            return mean(d);
        };
        double depth_max = 0;
        for (const Sent &s : sent)
            depth_max = std::max<double>(depth_max, s.queueDepth);
        const double growth = depth_mean(0.9, 1.0) - depth_mean(0.45, 0.55);
        info("serve-open: queue depth max %.0f, backlog growth (end - mid) "
             "%.2f",
             depth_max, growth);

        // -------------------------------------------- end-to-end metrics
        auto &ee = report.endToEnd;
        ee["setup_s"] = median(setup_s);
        // Per engine: geometric mean over the graph x algo cells of the
        // lower quartile of the cold run times, so neither the host's
        // contention phases (see library.cc) nor the seed's traffic mix
        // move it.
        for (const char *e : kEngines) {
            std::vector<double> cell_q1;
            std::size_t jobs = 0;
            for (const auto &[cell, v] : cold_run_s[e]) {
                cell_q1.push_back(quantile(v, 0.25));
                jobs += v.size();
            }
            const double value = geomean(cell_q1);
            ee[std::string("solve_") + e + "_s"] = value;
            info("solve_%s_s: %.5f s, geometric mean over %zu graph/algo "
                 "cells of the lower quartile of the cold runs (%zu jobs)",
                 e, value, cell_q1.size(), jobs);
        }
        ee["job_p50_ms"] = quantile(latency_ms, 0.5);
        ee["job_p99_ms"] = quantile(latency_ms, 0.99);
        ee["slo_share"] = static_cast<double>(within) / sent_n;
        ee["ok_share"] = 1.0 - static_cast<double>(report.failed) /
                                   static_cast<double>(report.attempted);

        // --------------------------------------------- per-layer metrics
        auto &pl = report.perLayer;
        pl["serve.submit_us_p50"] = quantile(submit_us, 0.5);
        pl["serve.submit_us_p99"] = quantile(submit_us, 0.99);
        pl["serve.queue_wait_ms_p50"] = quantile(wait_ms, 0.5);
        pl["serve.queue_wait_ms_p99"] = quantile(wait_ms, 0.99);
        pl["serve.queue_depth_max"] = depth_max;
        pl["serve.backlog_growth"] = growth;
        pl["serve.busy_share"] =
            busy_s / (cfg.workers * (sent_at - window_start));
        pl["serve.run_ms_p50"] = quantile(run_ms, 0.5);
        pl["serve.run_ms_p99"] = quantile(run_ms, 0.99);
        pl["serve.cache_hit_rate"] =
            admitted ? static_cast<double>(hits) / admitted : 0.0;
        pl["serve.warm_start_rate"] =
            admitted ? static_cast<double>(warm) / admitted : 0.0;
        pl["serve.shed_share"] = static_cast<double>(shed) / sent_n;
        pl["serve.gen_late_ms_p99"] = late_p99;
        if (args.trace && !lat_plain.empty() && !lat_traced.empty())
            pl["obs.tracing_overhead"] =
                median(lat_traced) / median(lat_plain) - 1.0;
        for (const char *e : kEngines) {
            const std::string p = std::string("core.") + e + ".";
            pl[p + "epochs"] = median(epochs[e]);
            pl[p + "edge_traversals"] = median(edges[e]);
            pl[p + "block_updates"] = median(blocks[e]);
            pl[p + "mtes"] = median(mtes[e]);
        }
    }   // JobManager shuts down and joins its workers here

    // Graph layer of the registered graphs.
    if (args.trace) {
        auto &pl = report.perLayer;
        pl["graph.generate_s"] = median(generate_s);
        pl["graph.partition_s"] = median(partition_s);
        double edges = 0, gather = 0, scatter = 0, decode_s = 0, ws = 0;
        for (const char *name : kGraphs) {
            const auto g = registry->get(name);
            const double e = static_cast<double>(g->numEdges());
            edges += e;
            gather += e * g->gatherBytesPerEdge();
            scatter += e * g->scatterBytesPerEdge();
            ws += workingSetMb(*g);
            SpanLog::Scope span(spans, "graph.decode_pass");
            decode_s += decodePassNs(*g) * e;
        }
        pl["graph.gather_bytes_per_edge"] = gather / edges;
        pl["graph.scatter_bytes_per_edge"] = scatter / edges;
        pl["graph.decode_ns_per_edge"] = decode_s / edges;
        pl["graph.working_set_mb"] = ws;
    }
}

} // namespace perfbench
