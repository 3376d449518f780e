/**
 * @file
 * abcd_serve — the serve layer behind a line-oriented request protocol
 * on stdin/stdout, one request per line, one `OK ...` or `ERR ...`
 * reply per request.  An RPC transport later swaps the framing, not
 * the service.
 *
 *   LOAD <name> <dataset-key-or-file> [scale=F] [block-size=N]
 *        [undirected=0|1] [seed=N] [layout=plain|compressed]
 *        [reorder=none|hub]
 *   RUN <graph> <algo> [engine=serial|async|fragment|accum|sim]
 *       [tenant=NAME] [source=N] [k=N] [priority=F] [timeout=F]
 *       [tolerance=F] [schedule=cyclic|priority|obim]
 *       [threads=N] [fragments=N] [max-epochs=F] [cached=0|1]
 *       [warm=0|1]
 *   STATUS <job-id>
 *   WAIT <job-id> [timeout-seconds]
 *   CANCEL <job-id>
 *   VALUE <job-id> <vertex>
 *   TENANTS               per-tenant QoS counters and gauges
 *   TRACE <file>          write the trace buffer as Chrome JSON
 *   METRICS               Prometheus text exposition of the registry
 *   CONV <job-id> [file]  the job's convergence curve as CSV
 *   DUMP <file>           write a flight-recorder snapshot (black box)
 *   GRAPHS | STATS | HELP | QUIT
 *
 * LOAD and RUN lines parse in serve/protocol (strict numbers, known
 * keys only); the algorithms and engines RUN accepts are the ones
 * serve/runner lists.
 *
 * Debugging: --flight=PATH arms the flight recorder — fatal errors,
 * fatal signals, and watchdog stalls dump the black box (recent logs,
 * job table, metrics, trace rings) to PATH; DUMP <file> captures the
 * same snapshot on demand.  --stall-window=SECONDS starts the stall
 * watchdog (a Running job whose progress counters stay flat that long
 * is flagged), --stall-check its poll period, and --stall-cancel
 * escalates a flagged stall to cooperative cancellation.
 *
 * Multi-tenant QoS: --tenants=name:weight[:inflight[:queued]],...
 * configures per-tenant fair-share weights and quotas (e.g.
 * --tenants=gold:4,free:1:2:8), --default-weight the weight of
 * unlisted tenants, and --shed-deadline=0 disables admission-time
 * deadline shedding.  RUN tenant=NAME files the job in that tenant's
 * lane; omitted means the shared "default" lane.
 *
 * With --metrics-port=N the same exposition (plus /series and
 * /convergence) is served over loopback HTTP for scrapes, and
 * --sample-ms=N runs the background sampler so counters/gauges gain a
 * time dimension; --log-level/--log-json configure the structured
 * logger on stderr.
 *
 * STATS reports the service counters and, when the build carries the
 * observability layer (GRAPHABCD_OBS=ON, the default), dumps the whole
 * process-wide metrics registry — engine latency/staleness histograms,
 * scheduler churn, queue depths, HARP utilization gauges.
 *
 * Example session (see README "Serving mode"):
 *   > LOAD web WT scale=0.2
 *   OK graph web vertices=47800 edges=100472 blocks=94
 *   > RUN web pr engine=async
 *   OK job 1
 *   > WAIT 1
 *   OK job 1 state=done converged=1 cachehit=0 epochs=18.00 ...
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "graph/datasets.hh"
#include "graph/io.hh"
#include "obs/log.hh"
#include "obs/metrics_server.hh"
#include "obs/obs.hh"
#include "serve/graph_registry.hh"
#include "serve/job_manager.hh"
#include "serve/protocol.hh"
#include "support/flags.hh"

using namespace graphabcd;

namespace {

/** The REPL over one registry + one manager. */
class ServeShell
{
  public:
    ServeShell(GraphRegistry &registry, JobManager &manager,
               std::uint32_t default_fragments = 1)
        : registry_(registry), manager_(manager),
          defaultFragments_(default_fragments)
    {
    }

    /** @return false when the session should end. */
    bool
    handle(const std::string &line)
    {
        const auto tokens = tokenize(line);
        if (tokens.empty())
            return true;
        const std::string &cmd = tokens[0];
        if (cmd == "QUIT" || cmd == "EXIT")
            return false;
        try {
            if (cmd == "HELP")
                help();
            else if (cmd == "LOAD")
                load(tokens);
            else if (cmd == "RUN")
                run(tokens);
            else if (cmd == "STATUS")
                status(tokens);
            else if (cmd == "WAIT")
                wait(tokens);
            else if (cmd == "CANCEL")
                cancel(tokens);
            else if (cmd == "VALUE")
                value(tokens);
            else if (cmd == "GRAPHS")
                graphs();
            else if (cmd == "STATS")
                stats();
            else if (cmd == "TENANTS")
                tenants();
            else if (cmd == "TRACE")
                trace(tokens);
            else if (cmd == "METRICS")
                metrics();
            else if (cmd == "CONV")
                conv(tokens);
            else if (cmd == "DUMP")
                dump(tokens);
            else
                std::printf("ERR BadCommand unknown command '%s'\n",
                            cmd.c_str());
        } catch (const std::exception &e) {
            // One failing request must never take the service down.
            std::printf("ERR BadCommand %s\n", e.what());
        }
        return true;
    }

  private:
    void
    help()
    {
        std::printf(
            "OK commands: LOAD RUN STATUS WAIT CANCEL VALUE GRAPHS "
            "STATS TENANTS TRACE METRICS CONV DUMP HELP QUIT\n");
    }

    void
    load(const std::vector<std::string> &tokens)
    {
        LoadSpec spec;
        std::string error;
        if (!parseLoad(tokens, &spec, &error)) {
            std::printf("ERR BadCommand %s\n", error.c_str());
            return;
        }
        const std::string &src = spec.source;
        try {
            EdgeList el;
            if (src.find('.') != std::string::npos ||
                src.find('/') != std::string::npos) {
                el = loadEdgeListFile(src);
            } else {
                el = makeDataset(src, spec.scale, spec.seed).graph;
            }
            if (spec.undirected)
                el = el.symmetrized();
            auto g = registry_.add(spec.name, el, spec.blockSize,
                                   spec.layout);
            std::printf(
                "OK graph %s vertices=%u edges=%llu blocks=%u "
                "layout=%s reorder=%s\n",
                spec.name.c_str(), g->numVertices(),
                static_cast<unsigned long long>(g->numEdges()),
                g->numBlocks(), to_string(g->layout()),
                to_string(g->reorder()));
        } catch (const std::exception &e) {
            std::printf("ERR LoadFailed %s\n", e.what());
        }
    }

    void
    run(const std::vector<std::string> &tokens)
    {
        JobRequest req;
        req.options.fragments = defaultFragments_;
        std::string error;
        if (!parseRun(tokens, &req, &error)) {
            std::printf("ERR BadCommand %s\n", error.c_str());
            return;
        }
        JobManager::Submitted sub = manager_.submit(std::move(req));
        if (sub.ok())
            std::printf("OK job %llu\n",
                        static_cast<unsigned long long>(sub.id));
        else
            std::printf("ERR %s\n", to_string(sub.error));
    }

    void
    printStatus(const JobStatus &st)
    {
        std::printf(
            "OK job %llu state=%s tenant=%s converged=%d cachehit=%d "
            "warm=%d epochs=%.2f blocks=%llu edges=%llu scatters=%llu "
            "queued=%.3fs run=%.3fs%s%s\n",
            static_cast<unsigned long long>(st.id),
            to_string(st.state), st.tenant.c_str(),
            st.converged ? 1 : 0,
            st.cacheHit ? 1 : 0, st.warmStarted ? 1 : 0, st.epochs,
            static_cast<unsigned long long>(st.blockUpdates),
            static_cast<unsigned long long>(st.edgeTraversals),
            static_cast<unsigned long long>(st.scatterWrites),
            st.queuedSeconds, st.runSeconds,
            st.error.empty() ? "" : " error=",
            st.error.empty() ? "" : st.error.c_str());
    }

    bool
    parseId(const std::vector<std::string> &tokens, JobId &id)
    {
        const auto parsed =
            tokens.size() < 2 ? std::nullopt : parseUnsigned(tokens[1]);
        if (!parsed) {
            std::printf("ERR BadCommand want a job id\n");
            return false;
        }
        id = *parsed;
        return true;
    }

    void
    status(const std::vector<std::string> &tokens)
    {
        JobId id;
        if (!parseId(tokens, id))
            return;
        if (auto st = manager_.status(id))
            printStatus(*st);
        else
            std::printf("ERR NotFound no job %llu\n",
                        static_cast<unsigned long long>(id));
    }

    void
    wait(const std::vector<std::string> &tokens)
    {
        JobId id;
        if (!parseId(tokens, id))
            return;
        const auto timeout =
            tokens.size() > 2 ? parseReal(tokens[2]) : -1.0;
        if (!timeout) {
            std::printf("ERR BadCommand want a timeout in seconds\n");
            return;
        }
        if (!manager_.wait(id, *timeout)) {
            std::printf("ERR Timeout job %llu still running\n",
                        static_cast<unsigned long long>(id));
            return;
        }
        if (auto st = manager_.status(id))
            printStatus(*st);
        else
            std::printf("ERR NotFound no job %llu\n",
                        static_cast<unsigned long long>(id));
    }

    void
    cancel(const std::vector<std::string> &tokens)
    {
        JobId id;
        if (!parseId(tokens, id))
            return;
        if (manager_.cancel(id))
            std::printf("OK cancelling %llu\n",
                        static_cast<unsigned long long>(id));
        else
            std::printf("ERR NotFound job %llu unknown or terminal\n",
                        static_cast<unsigned long long>(id));
    }

    void
    value(const std::vector<std::string> &tokens)
    {
        JobId id;
        if (!parseId(tokens, id))
            return;
        if (tokens.size() < 3) {
            std::printf("ERR BadCommand usage: VALUE <job> <vertex>\n");
            return;
        }
        auto result = manager_.result(id);
        if (!result) {
            std::printf("ERR NotFound job %llu has no result\n",
                        static_cast<unsigned long long>(id));
            return;
        }
        const auto v = parseUnsigned(tokens[2]);
        if (!v || *v >= result->values.size()) {
            std::printf("ERR BadCommand vertex %s out of range\n",
                        tokens[2].c_str());
            return;
        }
        std::printf("OK value %llu %.10g\n",
                    static_cast<unsigned long long>(*v),
                    result->values[*v]);
    }

    void
    graphs()
    {
        const auto infos = registry_.list();
        std::printf("OK %zu graphs\n", infos.size());
        for (const auto &info : infos) {
            std::printf("  %s vertices=%u edges=%llu blocks=%u "
                        "refs=%ld\n",
                        info.name.c_str(), info.vertices,
                        static_cast<unsigned long long>(info.edges),
                        info.blocks, info.useCount);
        }
    }

    void
    tenants()
    {
        const auto per_tenant = manager_.tenantStats();
        std::printf("OK %zu tenants\n", per_tenant.size());
        for (const auto &[tenant, t] : per_tenant) {
            std::printf(
                "  %s submitted=%llu completed=%llu rejected=%llu "
                "cancelled=%llu failed=%llu shed=%llu shedadm=%llu "
                "cachehits=%llu warmstarts=%llu queued=%zu "
                "running=%zu\n",
                tenant.c_str(),
                static_cast<unsigned long long>(t.submitted),
                static_cast<unsigned long long>(t.completed),
                static_cast<unsigned long long>(t.rejected),
                static_cast<unsigned long long>(t.cancelled),
                static_cast<unsigned long long>(t.failed),
                static_cast<unsigned long long>(t.shed),
                static_cast<unsigned long long>(t.shedAdmission),
                static_cast<unsigned long long>(t.cacheHits),
                static_cast<unsigned long long>(t.warmStarts),
                t.queued, t.running);
        }
    }

    void
    stats()
    {
        const ServeStats s = manager_.stats();
        const ResultCache::Stats c = manager_.cache().stats();
        std::printf(
            "OK submitted=%llu rejected=%llu completed=%llu "
            "cancelled=%llu failed=%llu shed=%llu shedadm=%llu "
            "cachehits=%llu warmstarts=%llu queued=%zu running=%zu "
            "hitrate=%.2f\n",
            static_cast<unsigned long long>(s.submitted),
            static_cast<unsigned long long>(s.rejected),
            static_cast<unsigned long long>(s.completed),
            static_cast<unsigned long long>(s.cancelled),
            static_cast<unsigned long long>(s.failed),
            static_cast<unsigned long long>(s.shed),
            static_cast<unsigned long long>(s.shedAdmission),
            static_cast<unsigned long long>(s.cacheHits),
            static_cast<unsigned long long>(s.warmStarts),
            s.queueDepth, s.running, c.hitRate());
        // Process-wide metrics registry, one indented line per metric
        // (empty in a GRAPHABCD_OBS=OFF build).
        const std::string dump = obs::dumpMetrics();
        std::size_t pos = 0;
        while (pos < dump.size()) {
            std::size_t nl = dump.find('\n', pos);
            if (nl == std::string::npos)
                nl = dump.size();
            std::printf("  %.*s\n", static_cast<int>(nl - pos),
                        dump.c_str() + pos);
            pos = nl + 1;
        }
    }

    void
    metrics()
    {
        // Same body the HTTP /metrics route serves; empty when built
        // with GRAPHABCD_OBS=OFF (no registered metrics).
        std::string body, content_type;
        MetricsServer::handlePath("/metrics", &body, &content_type);
        std::printf("OK metrics bytes=%zu\n", body.size());
        std::fwrite(body.data(), 1, body.size(), stdout);
    }

    void
    conv(const std::vector<std::string> &tokens)
    {
        JobId id;
        if (!parseId(tokens, id))
            return;
        auto series = manager_.convergence(id);
        if (!series) {
            std::printf("ERR NotFound job %llu has no convergence "
                        "series%s\n",
                        static_cast<unsigned long long>(id),
                        obs::kEnabled
                            ? ""
                            : " (built with GRAPHABCD_OBS=OFF)");
            return;
        }
        const std::string csv = obs::convergenceCsv(*series);
        if (tokens.size() > 2) {
            std::ofstream out(tokens[2]);
            if (!out) {
                std::printf("ERR ConvFailed cannot write %s\n",
                            tokens[2].c_str());
                return;
            }
            out << csv;
            std::printf("OK convergence job %llu points=%zu file=%s\n",
                        static_cast<unsigned long long>(id),
                        series->size(), tokens[2].c_str());
            return;
        }
        std::printf("OK convergence job %llu points=%zu\n",
                    static_cast<unsigned long long>(id),
                    series->size());
        std::fwrite(csv.data(), 1, csv.size(), stdout);
    }

    void
    dump(const std::vector<std::string> &tokens)
    {
        if (tokens.size() < 2) {
            std::printf("ERR BadCommand usage: DUMP <file>\n");
            return;
        }
        if (!obs::flightDump(tokens[1], "DUMP verb")) {
            std::printf("ERR DumpFailed cannot write %s%s\n",
                        tokens[1].c_str(),
                        obs::kEnabled
                            ? ""
                            : " (built with GRAPHABCD_OBS=OFF)");
            return;
        }
        std::printf("OK flight %s\n", tokens[1].c_str());
    }

    void
    trace(const std::vector<std::string> &tokens)
    {
        if (tokens.size() < 2) {
            std::printf("ERR BadCommand usage: TRACE <file>\n");
            return;
        }
        const std::size_t events = obs::traceEventCount();
        if (!obs::writeTrace(tokens[1])) {
            std::printf("ERR TraceFailed cannot write %s%s\n",
                        tokens[1].c_str(),
                        obs::kEnabled
                            ? ""
                            : " (built with GRAPHABCD_OBS=OFF)");
            return;
        }
        std::printf("OK trace %s events=%zu\n", tokens[1].c_str(),
                    events);
    }

    GraphRegistry &registry_;
    JobManager &manager_;
    const std::uint32_t defaultFragments_;
};

} // namespace

int
main(int argc, char **argv)
{
    Flags flags;
    flags.declareInt("workers", 2, "service worker threads");
    flags.declareInt("pool-threads", 0,
                     "engine worker pool size (0 = the process-wide "
                     "pool sized to the hardware)");
    flags.declareInt("fragments", 1,
                     "default shard count for engine=fragment runs "
                     "(RUN fragments=N overrides per job)");
    flags.declareInt("queue", 16, "admission queue capacity");
    flags.declareInt("cache", 64, "result cache entries");
    flags.declareDouble("ttl", 300.0, "result cache TTL seconds");
    flags.declare("tenants", "",
                  "per-tenant QoS spec "
                  "name:weight[:inflight[:queued]],... "
                  "(e.g. gold:4,free:1:2:8)");
    flags.declareDouble("default-weight", 1.0,
                        "fair-share weight of unlisted tenants");
    flags.declareBool("shed-deadline", true,
                      "shed jobs at admission when the estimated "
                      "queue wait alone would blow their deadline");
    flags.declareDouble("service-estimate", 0.0,
                        "seed for the per-job service-seconds "
                        "estimate the deadline shedder uses (0 = "
                        "learn from measured runs only)");
    flags.declareBool("echo", false, "echo commands (for transcripts)");
    flags.declareBool("trace", true,
                      "record trace events for the TRACE verb");
    flags.declare("flight", "",
                  "arm the flight recorder: dump the black box to this "
                  "path on fatal errors, fatal signals, and stalls");
    flags.declareDouble("stall-window", 0.0,
                        "flag a running job whose progress counters "
                        "stay flat this many seconds (0 = watchdog "
                        "off)");
    flags.declareDouble("stall-check", 0.25,
                        "stall watchdog poll period in seconds");
    flags.declareBool("stall-cancel", false,
                      "escalate a flagged stall to cooperative "
                      "cancellation");
    flags.declareInt("metrics-port", -1,
                     "serve /metrics on 127.0.0.1:PORT (0 = ephemeral, "
                     "-1 = disabled)");
    flags.declareInt("sample-ms", 0,
                     "background sampler interval in ms (0 = off)");
    flags.declare("log-level", "",
                  "debug|info|warn|error|off (default: "
                  "GRAPHABCD_LOG_LEVEL or info)");
    flags.declareBool("log-json", false,
                      "emit structured logs as JSON lines");
    if (!flags.parse(argc, argv))
        return 0;

    ServeConfig cfg;
    cfg.workers = static_cast<std::uint32_t>(flags.getInt("workers"));
    cfg.queueCapacity =
        static_cast<std::size_t>(flags.getInt("queue"));
    cfg.cacheCapacity =
        static_cast<std::size_t>(flags.getInt("cache"));
    cfg.cacheTtlSeconds = flags.getDouble("ttl");
    cfg.poolThreads =
        static_cast<std::uint32_t>(flags.getInt("pool-threads"));
    cfg.defaultQos.weight = flags.getDouble("default-weight");
    cfg.shedOnDeadline = flags.getBool("shed-deadline");
    cfg.initialServiceEstimateSeconds =
        flags.getDouble("service-estimate");
    cfg.stallWindowSeconds = flags.getDouble("stall-window");
    cfg.stallCheckSeconds = flags.getDouble("stall-check");
    cfg.cancelOnStall = flags.getBool("stall-cancel");
    if (!flags.get("tenants").empty()) {
        std::string spec_error;
        if (!parseTenantQosSpecs(flags.get("tenants"), &cfg.tenantQos,
                                 &spec_error)) {
            std::printf("ERR BadFlag %s\n", spec_error.c_str());
            return 1;
        }
    }

    obs::setTracingEnabled(flags.getBool("trace"));
    if (!flags.get("flight").empty()) {
        obs::flightArm(flags.get("flight"));
        obs::flightArmSignals();
    }
    if (!flags.get("log-level").empty())
        obs::Logger::global().setLevel(
            obs::parseLogLevel(flags.get("log-level").c_str()));
    if (flags.getBool("log-json"))
        obs::Logger::global().setJson(true);

    MetricsServer metrics_server;
    const std::int64_t metrics_port = flags.getInt("metrics-port");
    if (metrics_port >= 0) {
        std::string error;
        if (!metrics_server.start(
                static_cast<std::uint16_t>(metrics_port), &error)) {
            GRAPHABCD_LOG_ERROR("serve", "metrics server failed",
                                LOGF("error", error));
            std::printf("ERR MetricsPort %s\n", error.c_str());
            return 1;
        }
    }
    const std::int64_t sample_ms = flags.getInt("sample-ms");
    if (sample_ms > 0)
        obs::startSampler(static_cast<double>(sample_ms) / 1000.0);

    GraphRegistry registry;
    JobManager manager(registry, cfg);
    ServeShell shell(registry, manager,
                     static_cast<std::uint32_t>(
                         std::max<std::int64_t>(1,
                                                flags.getInt("fragments"))));
    const bool echo = flags.getBool("echo");

    if (metrics_server.running())
        std::printf("OK abcd_serve ready (workers=%u queue=%zu "
                    "cache=%zu metrics=127.0.0.1:%u)\n",
                    cfg.workers, cfg.queueCapacity, cfg.cacheCapacity,
                    metrics_server.port());
    else
        std::printf("OK abcd_serve ready (workers=%u queue=%zu "
                    "cache=%zu)\n",
                    cfg.workers, cfg.queueCapacity, cfg.cacheCapacity);
    std::string line;
    while (std::getline(std::cin, line)) {
        if (echo)
            std::printf("> %s\n", line.c_str());
        if (!shell.handle(line))
            break;
        std::fflush(stdout);
    }
    manager.shutdown();
    if (sample_ms > 0)
        obs::stopSampler();
    metrics_server.stop();
    std::printf("OK bye\n");
    return 0;
}
