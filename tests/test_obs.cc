/**
 * @file
 * Tests of the observability layer: histogram bucket/aggregation math,
 * registry behaviour, trace ring buffers and Chrome JSON export, and
 * the engine-level staleness measurement the bounded task queue is
 * supposed to guarantee (paper Sec. III-D).
 */

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "algorithms/pagerank.hh"
#include "baselines/graphmat/engine.hh"
#include "baselines/graphmat/programs.hh"
#include "core/async_engine.hh"
#include "core/engine.hh"
#include "graph/generators.hh"
#include "obs/convergence.hh"
#include "obs/log.hh"
#include "obs/metrics.hh"
#include "obs/flight.hh"
#include "obs/metrics_server.hh"
#include "obs/obs.hh"
#include "obs/span.hh"
#include "obs/watchdog.hh"
#include "obs/prometheus.hh"
#include "obs/sampler.hh"
#include "obs/trace.hh"
#include "runtime/executor.hh"
#include "serve/graph_registry.hh"
#include "serve/job_manager.hh"
#include "support/logging.hh"

namespace graphabcd {
namespace {

// --------------------------------------------------------------- metrics

TEST(Histogram, BucketBoundariesAreUpperInclusive)
{
    // Bucket i counts bounds[i-1] < x <= bounds[i]; one implicit
    // overflow bucket catches everything above the last bound.
    Histogram h({1.0, 2.0, 4.0});
    for (double x : {0.5, 1.0, 1.5, 3.0, 100.0})
        h.record(x);

    const Histogram::Snapshot snap = h.snapshot();
    ASSERT_EQ(snap.counts.size(), 4u);
    EXPECT_EQ(snap.counts[0], 2u);   // 0.5 and 1.0 (<= 1)
    EXPECT_EQ(snap.counts[1], 1u);   // 1.5
    EXPECT_EQ(snap.counts[2], 1u);   // 3.0
    EXPECT_EQ(snap.counts[3], 1u);   // 100.0 overflows
    EXPECT_EQ(snap.count, 5u);
    EXPECT_DOUBLE_EQ(snap.sum, 106.0);
    EXPECT_DOUBLE_EQ(snap.min, 0.5);
    EXPECT_DOUBLE_EQ(snap.max, 100.0);
    EXPECT_DOUBLE_EQ(snap.mean(), 106.0 / 5.0);
}

TEST(Histogram, QuantileReturnsBucketUpperBoundOrMax)
{
    Histogram h({1.0, 2.0, 4.0});
    for (double x : {0.5, 1.0, 1.5, 3.0, 100.0})
        h.record(x);

    const Histogram::Snapshot snap = h.snapshot();
    // rank = q * (count - 1): ranks 0-1 land in bucket <=1, rank 2 in
    // bucket <=2, rank 3 in bucket <=4, rank 4 in the overflow bucket.
    EXPECT_DOUBLE_EQ(snap.quantile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(snap.quantile(0.5), 2.0);
    EXPECT_DOUBLE_EQ(snap.quantile(0.75), 4.0);
    EXPECT_DOUBLE_EQ(snap.quantile(1.0), 100.0);   // overflow -> max
}

TEST(Histogram, QuantileEdgeCases)
{
    // Empty: every quantile is the defined zero, not UB.
    {
        Histogram h({1.0, 2.0});
        const Histogram::Snapshot snap = h.snapshot();
        EXPECT_DOUBLE_EQ(snap.quantile(0.0), 0.0);
        EXPECT_DOUBLE_EQ(snap.quantile(1.0), 0.0);
    }
    // Single bucket holding every sample: all quantiles report its
    // upper bound (the estimate is bucket-granular by design).
    {
        Histogram h({10.0});
        for (double x : {1.0, 2.0, 3.0})
            h.record(x);
        const Histogram::Snapshot snap = h.snapshot();
        EXPECT_DOUBLE_EQ(snap.quantile(0.0), 10.0);
        EXPECT_DOUBLE_EQ(snap.quantile(0.5), 10.0);
        EXPECT_DOUBLE_EQ(snap.quantile(1.0), 10.0);
    }
    // Every sample beyond the last bound: the overflow bucket has no
    // upper bound, so quantiles fall back to the observed max.
    {
        Histogram h({1.0});
        h.record(5.0);
        h.record(7.0);
        const Histogram::Snapshot snap = h.snapshot();
        EXPECT_DOUBLE_EQ(snap.quantile(0.0), 7.0);
        EXPECT_DOUBLE_EQ(snap.quantile(1.0), 7.0);
    }
    // Exactly one sample: q=0 and q=1 agree on its bucket.
    {
        Histogram h({1.0, 2.0});
        h.record(1.5);
        const Histogram::Snapshot snap = h.snapshot();
        EXPECT_DOUBLE_EQ(snap.quantile(0.0), 2.0);
        EXPECT_DOUBLE_EQ(snap.quantile(1.0), 2.0);
    }
}

TEST(Histogram, EmptySnapshotIsWellDefined)
{
    Histogram h({1.0, 10.0});
    const Histogram::Snapshot snap = h.snapshot();
    EXPECT_EQ(snap.count, 0u);
    EXPECT_DOUBLE_EQ(snap.mean(), 0.0);
    EXPECT_DOUBLE_EQ(snap.quantile(0.5), 0.0);
    EXPECT_DOUBLE_EQ(snap.min, 0.0);
    EXPECT_DOUBLE_EQ(snap.max, 0.0);
    EXPECT_DOUBLE_EQ(h.max(), 0.0);
}

TEST(Histogram, ResetZeroesEverythingAndStaysUsable)
{
    Histogram h({1.0});
    h.record(5.0);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    h.record(0.5);
    const Histogram::Snapshot snap = h.snapshot();
    EXPECT_EQ(snap.count, 1u);
    EXPECT_DOUBLE_EQ(snap.min, 0.5);
    EXPECT_DOUBLE_EQ(snap.max, 0.5);
}

TEST(Metrics, ConcurrentRecordingLosesNothing)
{
    Counter c;
    Histogram h({10.0, 100.0, 1000.0});
    constexpr int threads = 4, per_thread = 10000;
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; t++) {
        pool.emplace_back([&, t] {
            for (int i = 0; i < per_thread; i++) {
                c.add(1);
                h.record(static_cast<double>(t * per_thread + i));
            }
        });
    }
    for (auto &t : pool)
        t.join();

    EXPECT_EQ(c.value(), static_cast<std::uint64_t>(threads) * per_thread);
    const Histogram::Snapshot snap = h.snapshot();
    EXPECT_EQ(snap.count,
              static_cast<std::uint64_t>(threads) * per_thread);
    std::uint64_t bucket_total = 0;
    for (std::uint64_t n : snap.counts)
        bucket_total += n;
    EXPECT_EQ(bucket_total, snap.count);
    EXPECT_DOUBLE_EQ(snap.min, 0.0);
    EXPECT_DOUBLE_EQ(snap.max,
                     static_cast<double>(threads * per_thread - 1));
}

TEST(MetricsRegistry, SameNameReturnsSameInstance)
{
    MetricsRegistry reg;
    Counter &a = reg.counter("x");
    Counter &b = reg.counter("x");
    EXPECT_EQ(&a, &b);
    // Second registration keeps the original bucket layout.
    Histogram &h1 = reg.histogram("h", {1.0, 2.0});
    Histogram &h2 = reg.histogram("h", {99.0});
    EXPECT_EQ(&h1, &h2);
    EXPECT_EQ(h1.snapshot().bounds.size(), 2u);
}

TEST(MetricsRegistry, DumpListsEveryMetricAndResetZeroes)
{
    MetricsRegistry reg;
    reg.counter("jobs.done").add(3);
    reg.gauge("queue.depth").set(7.0);
    reg.histogram("lat", {1.0, 10.0}).record(5.0);

    const std::string dump = reg.dump();
    EXPECT_NE(dump.find("counter jobs.done 3"), std::string::npos);
    EXPECT_NE(dump.find("gauge queue.depth 7"), std::string::npos);
    EXPECT_NE(dump.find("hist lat count=1"), std::string::npos);

    reg.reset();
    EXPECT_EQ(reg.counter("jobs.done").value(), 0u);
    EXPECT_DOUBLE_EQ(reg.gauge("queue.depth").value(), 0.0);
    EXPECT_EQ(reg.histogram("lat", {}).count(), 0u);
}

// ----------------------------------------------------------------- trace

TEST(TraceRecorder, DisabledRecorderRetainsNothing)
{
    TraceRecorder rec(8);
    rec.complete("x", 0.0, 1.0);
    rec.instant("y");
    EXPECT_EQ(rec.eventCount(), 0u);
}

TEST(TraceRecorder, RingWrapKeepsCapacityNewestEvents)
{
    TraceRecorder rec(8);
    rec.setEnabled(true);
    for (int i = 0; i < 20; i++)
        rec.complete("span", static_cast<double>(i), 1.0);
    EXPECT_EQ(rec.eventCount(), 8u);
    rec.clear();
    EXPECT_EQ(rec.eventCount(), 0u);
}

TEST(TraceRecorder, ChromeJsonExportIsLoadable)
{
    TraceRecorder rec(64);
    rec.setEnabled(true);
    rec.complete("gas", 10.0, 5.0);
    rec.instant("activated");
    {
        TraceSpan span(rec, "scoped");
    }
    EXPECT_EQ(rec.eventCount(), 3u);

    std::ostringstream os;
    rec.writeChromeTrace(os);
    const std::string json = os.str();
    EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
    EXPECT_NE(json.find("\"name\":\"gas\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"dur\":5"), std::string::npos);
    // Instant events need a scope to load in Perfetto.
    EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(json.find("\"s\":\"t\""), std::string::npos);
    EXPECT_NE(json.find("\"pid\":0"), std::string::npos);
    // Balanced braces and closing bracket: crude well-formedness.
    EXPECT_NE(json.find("\n]}"), std::string::npos);
}

TEST(TraceRecorder, ThreadsGetDistinctRings)
{
    TraceRecorder rec(16);
    rec.setEnabled(true);
    std::thread t1([&] { rec.instant("a"); });
    std::thread t2([&] { rec.instant("b"); });
    t1.join();
    t2.join();
    EXPECT_EQ(rec.eventCount(), 2u);

    std::ostringstream os;
    rec.writeChromeTrace(os);
    const std::string json = os.str();
    EXPECT_NE(json.find("\"name\":\"a\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"b\""), std::string::npos);
}

TEST(TraceRecorder, VirtualTracksGetHighTidsAnyThreadMayWrite)
{
    TraceRecorder rec(8);
    rec.setEnabled(true);
    rec.completeOnTrack(0, "pe.task", 0.0, 5.0);
    std::thread t([&] { rec.completeOnTrack(2, "pe.task", 5.0, 5.0); });
    t.join();
    EXPECT_EQ(rec.eventCount(), 2u);

    std::ostringstream os;
    rec.writeChromeTrace(os);
    const std::string json = os.str();
    // Tracks 0 and 2 render as tids kTrackBase + index, far above any
    // real thread ring's tid.
    const auto base = TraceRecorder::kTrackBase;
    EXPECT_NE(json.find("\"tid\":" + std::to_string(base)),
              std::string::npos);
    EXPECT_NE(json.find("\"tid\":" + std::to_string(base + 2)),
              std::string::npos);

    rec.clear();
    EXPECT_EQ(rec.eventCount(), 0u);
}

// ----------------------------------------------------------- convergence

TEST(Convergence, StrideDownsamplingBoundsMemoryKeepsOrderAndFinal)
{
    ConvergenceSeries series(1, "unit", 16);
    for (int i = 0; i < 1000; i++) {
        ConvergencePoint p;
        p.epochs = static_cast<double>(i);
        p.residual = 1000.0 - i;
        series.record(p);
    }
    EXPECT_LE(series.size(), 16u);
    const auto pts = series.points();
    ASSERT_GE(pts.size(), 2u);
    for (std::size_t i = 1; i < pts.size(); i++)
        EXPECT_LT(pts[i - 1].epochs, pts[i].epochs);

    // The run's last sample always lands, whatever the stride is.
    ConvergencePoint last;
    last.epochs = 5000.0;
    series.recordFinal(last);
    EXPECT_DOUBLE_EQ(series.back().epochs, 5000.0);
    EXPECT_LE(series.size(), 16u);
}

TEST(Convergence, RecorderRetainsBoundedSeriesAndRendersCsvJson)
{
    ConvergenceRecorder rec(2);
    auto a = rec.begin("a");
    {
        ConvergencePoint p;
        p.epochs = 1.0;
        p.residual = 0.5;
        p.activeVertices = 7;
        a->record(p);
    }
    rec.begin("b");
    rec.begin("c");
    EXPECT_EQ(rec.seriesCount(), 2u);
    EXPECT_EQ(rec.find("a"), nullptr);   // oldest evicted
    EXPECT_NE(rec.find("c"), nullptr);

    const std::string csv = ConvergenceRecorder::csv(*a);
    EXPECT_EQ(csv.rfind("series,label,epochs,residual,active_vertices,"
                        "vertex_updates,edge_traversals,wall_seconds,"
                        "sim_seconds\n",
                        0),
              0u);
    EXPECT_NE(csv.find(",a,1,"), std::string::npos);

    EXPECT_NE(rec.csv().find("series,label"), std::string::npos);
    const std::string json = rec.json();
    EXPECT_EQ(json.rfind("{\"series\":[", 0), 0u);
    EXPECT_NE(json.find("\"label\":\"b\""), std::string::npos);
}

// --------------------------------------------------------------- sampler

TEST(Sampler, SampleOnceSnapshotsCountersAndGauges)
{
    MetricsRegistry registry;
    registry.counter("jobs").add(5);
    registry.gauge("depth").set(2.5);
    Sampler sampler(registry, 64);

    sampler.sampleOnce();
    registry.counter("jobs").add(1);
    sampler.sampleOnce();

    EXPECT_EQ(sampler.seriesCount(), 2u);
    bool saw_counter = false, saw_gauge = false;
    for (const auto &series : sampler.series()) {
        if (series->key() == "counter:jobs") {
            saw_counter = true;
            ASSERT_EQ(series->size(), 2u);
            EXPECT_DOUBLE_EQ(series->points()[0].value, 5.0);
            EXPECT_DOUBLE_EQ(series->back().value, 6.0);
        } else if (series->key() == "gauge:depth") {
            saw_gauge = true;
            EXPECT_DOUBLE_EQ(series->back().value, 2.5);
        }
    }
    EXPECT_TRUE(saw_counter);
    EXPECT_TRUE(saw_gauge);

    const std::string csv = sampler.csv();
    EXPECT_EQ(csv.rfind("key,t_seconds,value\n", 0), 0u);
    EXPECT_NE(csv.find("counter:jobs,"), std::string::npos);
}

TEST(Sampler, BackgroundThreadRecordsOverTimeAndStops)
{
    MetricsRegistry registry;
    registry.gauge("load").set(1.0);
    Sampler sampler(registry, 64);
    sampler.start(0.001);
    EXPECT_TRUE(sampler.running());
    // Wait for at least a couple of ticks, bounded to stay robust on a
    // loaded CI machine.
    for (int i = 0; i < 200; i++) {
        if (sampler.seriesCount() > 0 &&
            sampler.series()[0]->size() >= 2)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    sampler.stop();
    EXPECT_FALSE(sampler.running());
    ASSERT_EQ(sampler.seriesCount(), 1u);
    EXPECT_GE(sampler.series()[0]->size(), 2u);
    // Series stay readable after stop, and restart keeps the time axis.
    const std::size_t before = sampler.series()[0]->size();
    sampler.start(0.001);
    sampler.stop();
    EXPECT_GE(sampler.series()[0]->size(), before);
}

// ------------------------------------------------------------ prometheus

namespace prom {

bool
validName(const std::string &name)
{
    if (name.empty())
        return false;
    auto ok_first = [](char c) {
        return std::isalpha(static_cast<unsigned char>(c)) || c == '_' ||
               c == ':';
    };
    auto ok_rest = [&](char c) {
        return ok_first(c) || std::isdigit(static_cast<unsigned char>(c));
    };
    if (!ok_first(name[0]))
        return false;
    for (char c : name.substr(1)) {
        if (!ok_rest(c))
            return false;
    }
    return true;
}

/**
 * Line-format validator for text exposition 0.0.4: every line is
 * either `# TYPE <name> <kind>` or `<name>[{labels}] <value>`.
 * @return true when the whole document parses; *why names the first
 * offending line otherwise.
 */
bool
validate(const std::string &text, std::string *why)
{
    std::size_t pos = 0;
    while (pos < text.size()) {
        std::size_t nl = text.find('\n', pos);
        if (nl == std::string::npos) {
            *why = "document does not end in a newline";
            return false;
        }
        const std::string line = text.substr(pos, nl - pos);
        pos = nl + 1;
        if (line.empty()) {
            *why = "empty line";
            return false;
        }
        if (line[0] == '#') {
            std::istringstream iss(line);
            std::string hash, keyword, name, kind;
            iss >> hash >> keyword >> name >> kind;
            if (hash != "#" || keyword != "TYPE" || !validName(name) ||
                (kind != "counter" && kind != "gauge" &&
                 kind != "histogram")) {
                *why = "bad comment line: " + line;
                return false;
            }
            continue;
        }
        const std::size_t sp = line.rfind(' ');
        if (sp == std::string::npos) {
            *why = "sample line without a value: " + line;
            return false;
        }
        std::string series = line.substr(0, sp);
        const std::string value = line.substr(sp + 1);
        char *end = nullptr;
        std::strtod(value.c_str(), &end);
        if (end == value.c_str() || *end != '\0') {
            *why = "unparsable value: " + line;
            return false;
        }
        const std::size_t brace = series.find('{');
        if (brace != std::string::npos) {
            if (series.back() != '}') {
                *why = "unterminated label set: " + line;
                return false;
            }
            series = series.substr(0, brace);
        }
        if (!validName(series)) {
            *why = "bad metric name: " + line;
            return false;
        }
    }
    return true;
}

} // namespace prom

TEST(Prometheus, NamesArePrefixedAndSanitised)
{
    EXPECT_EQ(prometheusName("engine.async.block_gas_us"),
              "graphabcd_engine_async_block_gas_us");
    EXPECT_EQ(prometheusName("harp.pe_utilization"),
              "graphabcd_harp_pe_utilization");
    EXPECT_TRUE(prom::validName(prometheusName("weird name!/7")));
}

TEST(Prometheus, TextExpositionIsWellFormed)
{
    MetricsSnapshot snap;
    snap.counters.emplace_back("serve.jobs", 3);
    snap.gauges.emplace_back("harp.pe_utilization", 0.5);
    Histogram h({1.0, 2.0});
    h.record(0.5);
    h.record(5.0);
    snap.histograms.emplace_back("lat.us", h.snapshot());

    const std::string text = prometheusText(snap);
    std::string why;
    EXPECT_TRUE(prom::validate(text, &why)) << why;

    EXPECT_NE(text.find("# TYPE graphabcd_serve_jobs_total counter"),
              std::string::npos);
    EXPECT_NE(text.find("graphabcd_serve_jobs_total 3"),
              std::string::npos);
    EXPECT_NE(text.find("graphabcd_harp_pe_utilization 0.5"),
              std::string::npos);
    // Histogram buckets are cumulative and end at le="+Inf" == count.
    EXPECT_NE(text.find("graphabcd_lat_us_bucket{le=\"1\"} 1"),
              std::string::npos);
    EXPECT_NE(text.find("graphabcd_lat_us_bucket{le=\"+Inf\"} 2"),
              std::string::npos);
    EXPECT_NE(text.find("graphabcd_lat_us_count 2"), std::string::npos);
}

TEST(Prometheus, GlobalRegistryExpositionValidates)
{
    MetricsRegistry::global().counter("test.prom_exposition").add(2);
    const std::string text = prometheusText();
    std::string why;
    EXPECT_TRUE(prom::validate(text, &why)) << why;
    EXPECT_NE(
        text.find("graphabcd_test_prom_exposition_total"),
        std::string::npos);
}

// -------------------------------------------------------- metrics server

TEST(MetricsServer, HandlePathRoutes)
{
    std::string body, content_type;
    EXPECT_TRUE(MetricsServer::handlePath("/metrics", &body,
                                          &content_type));
    EXPECT_NE(content_type.find("text/plain"), std::string::npos);
    EXPECT_TRUE(MetricsServer::handlePath("/series", &body,
                                          &content_type));
    EXPECT_TRUE(MetricsServer::handlePath("/convergence", &body,
                                          &content_type));
    EXPECT_TRUE(MetricsServer::handlePath("/convergence.json", &body,
                                          &content_type));
    EXPECT_NE(content_type.find("application/json"), std::string::npos);
    EXPECT_FALSE(MetricsServer::handlePath("/nope", &body,
                                           &content_type));
}

namespace {

/** One blocking HTTP/1.0 GET against loopback; returns the raw reply. */
std::string
httpGet(std::uint16_t port, const std::string &target)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return {};
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return {};
    }
    const std::string req =
        "GET " + target + " HTTP/1.0\r\nHost: localhost\r\n\r\n";
    (void)!::send(fd, req.data(), req.size(), 0);
    std::string reply;
    char buf[4096];
    for (;;) {
        const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n <= 0)
            break;
        reply.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fd);
    return reply;
}

} // namespace

TEST(MetricsServer, ServesPrometheusTextOverLoopback)
{
    MetricsRegistry::global().counter("test.server_metric").add(1);

    MetricsServer server;
    std::string error;
    ASSERT_TRUE(server.start(0, &error)) << error;
    ASSERT_GT(server.port(), 0);

    const std::string reply = httpGet(server.port(), "/metrics");
    ASSERT_NE(reply.find("HTTP/1.0 200 OK"), std::string::npos);
    ASSERT_NE(reply.find("\r\n\r\n"), std::string::npos);
    const std::string body =
        reply.substr(reply.find("\r\n\r\n") + 4);
    std::string why;
    EXPECT_TRUE(prom::validate(body, &why)) << why;
    EXPECT_NE(body.find("graphabcd_test_server_metric_total"),
              std::string::npos);

    EXPECT_NE(httpGet(server.port(), "/nope").find("404"),
              std::string::npos);

    server.stop();
    EXPECT_FALSE(server.running());
}

// ---------------------------------------------------------------- logger

TEST(Logger, PlainAndJsonFormatsAndLevelFilter)
{
    obs::Logger &logger = obs::Logger::global();
    const obs::LogLevel old_level = logger.level();
    const bool old_json = logger.json();

    std::vector<std::string> lines;
    logger.setSink([&lines](const std::string &line) {
        lines.push_back(line);
    });
    logger.setLevel(obs::LogLevel::Info);
    logger.setJson(false);

    obs::logAt(obs::LogLevel::Debug, "test", "filtered out");
    obs::logAt(obs::LogLevel::Info, "test", "job finished",
               obs::LogField("job", 3), obs::LogField("state", "done"),
               obs::LogField("ok", true));
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_NE(lines[0].find("INFO test: job finished job=3 state=done "
                            "ok=true"),
              std::string::npos);

    logger.setJson(true);
    obs::logAt(obs::LogLevel::Warn, "test", "queue \"full\"",
               obs::LogField("depth", 1.5));
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_EQ(lines[1].rfind("{\"ts\":\"", 0), 0u);
    EXPECT_NE(lines[1].find("\"level\":\"warn\""), std::string::npos);
    EXPECT_NE(lines[1].find("\"msg\":\"queue \\\"full\\\"\""),
              std::string::npos);
    // Numbers stay unquoted so `jq` sees them as numbers.
    EXPECT_NE(lines[1].find("\"depth\":1.5"), std::string::npos);

    logger.setSink(nullptr);
    logger.setLevel(old_level);
    logger.setJson(old_json);
}

TEST(Logger, ParseLevelNamesAndFallback)
{
    EXPECT_EQ(obs::parseLogLevel("debug"), obs::LogLevel::Debug);
    EXPECT_EQ(obs::parseLogLevel("error"), obs::LogLevel::Error);
    EXPECT_EQ(obs::parseLogLevel("off"), obs::LogLevel::Off);
    EXPECT_EQ(obs::parseLogLevel("nonsense", obs::LogLevel::Warn),
              obs::LogLevel::Warn);
    EXPECT_EQ(obs::parseLogLevel(nullptr, obs::LogLevel::Debug),
              obs::LogLevel::Debug);
}

// ----------------------------------------------- engine instrumentation

#if GRAPHABCD_OBS_ENABLED

TEST(EngineObs, AsyncStalenessIsBoundedByQueueAndThreads)
{
    // The engine's dispatch FIFO holds participation * 4 stamped
    // items; an item's measured staleness (block updates committed
    // between FIFO entry and claim) can only come from items claimed
    // before it — at most a FIFO's worth plus the blocks in flight on
    // the participants.  This is the bounded-staleness condition of
    // paper Sec. III-D, measured rather than assumed.
    constexpr std::uint32_t threads = 4;
    obs::Histogram &stale = obs::histogram(
        "engine.async.staleness_blocks", obs::stalenessBuckets());
    stale.reset();

    Rng rng(61);
    EdgeList el = generateRmat(400, 3200, rng);
    EngineOptions opt;
    opt.blockSize = 16;   // plenty of blocks to keep the queue full
    opt.numThreads = threads;
    opt.tolerance = 1e-10;
    BlockPartition g(el, opt.blockSize);
    AsyncEngine<PageRankProgram> engine(g, PageRankProgram(0.85), opt);
    std::vector<double> x;
    EngineReport report = engine.run(x);

    EXPECT_TRUE(report.converged);
    EXPECT_GT(stale.count(), 0u);
    EXPECT_LE(stale.max(), static_cast<double>(threads * 4 + threads));
}

TEST(EngineObs, AsyncRunRecordsLatencyFanoutAndSchedulerCounters)
{
    obs::Histogram &gas = obs::histogram("engine.async.block_gas_us",
                                         obs::latencyBucketsUs());
    obs::Histogram &fanout = obs::histogram(
        "engine.async.scatter_fanout", obs::fanoutBuckets());
    obs::Counter &activations = obs::counter("scheduler.activations");
    gas.reset();
    fanout.reset();
    activations.reset();

    Rng rng(62);
    EdgeList el = generateRmat(200, 1600, rng);
    EngineOptions opt;
    opt.blockSize = 16;
    opt.numThreads = 2;
    BlockPartition g(el, opt.blockSize);
    AsyncEngine<PageRankProgram> engine(g, PageRankProgram(), opt);
    std::vector<double> x;
    EngineReport report = engine.run(x);

    EXPECT_EQ(gas.count(), report.blockUpdates);
    EXPECT_EQ(fanout.count(), report.blockUpdates);
    EXPECT_GT(activations.value(), 0u);
}

TEST(EngineObs, SerialRunsPublishSchedulerCounters)
{
    // Every engine flushes its scheduler's tallies when a run ends, so
    // the scheduler.* counters cover serial runs in both modes too.
    obs::Counter &activations = obs::counter("scheduler.activations");
    Rng rng(65);
    EdgeList el = generateRmat(200, 1600, rng);
    BlockPartition g(el, 16);
    for (ExecMode mode : {ExecMode::Async, ExecMode::Bsp}) {
        activations.reset();
        EngineOptions opt;
        opt.blockSize = 16;
        opt.mode = mode;
        SerialEngine<PageRankProgram> engine(g, PageRankProgram(), opt);
        std::vector<double> x;
        engine.run(x);
        EXPECT_GE(activations.value(), g.numBlocks()) << to_string(mode);
    }
}

TEST(EngineObs, SerialPageRankConvergenceCurveIsMonotone)
{
    Rng rng(63);
    EdgeList el = generateRmat(300, 2400, rng);
    EngineOptions opt;
    opt.blockSize = 32;
    auto series = std::make_shared<ConvergenceSeries>(1, "pr-serial");
    opt.convergence = series;
    BlockPartition g(el, opt.blockSize);
    SerialEngine<PageRankProgram> engine(g, PageRankProgram(), opt);
    std::vector<double> x;
    EngineReport report = engine.run(x);
    EXPECT_TRUE(report.converged);

    // This is the paper's Fig. 9-11 claim in miniature: the residual
    // (window L1 delta) of a PageRank run decays monotonically.
    const auto pts = series->points();
    ASSERT_GE(pts.size(), 2u);
    for (std::size_t i = 1; i < pts.size(); i++) {
        EXPECT_LE(pts[i].residual, pts[i - 1].residual + 1e-12)
            << "residual rose at sample " << i;
        EXPECT_LT(pts[i - 1].epochs, pts[i].epochs);
    }
    // The final CSV row is the report's residual, by construction.
    EXPECT_DOUBLE_EQ(pts.back().residual, report.residual);
    EXPECT_EQ(pts.back().vertexUpdates, report.vertexUpdates);

    const std::string csv = ConvergenceRecorder::csv(*series);
    EXPECT_EQ(csv.rfind("series,label,epochs,residual,", 0), 0u);
}

TEST(EngineObs, AsyncEngineRecordsConvergenceAndFinalResidual)
{
    Rng rng(64);
    EdgeList el = generateRmat(200, 1600, rng);
    EngineOptions opt;
    opt.blockSize = 16;
    opt.numThreads = 2;
    auto series = std::make_shared<ConvergenceSeries>(2, "pr-async");
    opt.convergence = series;
    BlockPartition g(el, opt.blockSize);
    AsyncEngine<PageRankProgram> engine(g, PageRankProgram(), opt);
    std::vector<double> x;
    EngineReport report = engine.run(x);
    EXPECT_TRUE(report.converged);

    ASSERT_GE(series->size(), 1u);
    EXPECT_DOUBLE_EQ(series->back().residual, report.residual);
    EXPECT_EQ(series->back().vertexUpdates, report.vertexUpdates);
}

TEST(EngineObs, GraphMatBaselineRecordsOneSamplePerSuperstep)
{
    Rng rng(65);
    EdgeList el = generateRmat(200, 1600, rng);
    const auto degs = el.outDegrees();
    graphmat::GraphMatEngine<graphmat::PageRankSpmv> engine(
        el, graphmat::PageRankSpmv(0.85, degs));
    auto series = std::make_shared<ConvergenceSeries>(3, "pr-graphmat");
    engine.setConvergenceSeries(series);

    std::vector<graphmat::PageRankSpmv::Value> values;
    const graphmat::GraphMatReport report =
        engine.run(values, 1e-9, 200);

    EXPECT_EQ(series->size(), report.iterations);
    const auto pts = series->points();
    for (std::size_t i = 1; i < pts.size(); i++)
        EXPECT_LE(pts[i].residual, pts[i - 1].residual + 1e-12);
    EXPECT_EQ(pts.back().vertexUpdates, report.vertexUpdates);
}

// ------------------------------------------- causal tracing / health

// A tiny recursive-descent JSON parser — just enough to *prove* the
// Chrome-trace exporter and the flight recorder emit well-formed JSON
// (the acceptance bar is "chrome://tracing and jq can load it", not
// substring containment).  Not general: \u escapes decode to '?'.
struct JsonValue
{
    enum class Kind { Null, Bool, Number, String, Array, Object };
    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string text;
    std::vector<JsonValue> items;
    std::map<std::string, JsonValue> members;

    const JsonValue *
    find(const std::string &key) const
    {
        auto it = members.find(key);
        return it == members.end() ? nullptr : &it->second;
    }
};

class JsonParser
{
  public:
    explicit JsonParser(const std::string &in) : in_(in) {}

    bool
    parse(JsonValue *out, std::string *why)
    {
        skipWs();
        if (!parseValue(out)) {
            *why = error_.empty() ? "parse error" : error_;
            return false;
        }
        skipWs();
        if (pos_ != in_.size()) {
            *why = "trailing garbage at byte " + std::to_string(pos_);
            return false;
        }
        return true;
    }

  private:
    bool
    fail(const std::string &what)
    {
        if (error_.empty())
            error_ = what + " at byte " + std::to_string(pos_);
        return false;
    }

    void
    skipWs()
    {
        while (pos_ < in_.size() &&
               std::isspace(static_cast<unsigned char>(in_[pos_])))
            pos_++;
    }

    bool
    consume(char c)
    {
        if (pos_ < in_.size() && in_[pos_] == c) {
            pos_++;
            return true;
        }
        return false;
    }

    bool
    parseValue(JsonValue *out)
    {
        if (pos_ >= in_.size())
            return fail("unexpected end of input");
        const char c = in_[pos_];
        if (c == '{')
            return parseObject(out);
        if (c == '[')
            return parseArray(out);
        if (c == '"') {
            out->kind = JsonValue::Kind::String;
            return parseString(&out->text);
        }
        if (c == 't' || c == 'f' || c == 'n')
            return parseLiteral(out);
        return parseNumber(out);
    }

    bool
    parseLiteral(JsonValue *out)
    {
        auto match = [&](const char *word) {
            const std::size_t n = std::strlen(word);
            if (in_.compare(pos_, n, word) != 0)
                return false;
            pos_ += n;
            return true;
        };
        if (match("true")) {
            out->kind = JsonValue::Kind::Bool;
            out->boolean = true;
            return true;
        }
        if (match("false")) {
            out->kind = JsonValue::Kind::Bool;
            out->boolean = false;
            return true;
        }
        if (match("null")) {
            out->kind = JsonValue::Kind::Null;
            return true;
        }
        return fail("bad literal");
    }

    bool
    parseNumber(JsonValue *out)
    {
        const char *start = in_.c_str() + pos_;
        char *end = nullptr;
        const double v = std::strtod(start, &end);
        if (end == start)
            return fail("bad number");
        pos_ += static_cast<std::size_t>(end - start);
        out->kind = JsonValue::Kind::Number;
        out->number = v;
        return true;
    }

    bool
    parseString(std::string *out)
    {
        if (!consume('"'))
            return fail("expected '\"'");
        out->clear();
        while (pos_ < in_.size()) {
            const char c = in_[pos_++];
            if (c == '"')
                return true;
            if (c != '\\') {
                out->push_back(c);
                continue;
            }
            if (pos_ >= in_.size())
                return fail("dangling escape");
            const char e = in_[pos_++];
            switch (e) {
              case '"': out->push_back('"'); break;
              case '\\': out->push_back('\\'); break;
              case '/': out->push_back('/'); break;
              case 'b': out->push_back('\b'); break;
              case 'f': out->push_back('\f'); break;
              case 'n': out->push_back('\n'); break;
              case 'r': out->push_back('\r'); break;
              case 't': out->push_back('\t'); break;
              case 'u':
                if (pos_ + 4 > in_.size())
                    return fail("short \\u escape");
                pos_ += 4;
                out->push_back('?');
                break;
              default:
                return fail("bad escape");
            }
        }
        return fail("unterminated string");
    }

    bool
    parseArray(JsonValue *out)
    {
        consume('[');
        out->kind = JsonValue::Kind::Array;
        skipWs();
        if (consume(']'))
            return true;
        for (;;) {
            JsonValue item;
            skipWs();
            if (!parseValue(&item))
                return false;
            out->items.push_back(std::move(item));
            skipWs();
            if (consume(']'))
                return true;
            if (!consume(','))
                return fail("expected ',' or ']'");
        }
    }

    bool
    parseObject(JsonValue *out)
    {
        consume('{');
        out->kind = JsonValue::Kind::Object;
        skipWs();
        if (consume('}'))
            return true;
        for (;;) {
            skipWs();
            std::string key;
            if (!parseString(&key))
                return false;
            skipWs();
            if (!consume(':'))
                return fail("expected ':'");
            skipWs();
            JsonValue value;
            if (!parseValue(&value))
                return false;
            out->members.emplace(std::move(key), std::move(value));
            skipWs();
            if (consume('}'))
                return true;
            if (!consume(','))
                return fail("expected ',' or '}'");
        }
    }

    const std::string &in_;
    std::size_t pos_ = 0;
    std::string error_;
};

bool
parseJson(const std::string &text, JsonValue *out, std::string *why)
{
    return JsonParser(text).parse(out, why);
}

struct SpanNode
{
    std::string name;
    std::uint64_t parent = 0;
};

/** span id -> {name, parent} for every event of `job` in a parsed
 *  Chrome trace (the serve.submit instant shares the root's span id,
 *  so root still maps to a single node). */
std::map<std::uint64_t, SpanNode>
spanTreeOf(const JsonValue &doc, std::uint64_t job)
{
    std::map<std::uint64_t, SpanNode> tree;
    const JsonValue *events = doc.find("traceEvents");
    if (!events)
        return tree;
    for (const JsonValue &e : events->items) {
        const JsonValue *args = e.find("args");
        const JsonValue *name = e.find("name");
        if (!args || !name)
            continue;
        const JsonValue *j = args->find("job");
        const JsonValue *s = args->find("span");
        const JsonValue *p = args->find("parent");
        if (!j || !s || !p ||
            static_cast<std::uint64_t>(j->number) != job)
            continue;
        tree[static_cast<std::uint64_t>(s->number)] =
            SpanNode{name->text, static_cast<std::uint64_t>(p->number)};
    }
    return tree;
}

TEST(TraceRecorder, RingOverwriteCountsDrops)
{
    const std::uint64_t before =
        MetricsRegistry::global().counter("obs.trace.dropped").value();

    TraceRecorder rec(4);
    rec.setEnabled(true);
    for (int i = 0; i < 10; i++)
        rec.complete("e", static_cast<double>(i), 1.0);

    EXPECT_EQ(rec.eventCount(), 4u);    // ring keeps the newest 4
    EXPECT_EQ(rec.droppedCount(), 6u);  // ...and owns up to the rest
    EXPECT_EQ(MetricsRegistry::global().counter("obs.trace.dropped")
                  .value() - before,
              6u);

    rec.clear();
    EXPECT_EQ(rec.eventCount(), 0u);
    EXPECT_EQ(rec.droppedCount(), 0u);
}

TEST(TraceRecorder, ChromeExportWithSpanArgsIsWellFormedJson)
{
    TraceRecorder rec(64);
    rec.setEnabled(true);
    rec.complete("root", 10.0, 5.0, /*job=*/7, /*span=*/100,
                 /*parent=*/0);
    rec.complete("child", 11.0, 1.0, 7, 101, 100);
    rec.instant("na\"me\nwith\\escapes");  // exporter must escape these

    std::ostringstream os;
    rec.writeChromeTrace(os);

    JsonValue doc;
    std::string why;
    ASSERT_TRUE(parseJson(os.str(), &doc, &why)) << why;
    const JsonValue *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_EQ(events->kind, JsonValue::Kind::Array);
    EXPECT_EQ(events->items.size(), 3u);

    bool found_child = false;
    for (const JsonValue &e : events->items) {
        const JsonValue *name = e.find("name");
        ASSERT_NE(name, nullptr);
        if (name->text != "child")
            continue;
        found_child = true;
        const JsonValue *args = e.find("args");
        ASSERT_NE(args, nullptr);
        EXPECT_EQ(args->find("job")->number, 7.0);
        EXPECT_EQ(args->find("span")->number, 101.0);
        EXPECT_EQ(args->find("parent")->number, 100.0);
    }
    EXPECT_TRUE(found_child);
}

TEST(CausalSpan, ExecutorTasksInheritTheSubmittersSpanTree)
{
    TraceRecorder &rec = TraceRecorder::global();
    rec.clear();
    rec.setEnabled(true);

    const obs::SpanContext root{/*job=*/7, obs::nextSpanId(),
                                /*parent=*/0};
    {
        Executor exec(2);
        // participation 2 < 4 submits: the last two ride the backlog,
        // which must carry the captured context just like the fast path.
        auto job = exec.createJob(2);
        {
            obs::SpanScope adopt(root);
            for (int i = 0; i < 4; i++)
                job->submit([] { obs::Span inner("test.inner"); });
        }
        job->wait();
    }
    rec.setEnabled(false);

    std::ostringstream os;
    rec.writeChromeTrace(os);
    rec.clear();

    JsonValue doc;
    std::string why;
    ASSERT_TRUE(parseJson(os.str(), &doc, &why)) << why;
    const auto tree = spanTreeOf(doc, 7);

    std::size_t tasks = 0;
    std::size_t inners = 0;
    for (const auto &[span, node] : tree) {
        (void)span;
        if (node.name == "executor.task") {
            tasks++;
            EXPECT_EQ(node.parent, root.span);
        } else if (node.name == "test.inner") {
            inners++;
            const auto parent = tree.find(node.parent);
            ASSERT_NE(parent, tree.end());
            EXPECT_EQ(parent->second.name, "executor.task");
        }
    }
    EXPECT_EQ(tasks, 4u);
    EXPECT_EQ(inners, 4u);
}

TEST(CausalSpan, RequeuedTasksStaySiblingsUnderTheSubmitter)
{
    // Threaded engines requeue a pool task by resubmitting it from
    // inside itself.  Each requeue must hang off the original
    // submitter's span, not off the previous task: nesting one level
    // per requeue made long runs' trees deeper than any tree walk
    // allows (the observability drill in tools/ci.sh caps it at 64).
    TraceRecorder &rec = TraceRecorder::global();
    rec.clear();
    rec.setEnabled(true);

    constexpr int kRequeues = 100;
    const obs::SpanContext root{/*job=*/8, obs::nextSpanId(),
                                /*parent=*/0};
    {
        Executor exec(2);
        auto job = exec.createJob(1);
        std::atomic<int> left{kRequeues};
        std::function<void()> task;
        task = [&] {
            if (left.fetch_sub(1) > 1)
                job->submit(task);
        };
        {
            obs::SpanScope adopt(root);
            job->submit(task);
        }
        job->wait();
    }
    rec.setEnabled(false);

    std::ostringstream os;
    rec.writeChromeTrace(os);
    rec.clear();

    JsonValue doc;
    std::string why;
    ASSERT_TRUE(parseJson(os.str(), &doc, &why)) << why;
    std::size_t tasks = 0;
    for (const auto &[span, node] : spanTreeOf(doc, 8)) {
        (void)span;
        if (node.name == "executor.task") {
            tasks++;
            EXPECT_EQ(node.parent, root.span);
        }
    }
    EXPECT_EQ(tasks, static_cast<std::size_t>(kRequeues));
}

TEST(ServeObs, FragmentServeJobFormsOneCausalSpanTree)
{
    TraceRecorder &rec = TraceRecorder::global();
    rec.clear();
    rec.setEnabled(true);

    Rng rng(91);
    GraphRegistry registry;
    registry.add("g", generateRmat(300, 2400, rng), 32);
    ServeConfig cfg;
    cfg.workers = 1;
    JobManager manager(registry, cfg);

    JobRequest req;
    req.graph = "g";
    req.algo = "pr";
    req.engine = "fragment";
    req.options.fragments = 4;
    req.options.numThreads = 2;
    req.allowCached = false;
    req.allowWarmStart = false;
    const auto sub = manager.submit(req);
    ASSERT_TRUE(sub.ok());
    ASSERT_TRUE(manager.wait(sub.id, 60.0));
    manager.shutdown();
    rec.setEnabled(false);

    std::ostringstream os;
    rec.writeChromeTrace(os);
    rec.clear();

    JsonValue doc;
    std::string why;
    ASSERT_TRUE(parseJson(os.str(), &doc, &why)) << why;
    const auto tree = spanTreeOf(doc, sub.id);
    ASSERT_FALSE(tree.empty());

    // Exactly one root (parent == 0): the serve.job span.
    std::uint64_t root = 0;
    std::size_t roots = 0;
    for (const auto &[span, node] : tree) {
        if (node.parent == 0) {
            root = span;
            roots++;
        }
    }
    EXPECT_EQ(roots, 1u);

    // Every span reaches the root through recorded parents: one
    // causally connected tree, no orphans.
    for (const auto &[span, node] : tree) {
        (void)node;
        std::uint64_t cur = span;
        int steps = 0;
        while (cur != root) {
            const auto it = tree.find(cur);
            ASSERT_NE(it, tree.end())
                << "span " << span << " orphaned at " << cur;
            cur = it->second.parent;
            ASSERT_LT(++steps, 64);
        }
    }

    // The tree contains each layer of the job's execution.
    std::map<std::string, std::size_t> names;
    for (const auto &[span, node] : tree) {
        (void)span;
        names[node.name]++;
    }
    EXPECT_GE(names["serve.queue_wait"], 1u);
    EXPECT_GE(names["serve.run"], 1u);
    EXPECT_GE(names["engine.fragment.run"], 1u);
    EXPECT_GE(names["fragment.pump"], 1u);
    EXPECT_GE(names["executor.task"], 1u);
}

TEST(Histogram, ExemplarLinksASampleToItsSpan)
{
    obs::Histogram h({1.0, 10.0});
    h.recordExemplar(5.0, /*job=*/42, /*span=*/99);
    h.record(0.5);   // plain samples do not disturb the exemplar

    const auto snap = h.snapshot();
    EXPECT_EQ(snap.count, 2u);
    ASSERT_TRUE(snap.hasExemplar);
    EXPECT_DOUBLE_EQ(snap.exemplarValue, 5.0);
    EXPECT_EQ(snap.exemplarJob, 42u);
    EXPECT_EQ(snap.exemplarSpan, 99u);

    h.reset();
    EXPECT_FALSE(h.snapshot().hasExemplar);

    obs::histogram("test.exemplar_us", {1.0, 10.0})
        .recordExemplar(7.0, 11, 12);
    const std::string dump = obs::dumpMetrics();
    EXPECT_NE(dump.find("ex_job=11"), std::string::npos) << dump;
    EXPECT_NE(dump.find("ex_span=12"), std::string::npos) << dump;
}

TEST(ServeObs, TenantMetricKeysAreSanitized)
{
    EXPECT_EQ(obs::sanitizeMetricComponent("bad tenant\"name"),
              "bad_tenant_name");
    EXPECT_EQ(obs::sanitizeMetricComponent(""), "_");

    Rng rng(17);
    GraphRegistry registry;
    registry.add("g", generateRmat(120, 700, rng), 32);
    ServeConfig cfg;
    cfg.workers = 1;
    JobManager manager(registry, cfg);

    JobRequest req;
    req.graph = "g";
    req.algo = "pr";
    req.engine = "serial";
    req.tenant = "bad tenant\"name";
    req.allowCached = false;
    req.allowWarmStart = false;
    const auto sub = manager.submit(req);
    ASSERT_TRUE(sub.ok());
    ASSERT_TRUE(manager.wait(sub.id, 30.0));

    // The QoS lane keeps the raw name; only metric keys are sanitized.
    EXPECT_EQ(manager.tenantStats().count("bad tenant\"name"), 1u);
    const std::string dump = obs::dumpMetrics();
    EXPECT_NE(dump.find("serve.tenant.bad_tenant_name."),
              std::string::npos);
    EXPECT_EQ(dump.find("tenant\"name"), std::string::npos);

    std::string why;
    EXPECT_TRUE(prom::validate(obs::prometheusText(), &why)) << why;
    manager.shutdown();
}

TEST(StallWatchdog, FlagsFlatProgressAndRecoversPerEpisode)
{
    obs::StallWatchdog::Config cfg;
    cfg.windowSeconds = 0.05;
    cfg.checkSeconds = 3600.0;   // pollNow() drives every check
    cfg.dumpFlightOnStall = false;
    obs::StallWatchdog dog(cfg);  // no start(): fully deterministic

    std::atomic<std::uint64_t> counter{0};
    std::string diagnosis;       // written by pollNow() on this thread
    dog.watch(1, "unit-task", [&] { return counter.load(); },
              [&](const std::string &d) { diagnosis = d; });

    dog.pollNow();
    EXPECT_FALSE(dog.isFlagged(1));   // window not yet elapsed

    std::this_thread::sleep_for(std::chrono::milliseconds(80));
    dog.pollNow();
    EXPECT_TRUE(dog.isFlagged(1));
    EXPECT_EQ(dog.stallEvents(), 1u);
    EXPECT_EQ(dog.flaggedCount(), 1u);
    EXPECT_NE(diagnosis.find("no progress"), std::string::npos)
        << diagnosis;

    counter++;                        // progress resumes...
    dog.pollNow();
    EXPECT_FALSE(dog.isFlagged(1));   // ...task recovers
    EXPECT_EQ(dog.flaggedCount(), 0u);
    EXPECT_EQ(dog.stallEvents(), 1u);

    std::this_thread::sleep_for(std::chrono::milliseconds(80));
    dog.pollNow();                    // flat again: a second episode
    EXPECT_TRUE(dog.isFlagged(1));
    EXPECT_EQ(dog.stallEvents(), 2u);

    dog.unwatch(1);
    EXPECT_EQ(dog.flaggedCount(), 0u);
    EXPECT_EQ(MetricsRegistry::global().gauge("serve.jobs.stalled")
                  .value(),
              0.0);
}

TEST(ServeObs, WatchdogCancelsWedgedJobWithStallDiagnosis)
{
    ::setenv("GRAPHABCD_ENABLE_WEDGE_ENGINE", "1", 1);
    const std::uint64_t events_before =
        MetricsRegistry::global()
            .counter("serve.jobs.stall_events")
            .value();

    Rng rng(23);
    GraphRegistry registry;
    registry.add("g", generateRmat(60, 300, rng), 32);
    ServeConfig cfg;
    cfg.workers = 1;
    cfg.stallWindowSeconds = 0.1;
    cfg.stallCheckSeconds = 0.02;
    cfg.cancelOnStall = true;
    JobManager manager(registry, cfg);

    JobRequest req;
    req.graph = "g";
    req.algo = "pr";
    req.engine = "wedge";   // burns wall-clock, never touches Progress
    req.allowCached = false;
    req.allowWarmStart = false;
    const auto sub = manager.submit(req);
    ASSERT_TRUE(sub.ok());
    ASSERT_TRUE(manager.wait(sub.id, 20.0));

    const auto status = manager.status(sub.id);
    ASSERT_TRUE(status.has_value());
    EXPECT_EQ(status->state, JobState::Cancelled);
    EXPECT_EQ(status->error.rfind("stalled:", 0), 0u) << status->error;
    EXPECT_GE(MetricsRegistry::global()
                  .counter("serve.jobs.stall_events")
                  .value(),
              events_before + 1);
    manager.shutdown();
    ::unsetenv("GRAPHABCD_ENABLE_WEDGE_ENGINE");
}

TEST(FlightRecorder, FatalDumpWritesParseableBlackBox)
{
    Rng rng(29);
    GraphRegistry registry;
    registry.add("g", generateRmat(60, 300, rng), 32);
    ServeConfig cfg;
    cfg.workers = 1;
    JobManager manager(registry, cfg);   // registers the serve provider

    const std::string path =
        testing::TempDir() + "graphabcd_flight_test.json";
    std::remove(path.c_str());
    obs::flightArm(path);
    obs::flightNote("test", "before the crash");
    EXPECT_THROW(fatal("obs-test: deliberate fatal"), FatalError);
    obs::flightDisarm();

    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << "no flight dump at " << path;
    std::stringstream buf;
    buf << in.rdbuf();

    JsonValue doc;
    std::string why;
    ASSERT_TRUE(parseJson(buf.str(), &doc, &why)) << why;

    const JsonValue *reason = doc.find("reason");
    ASSERT_NE(reason, nullptr);
    EXPECT_EQ(reason->text.rfind("fatal:", 0), 0u) << reason->text;
    EXPECT_NE(reason->text.find("obs-test"), std::string::npos);

    const JsonValue *metrics = doc.find("metrics");
    ASSERT_NE(metrics, nullptr);
    EXPECT_NE(metrics->find("counters"), nullptr);
    EXPECT_NE(metrics->find("gauges"), nullptr);
    EXPECT_NE(metrics->find("histograms"), nullptr);

    const JsonValue *trace = doc.find("trace");
    ASSERT_NE(trace, nullptr);
    EXPECT_NE(trace->find("traceEvents"), nullptr);

    const JsonValue *providers = doc.find("providers");
    ASSERT_NE(providers, nullptr);
    EXPECT_NE(providers->find("serve"), nullptr);

    const JsonValue *notes = doc.find("notes");
    ASSERT_NE(notes, nullptr);
    bool noted = false;
    for (const JsonValue &n : notes->items) {
        const JsonValue *text = n.find("text");
        if (text &&
            text->text.find("before the crash") != std::string::npos)
            noted = true;
    }
    EXPECT_TRUE(noted);

    manager.shutdown();
    std::remove(path.c_str());
}

// Named its own suite so the tsan CI leg can select it by filter.
TEST(MetricsServerStress, ConcurrentScrapesGetCompleteBodies)
{
    MetricsRegistry::global().counter("test.stress_sentinel").add(1);

    MetricsServer server;
    std::string error;
    ASSERT_TRUE(server.start(0, &error)) << error;
    ASSERT_GT(server.port(), 0);

    std::atomic<bool> stop{false};
    std::thread recorder([&] {
        obs::Histogram &h = obs::histogram("test.stress_hist_us",
                                           obs::latencyBucketsUs());
        std::uint64_t i = 0;
        while (!stop.load(std::memory_order_relaxed)) {
            i++;
            h.recordExemplar(static_cast<double>(i % 1000), i, i);
        }
    });

    std::atomic<int> failures{0};
    std::vector<std::thread> scrapers;
    for (int t = 0; t < 4; t++) {
        scrapers.emplace_back([&] {
            for (int i = 0; i < 25; i++) {
                const std::string reply =
                    httpGet(server.port(), "/metrics");
                if (reply.find("HTTP/1.0 200 OK") ==
                        std::string::npos ||
                    reply.find("\r\n\r\n") == std::string::npos ||
                    reply.find("test_stress_sentinel") ==
                        std::string::npos)
                    failures.fetch_add(1);
            }
        });
    }
    for (std::thread &t : scrapers)
        t.join();
    stop.store(true);
    recorder.join();

    EXPECT_EQ(failures.load(), 0);
    server.stop();
}

#endif // GRAPHABCD_OBS_ENABLED

} // namespace
} // namespace graphabcd
