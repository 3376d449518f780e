#include "common.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>

#include "support/timer.hh"

namespace perfbench {

void
Report::fail(const std::string &cell)
{
    failed++;
    failures.push_back(cell);
}

const std::vector<MetricDecl> &
endToEndCatalog()
{
    static const std::vector<MetricDecl> k = {
        {"setup_s", "s"},
        {"solve_serial_s", "s"},
        {"solve_async_s", "s"},
        {"solve_accum_s", "s"},
        {"solve_fragment_s", "s"},
        {"job_p50_ms", "ms"},
        {"job_p99_ms", "ms"},
        {"slo_share", "share"},
        {"ok_share", "share"},
        {"peak_rss_mb", "MiB"},
    };
    return k;
}

const std::vector<MetricDecl> &
perLayerCatalog()
{
    static const std::vector<MetricDecl> k = [] {
        std::vector<MetricDecl> v = {
            {"host.nproc", "count"},
            {"host.parallel_eff", "share"},
            {"host.triad_gbps", "GB/s"},
            {"host.cache_knee_mb", "MiB"},
            {"graph.generate_s", "s"},
            {"graph.partition_s", "s"},
            {"graph.working_set_mb", "MiB"},
            {"graph.gather_bytes_per_edge", "B"},
            {"graph.scatter_bytes_per_edge", "B"},
            {"graph.decode_ns_per_edge", "ns"},
        };
        for (std::string e : {"serial", "async", "accum", "fragment"}) {
            v.push_back({"core." + e + ".epochs", "epochs"});
            v.push_back({"core." + e + ".edge_traversals", "count"});
            v.push_back({"core." + e + ".block_updates", "count"});
            v.push_back({"core." + e + ".mtes", "Medge/s"});
            v.push_back({"core." + e + ".gbps", "GB/s"});
            v.push_back({"core." + e + ".roofline_frac", "share"});
        }
        const std::vector<MetricDecl> rest = {
            {"core.scheduler.activations_per_block_update", "ratio"},
            {"core.scheduler.stale_discard_ratio", "share"},
            {"core.accum.foldback_ratio", "share"},
            {"core.async.staleness_p99_blocks", "blocks"},
            {"fragment.messages_per_edge", "ratio"},
            {"fragment.epoch_inflation", "ratio"},
            {"runtime.async.cpu_util", "share"},
            {"runtime.accum.cpu_util", "share"},
            {"runtime.fragment.cpu_util", "share"},
            {"serve.submit_us_p50", "us"},
            {"serve.submit_us_p99", "us"},
            {"serve.queue_wait_ms_p50", "ms"},
            {"serve.queue_wait_ms_p99", "ms"},
            {"serve.queue_depth_max", "count"},
            {"serve.backlog_growth", "count"},
            {"serve.busy_share", "share"},
            {"serve.run_ms_p50", "ms"},
            {"serve.run_ms_p99", "ms"},
            {"serve.cache_hit_rate", "share"},
            {"serve.warm_start_rate", "share"},
            {"serve.shed_share", "share"},
            {"serve.gen_late_ms_p99", "ms"},
            {"obs.tracing_overhead", "share"},
        };
        v.insert(v.end(), rest.begin(), rest.end());
        for (const char *s :
             {"graph.generate", "graph.partition", "graph.decode_pass",
              "core.serial.run", "core.async.run", "core.accum.run",
              "core.fragment.run", "serve.submit", "serve.job",
              "serve.queue", "serve.run"}) {
            v.push_back({std::string("span.") + s + ".self_ms", "ms"});
        }
        return v;
    }();
    return k;
}

void
info(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    std::fputs("# ", stdout);
    std::vprintf(fmt, ap);
    std::fputc('\n', stdout);
    va_end(ap);
    std::fflush(stdout);
}

void
printResult(const Report &report, bool trace)
{
    const auto &decls = trace ? perLayerCatalog() : endToEndCatalog();
    const auto &values = trace ? report.perLayer : report.endToEnd;
    for (const std::string &cell : report.failures)
        info("FAILED cell: %s", cell.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                report.failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(report.attempted),
                static_cast<unsigned long long>(report.failed));
    bool first = true;
    for (const MetricDecl &d : decls) {
        auto it = values.find(d.name);
        double v = it == values.end() ? 0.0 : it->second;
        if (!std::isfinite(v))
            v = 0.0;
        std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                    first ? "" : ", ", d.name.c_str(), v, d.unit.c_str());
        first = false;
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
mean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double s = 0.0;
    for (double x : v)
        s += x;
    return s / static_cast<double>(v.size());
}

double
geomean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double x : v)
        log_sum += std::log(x);
    return std::exp(log_sum / static_cast<double>(v.size()));
}

double
processCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;   // KiB on Linux
}

double
now()
{
    return graphabcd::monotonicSeconds();
}

} // namespace perfbench
