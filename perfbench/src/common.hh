/**
 * @file
 * Shared pieces of the perfbench harness: command-line arguments, the
 * metric report printed as the final JSON line, order statistics and a
 * few process probes (CPU time, peak RSS).
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** Parsed command line (see main.cc for the flags). */
struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Smoke mode: tiny inputs and a short window, same code paths. */
    bool tiny = false;
    /** Where the traced run writes its Chrome trace JSON. */
    std::string traceOut;
    /** Source commit being measured, for the build fingerprint. */
    std::string commit;
};

/** One named metric value with its unit. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};

/**
 * Everything a workload reports.  `endToEnd` is printed by untraced
 * runs and `perLayer` by traced ones; the printer fills every declared
 * name (metricCatalog) and emits 0 for a per-layer metric the workload
 * does not exercise.
 */
struct Report
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Named cells that failed the correctness gate. */
    std::vector<std::string> failures;
    std::map<std::string, double> endToEnd;
    std::map<std::string, double> perLayer;
    /** Non-empty when the run measured itself rather than the program
     *  (e.g. a late load generator): no result is printed. */
    std::string invalid;

    /** Record a failed cell (counted in `failed`). */
    void fail(const std::string &cell);
};

/** Declared metric names and units, in BENCHMARK.json order. */
struct MetricDecl
{
    std::string name;
    std::string unit;
};
const std::vector<MetricDecl> &endToEndCatalog();
const std::vector<MetricDecl> &perLayerCatalog();

/** Print an informational line ("# ...") to stdout. */
void info(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Print the final JSON result line for the selected metric set. */
void printResult(const Report &report, bool trace);

// ------------------------------------------------------------- stats

/** Linear-interpolated quantile (q in [0,1]); 0 for an empty sample. */
double quantile(std::vector<double> v, double q);

inline double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

/** Mean of a sample; 0 for an empty sample. */
double mean(const std::vector<double> &v);

/** Geometric mean of positive values; 0 for an empty sample. */
double geomean(const std::vector<double> &v);

// ----------------------------------------------------- process probes

/** User + system CPU seconds consumed by this process so far. */
double processCpuSeconds();

/** Peak resident set size of this process in MiB. */
double peakRssMb();

/** Seconds on the steady clock the library uses (support/timer.hh). */
double now();

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
