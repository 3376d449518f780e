/**
 * @file
 * perfbench: the repository's benchmark harness.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--tiny] [--trace-out PATH] [--commit SHA]
 *
 * Workloads: pr-lj-incache, sssp-ps-packed, serve-open (see
 * perfbench/README.md).  Informational lines start with '#'; the last
 * line of stdout is one JSON object {correct, attempted, failed,
 * metrics}.  --trace 0 prints the end-to-end metrics, --trace 1 the
 * per-layer metrics of a separate traced run and writes its spans as
 * Chrome trace JSON to --trace-out.  --commit names the measured source
 * commit in the build fingerprint.
 */

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "common.hh"
#include "host.hh"
#include "obs/obs.hh"
#include "runtime/executor.hh"
#include "spans.hh"
#include "workloads.hh"

using namespace perfbench;

namespace {

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "pr-lj-incache|sssp-ps-packed|serve-open --seed N "
                 "--seconds S --trace 0|1 [--tiny] [--trace-out PATH] "
                 "[--commit SHA]\n",
                 why);
    return 2;
}

bool
parseArgs(int argc, char **argv, Args &args, std::string &err)
{
    for (int i = 1; i < argc; i++) {
        const std::string flag = argv[i];
        if (flag == "--tiny") {
            args.tiny = true;
            continue;
        }
        if (i + 1 >= argc) {
            err = "missing value for " + flag;
            return false;
        }
        const std::string value = argv[++i];
        try {
            if (flag == "--workload")
                args.workload = value;
            else if (flag == "--seed")
                args.seed = std::stoull(value);
            else if (flag == "--seconds")
                args.seconds = std::stod(value);
            else if (flag == "--trace")
                args.trace = std::stoi(value) != 0;
            else if (flag == "--trace-out")
                args.traceOut = value;
            else if (flag == "--commit")
                args.commit = value;
            else {
                err = "unknown flag " + flag;
                return false;
            }
        } catch (const std::exception &) {
            err = "bad value for " + flag + ": " + value;
            return false;
        }
    }
    if (args.workload != "pr-lj-incache" &&
        args.workload != "sssp-ps-packed" && args.workload != "serve-open") {
        err = "unknown workload '" + args.workload + "'";
        return false;
    }
    if (!(args.seconds > 0.0)) {
        err = "--seconds must be positive";
        return false;
    }
    return true;
}

} // namespace

void
perfbench::reportHost(const HostFingerprint &h, Report &report)
{
    report.perLayer["host.nproc"] = h.nproc;
    report.perLayer["host.parallel_eff"] = h.parallelEff;
    report.perLayer["host.triad_gbps"] = h.triadGbps;
    report.perLayer["host.cache_knee_mb"] = h.cacheKneeMb;
}

int
main(int argc, char **argv)
{
    Args args;
    std::string err;
    if (!parseArgs(argc, argv, args, err))
        return usage(err.c_str());

    // The fingerprint forks; do it before any thread exists.
    const HostFingerprint host = measureHost(args.tiny);
    info("host: nproc %u, %.2f effective cores (parallel_eff %.3f), "
         "cache knee %.1f MiB working set (one-thread in-cache triad "
         "%.1f GB/s), "
         "DRAM triad %.2f GB/s with 3 arrays of %.0f MiB",
         host.nproc, host.effectiveCores, host.parallelEff,
         host.cacheKneeMb, host.cacheGbps, host.triadGbps,
         host.triadArrayMb);
    info("build: %s", buildIdentity(args.commit).c_str());
    info("workload %s seed %llu seconds %.3g trace %d%s",
         args.workload.c_str(), static_cast<unsigned long long>(args.seed),
         args.seconds, args.trace ? 1 : 0, args.tiny ? " (tiny)" : "");

    SpanLog spans(args.trace);
    Report report;
    {
        Context ctx{args, host, spans,
                    std::make_shared<graphabcd::Executor>(
                        std::max(1u, host.nproc - 1))};
        if (args.workload == "serve-open")
            runServeWorkload(ctx, report);
        else
            runLibraryWorkload(ctx, report);
    }   // the pool joins its workers here
    reportHost(host, report);

    if (args.trace) {
        for (const auto &[name, self] : spans.selfTimesMs())
            report.perLayer["span." + name + ".self_ms"] = median(self);
        const std::string path = args.traceOut.empty()
            ? "perfbench-" + args.workload + ".trace.json"
            : args.traceOut;
        // The program's own spans (recorded while traced rounds had
        // obs tracing on) go beside the benchmark's.
        const std::string program_path = path + ".program.json";
        if (!spans.writeChromeTrace(path))
            report.fail("trace: cannot write " + path);
        info("trace: %zu benchmark spans in %s; program spans %s",
             spans.size(), path.c_str(),
             graphabcd::obs::writeTrace(program_path)
                 ? ("in " + program_path).c_str()
                 : "not recorded (GRAPHABCD_OBS=OFF)");
    }
    if (!report.invalid.empty()) {
        std::fprintf(stderr, "perfbench: INVALID run: %s\n",
                     report.invalid.c_str());
        return 3;
    }
    if (report.attempted == 0) {
        std::fprintf(stderr, "perfbench: nothing was attempted\n");
        return 1;
    }
    printResult(report, args.trace);
    return 0;
}
