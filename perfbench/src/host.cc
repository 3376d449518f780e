#include "host.hh"

#include <sched.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "common.hh"
#include "obs/obs.hh"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

unsigned
cpusAllowed()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return std::max(1, CPU_COUNT(&set));
    return std::max(1u, std::thread::hardware_concurrency());
}

/** Run fn(t) on `k` threads at once; @return wall seconds. */
template <typename Fn>
double
onThreads(unsigned k, Fn &&fn)
{
    std::vector<std::thread> threads;
    std::atomic<unsigned> ready{0};
    std::atomic<bool> go{false};
    for (unsigned t = 0; t < k; t++) {
        threads.emplace_back([&, t] {
            ready.fetch_add(1);
            while (!go.load(std::memory_order_acquire)) {
            }
            fn(t);
        });
    }
    while (ready.load() < k) {
    }
    const double t0 = now();
    go.store(true, std::memory_order_release);
    for (auto &th : threads)
        th.join();
    return now() - t0;
}

/** Fixed dependent arithmetic; the result defeats dead-code removal. */
std::uint64_t
spin(std::uint64_t iters, std::uint64_t seed)
{
    std::uint64_t x = seed | 1;
    for (std::uint64_t i = 0; i < iters; i++)
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    return x;
}

/** k threads spinning vs one: effective cores, median of 3 trials. */
double
measureEffectiveCores(unsigned k, bool tiny)
{
    const std::uint64_t iters = tiny ? 5'000'000 : 40'000'000;
    std::atomic<std::uint64_t> sink{0};
    // Wake every CPU first: an idle virtual CPU can take a while to be
    // scheduled again, which would read as missing parallelism.
    onThreads(k, [&](unsigned t) { sink.fetch_add(spin(iters, t)); });
    std::vector<double> ratios;
    for (int trial = 0; trial < 3; trial++) {
        const double one = onThreads(1, [&](unsigned t) {
            sink.fetch_add(spin(iters, t));
        });
        const double many = onThreads(k, [&](unsigned t) {
            sink.fetch_add(spin(iters, t));
        });
        ratios.push_back(static_cast<double>(k) * one / many);
    }
    return std::min<double>(median(ratios), k);
}

/**
 * STREAM triad a = b + s*c over `n` doubles per array, split across
 * `k` threads, each repeating over its own chunk.  Counts 24 bytes per
 * element (two reads, one write).  @return GB/s, best of 3.
 */
double
triadGbps(std::size_t n, unsigned k, double min_seconds)
{
    std::unique_ptr<double[]> a(new double[n]), b(new double[n]),
        c(new double[n]);
    for (std::size_t i = 0; i < n; i++) {   // first touch
        a[i] = 0.0;
        b[i] = 1.0;
        c[i] = 2.0;
    }
    // Repeat enough passes that one trial lasts about min_seconds at a
    // generous 20 GB/s guess.
    const double bytes_per_pass = 24.0 * static_cast<double>(n);
    const int reps = std::max(
        1, static_cast<int>(min_seconds * 20e9 / bytes_per_pass));
    double best = 0.0;
    for (int trial = 0; trial < 3; trial++) {
        const double secs = onThreads(k, [&](unsigned t) {
            const std::size_t lo = n * t / k, hi = n * (t + 1) / k;
            double *pa = a.get(), *pb = b.get(), *pc = c.get();
            for (int r = 0; r < reps; r++) {
                for (std::size_t i = lo; i < hi; i++)
                    pa[i] = pb[i] + 3.0 * pc[i];
                __asm__ volatile("" : : "r"(pa) : "memory");
            }
        });
        best = std::max(best, bytes_per_pass * reps / secs / 1e9);
    }
    return best;
}

HostFingerprint
measureInProcess(bool tiny)
{
    HostFingerprint h;
    h.nproc = cpusAllowed();
    h.effectiveCores = measureEffectiveCores(h.nproc, tiny);
    h.parallelEff = h.effectiveCores / h.nproc;

    // Size sweep, one thread (a cache's size does not depend on how
    // many cores share it, and one thread is the least disturbed by
    // neighbours): per-array 0.25 MiB .. 64 MiB.  The largest size is
    // the DRAM plateau.  The knee is the working set (all three arrays)
    // just above the largest one still reaching twice the plateau: the
    // last-level cache edge, not an inner cache's.
    const double max_array_mb = tiny ? 8.0 : 64.0;
    std::vector<std::pair<double, double>> sweep;   // (set MiB, GB/s)
    for (double mb = 0.25; mb <= max_array_mb; mb *= 2) {
        const auto n = static_cast<std::size_t>(mb * 1048576.0 / 8.0);
        sweep.emplace_back(3.0 * mb, triadGbps(n, 1, 0.01));
    }
    const double plateau = sweep.back().second;
    h.cacheGbps = 0.0;
    h.cacheKneeMb = sweep.front().first;
    for (std::size_t i = 0; i < sweep.size(); i++) {
        h.cacheGbps = std::max(h.cacheGbps, sweep[i].second);
        if (sweep[i].second >= 2.0 * plateau && i + 1 < sweep.size())
            h.cacheKneeMb = sweep[i + 1].first;
    }
    for (auto &[mb, gbps] : sweep)
        info("host: triad sweep %.2f MiB working set -> %.2f GB/s", mb,
             gbps);

    // DRAM triad on every CPU: each array at least 4x the knee.
    h.triadArrayMb = 4.0 * h.cacheKneeMb;
    const auto n = static_cast<std::size_t>(h.triadArrayMb * 1048576.0 /
                                            8.0);
    h.triadGbps = triadGbps(n, h.nproc, 0.05);
    return h;
}

} // namespace

HostFingerprint
measureHost(bool tiny)
{
    int fds[2];
    if (pipe(fds) != 0)
        return measureInProcess(tiny);
    std::fflush(stdout);
    const pid_t pid = fork();
    if (pid < 0) {
        close(fds[0]);
        close(fds[1]);
        return measureInProcess(tiny);
    }
    if (pid == 0) {
        close(fds[0]);
        const HostFingerprint h = measureInProcess(tiny);
        const ssize_t w = write(fds[1], &h, sizeof(h));
        _exit(w == static_cast<ssize_t>(sizeof(h)) ? 0 : 1);
    }
    close(fds[1]);
    HostFingerprint h;
    std::size_t got = 0;
    auto *dst = reinterpret_cast<char *>(&h);
    while (got < sizeof(h)) {
        const ssize_t r = read(fds[0], dst + got, sizeof(h) - got);
        if (r <= 0)
            break;
        got += static_cast<std::size_t>(r);
    }
    close(fds[0]);
    int status = 0;
    waitpid(pid, &status, 0);
    if (got != sizeof(h) || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0)
        return measureInProcess(tiny);
    return h;
}

std::string
buildIdentity(const std::string &commit)
{
    return std::string("compiler=") + PERFBENCH_COMPILER +
           " build_type=" + PERFBENCH_BUILD_TYPE +
           " GRAPHABCD_OBS=" + (GRAPHABCD_OBS_ENABLED ? "ON" : "OFF") +
           " commit=" + (commit.empty() ? "unknown" : commit);
}

} // namespace perfbench
