/**
 * @file
 * Host fingerprint: processor count, measured parallel efficiency, the
 * cache knee of a triad size sweep and DRAM triad bandwidth, plus the
 * build identity.  Every threaded and bandwidth figure the benchmark
 * reports is bounded by these numbers, so they are measured on every
 * run rather than assumed.
 */

#ifndef PERFBENCH_HOST_HH
#define PERFBENCH_HOST_HH

#include <string>

namespace perfbench {

struct HostFingerprint
{
    unsigned nproc = 1;          //!< CPUs this process may run on
    double effectiveCores = 1;   //!< k spinning threads vs one
    double parallelEff = 1;      //!< effectiveCores / nproc
    double cacheKneeMb = 0;      //!< triad working set where bw drops
    double cacheGbps = 0;        //!< best in-cache triad GB/s, 1 thread
    double triadGbps = 0;        //!< triad GB/s, arrays >= 4x knee
    double triadArrayMb = 0;     //!< size of each of those arrays
};

/**
 * Measure the fingerprint in a forked child, so the probe's large
 * arrays never count towards this process's peak RSS.
 * @param tiny smaller sweep for the smoke mode.
 */
HostFingerprint measureHost(bool tiny);

/** Compiler, build type, GRAPHABCD_OBS and source commit (as given on
 *  the command line), one line. */
std::string buildIdentity(const std::string &commit);

} // namespace perfbench

#endif // PERFBENCH_HOST_HH
