/**
 * @file
 * Job runner — the one place that maps a request onto a concrete
 * (vertex program x engine) instantiation and runs it to completion,
 * plus the fingerprints that key the ResultCache.  abcd_cli, abcd_serve
 * and the JobManager all go through it.
 *
 * One algorithm table in runner.cc drives both runAnalyticsJob and
 * isRunnable: pr, ppr, sssp, bfs, cc, lp, kcore and color, each with
 * its program factory, its accumulative form (pr, sssp, bfs, cc), and
 * whether it reads JobRequest::source (ppr, sssp, bfs) or ::k (kcore)
 * and whether its values are vertex ids (cc, lp).  The engines are
 * serial, async, fragment, sim (the HARP simulator with the default
 * HarpConfig) and accum.
 *
 * Two fingerprints per job:
 *
 *  - jobFingerprint: graph identity + algorithm + parameters + every
 *    semantic EngineOptions field.  Exact-match cache key: equal
 *    fingerprints mean the runs are interchangeable.  Serve-layer
 *    hooks (stop token, progress sink, warm start) are deliberately
 *    excluded — they change how a run is observed, not what it
 *    converges to.
 *
 *  - jobFamilyFingerprint: graph identity + algorithm + parameters
 *    only.  All members of a family share a fixpoint, so a cached
 *    result from one member is a valid warm start for another run
 *    with different engine options.
 */

#ifndef GRAPHABCD_SERVE_RUNNER_HH
#define GRAPHABCD_SERVE_RUNNER_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "graph/partition.hh"
#include "serve/job.hh"

namespace graphabcd {

class Executor;

/** Outcome of one dispatched run. */
struct RunOutcome
{
    std::vector<double> values;
    EngineReport report;
    std::string error;   //!< non-empty when the request was unrunnable

    bool ok() const { return error.empty(); }
};

/**
 * Execute `req` against `g` synchronously on the calling thread.  The
 * engine honours req.options.stop / progress / warmStart.  A request
 * isRunnable(req, g) refuses returns that reason as an error outcome
 * (never throws).
 * When `g` was built with a vertex reorder, req.source / warmStart and
 * the returned values are translated at this boundary: callers always
 * speak original vertex ids (DESIGN.md §11).
 * @param executor pool the threaded engine draws workers from; null
 *        keeps req.options.executor (itself defaulting to the
 *        process-wide pool).
 */
RunOutcome runAnalyticsJob(const BlockPartition &g, const JobRequest &req,
                           std::shared_ptr<Executor> executor = nullptr);

/** @return whether runAnalyticsJob recognises req.algo and req.engine
 *  and the pair has a program; on failure *why says what is wrong. */
bool isRunnable(const JobRequest &req, std::string *why = nullptr);

/** isRunnable(req), and a source-using algo's source is a vertex of g. */
bool isRunnable(const JobRequest &req, const BlockPartition &g,
                std::string *why = nullptr);

/** @return the algorithm names of the table, in table order. */
std::vector<std::string> algorithmNames();

/** @return the engine names isRunnable accepts (the drill engine
 *  aside). */
std::vector<std::string> engineNames();

/** Exact-match ResultCache key (see file comment). */
std::uint64_t jobFingerprint(std::uint64_t graph_fingerprint,
                             const JobRequest &req);

/** Fixpoint-family key for warm starting (see file comment). */
std::uint64_t jobFamilyFingerprint(std::uint64_t graph_fingerprint,
                                   const JobRequest &req);

} // namespace graphabcd

#endif // GRAPHABCD_SERVE_RUNNER_HH
