#include "serve/runner.hh"

#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>

#include "algorithms/extras.hh"
#include "algorithms/label_propagation.hh"
#include "algorithms/pagerank.hh"
#include "algorithms/sssp.hh"
#include "core/accum_engine.hh"
#include "core/async_engine.hh"
#include "core/engine.hh"
#include "fragment/engine.hh"
#include "harp/system.hh"
#include "runtime/executor.hh"
#include "support/fingerprint.hh"

namespace graphabcd {

namespace {

/** Translate a simulator report into the common EngineReport shape. */
EngineReport
fromSimReport(const SimReport &sim)
{
    EngineReport report;
    report.epochs = sim.epochs;
    report.blockUpdates = sim.blockUpdates;
    report.vertexUpdates = sim.vertexUpdates;
    report.edgeTraversals = sim.edgeTraversals;
    report.scatterWrites = sim.scatterWrites;
    report.converged = sim.converged;
    report.stopped = sim.stopped;
    report.seconds = sim.hostSeconds;
    return report;
}

/** Run a state-based program on req.engine (every engine but accum). */
template <typename Program>
RunOutcome
runWith(const BlockPartition &g, Program program, const JobRequest &req)
{
    RunOutcome out;
    if (req.engine == "serial") {
        SerialEngine<Program> engine(g, program, req.options);
        out.report = engine.run(out.values);
    } else if (req.engine == "async") {
        AsyncEngine<Program> engine(g, program, req.options);
        out.report = engine.run(out.values);
    } else if (req.engine == "fragment") {
        FragmentEngine<Program> engine(g, program, req.options);
        out.report = engine.run(out.values);
    } else {   // sim
        HarpConfig cfg;
        // Simulated DMA traffic tracks the real layout: a compressed
        // partition streams measurably fewer topology bytes per edge
        // than the plain 8-byte CSC record.
        cfg.layoutBytesPerEdge = g.gatherBytesPerEdge();
        HarpSystem<Program> system(g, program, req.options, cfg);
        out.report = fromSimReport(system.run(out.values));
    }
    return out;
}

/** engine=accum: the accumulative programs are separate types. */
template <typename Program>
RunOutcome
runAccum(const BlockPartition &g, Program program, const JobRequest &req)
{
    RunOutcome out;
    AccumEngine<Program> engine(g, std::move(program), req.options);
    out.report = engine.run(out.values);
    return out;
}

using RunFn = RunOutcome (*)(const BlockPartition &, const JobRequest &);

/** @return the runner of the state-based program `Make{}(req)`. */
template <typename Make>
constexpr RunFn
stateBased(Make)
{
    return [](const BlockPartition &g, const JobRequest &r) {
        return runWith(g, Make{}(r), r);
    };
}

/** @return the runner of the accumulative program `Make{}(req)`. */
template <typename Make>
constexpr RunFn
accumulative(Make)
{
    return [](const BlockPartition &g, const JobRequest &r) {
        return runAccum(g, Make{}(r), r);
    };
}

/** One runnable algorithm: the only list of them (see runner.hh). */
struct Algo
{
    const char *name;
    RunFn run;                //!< the state-based program, any engine
    RunFn accum;              //!< its accumulative form; null if none
    bool usesSource;          //!< fixpoint depends on JobRequest::source
    bool usesK;               //!< fixpoint depends on JobRequest::k
    /** Values are vertex ids themselves (cc component representatives,
     *  lp community labels): under a reorder the engine computes them
     *  in internal ids, so the boundary translates them too. */
    bool valuesAreVertexIds;
};

const Algo kAlgos[] = {
    {"pr", stateBased([](const JobRequest &) { return PageRankProgram(); }),
     accumulative([](const JobRequest &) { return PageRankAccumProgram(); }),
     false, false, false},
    {"ppr", stateBased([](const JobRequest &r) {
         return PersonalizedPageRankProgram(r.source);
     }),
     nullptr, true, false, false},
    {"sssp",
     stateBased([](const JobRequest &r) { return SsspProgram(r.source); }),
     accumulative(
         [](const JobRequest &r) { return SsspAccumProgram(r.source); }),
     true, false, false},
    {"bfs",
     stateBased([](const JobRequest &r) { return BfsProgram(r.source); }),
     accumulative(
         [](const JobRequest &r) { return BfsAccumProgram(r.source); }),
     true, false, false},
    {"cc", stateBased([](const JobRequest &) { return CcProgram(); }),
     accumulative([](const JobRequest &) { return CcAccumProgram(); }),
     false, false, true},
    {"lp", stateBased([](const JobRequest &) {
         return LabelPropagationProgram();
     }),
     nullptr, false, false, true},
    {"kcore",
     stateBased([](const JobRequest &r) { return KCoreProgram(r.k); }),
     nullptr, false, true, false},
    {"color", stateBased([](const JobRequest &) { return ColoringProgram(); }),
     nullptr, false, false, false},
};

/** Every engine runWith dispatches to, plus accum. */
const char *const kEngines[] = {"serial", "async", "fragment", "sim",
                                "accum"};

const Algo *
findAlgo(const std::string &name)
{
    for (const Algo &a : kAlgos) {
        if (name == a.name)
            return &a;
    }
    return nullptr;
}

/**
 * The wedge engine: deliberately makes no progress, for exercising the
 * stall watchdog end to end (tests, the ci.sh stall drill).  Hidden
 * behind an environment gate so production clients cannot reach it by
 * mistyping an engine name.
 */
bool
wedgeEngineEnabled()
{
    const char *env = std::getenv("GRAPHABCD_ENABLE_WEDGE_ENGINE");
    return env != nullptr && *env != '\0';
}

RunOutcome
runWedgeJob(const BlockPartition &g, const JobRequest &req)
{
    // Poll the stop token without ever touching the Progress sink:
    // from the watchdog's point of view this job is perfectly wedged,
    // yet it still cancels cooperatively.  The time cap is a safety
    // net for misconfigured drills, not part of the contract.
    RunOutcome out;
    const auto start = std::chrono::steady_clock::now();
    bool stopped = false;
    while (std::chrono::steady_clock::now() - start <
           std::chrono::seconds(30)) {
        if (req.options.stop.stopRequested()) {
            stopped = true;
            break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    out.values.assign(g.numVertices(), 0.0);
    out.report.stopped = stopped;
    out.report.converged = false;
    out.report.seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    return out;
}

} // namespace

RunOutcome
runAnalyticsJob(const BlockPartition &g, const JobRequest &req,
                std::shared_ptr<Executor> executor)
{
    RunOutcome out;
    if (!isRunnable(req, g, &out.error))
        return out;
    const Algo &algo = *findAlgo(req.algo);

    // The pool is an execution resource, not a semantic option, so it
    // is injected here (per call) rather than fingerprinted.
    const JobRequest *effective = &req;
    JobRequest adjusted;
    auto mutableReq = [&]() -> JobRequest & {
        if (effective != &adjusted) {
            adjusted = req;
            effective = &adjusted;
        }
        return adjusted;
    };
    if (executor && !req.options.executor)
        mutableReq().options.executor = std::move(executor);

    // Permutation boundary (DESIGN.md §11): engines run in the
    // reordered internal id space, while requests and results speak
    // original ids.  Translate the source vertex and warm-start vector
    // on the way in and un-permute the values on the way out, so the
    // reorder is invisible to every caller (and to the ResultCache,
    // which stores original-id vectors).
    const VertexPermutation &perm = g.permutation();
    if (!perm.isIdentity()) {
        if (algo.usesSource)
            mutableReq().source = perm.toInternal(req.source);
        if (req.options.warmStart &&
            req.options.warmStart->size() == g.numVertices()) {
            std::vector<double> warm =
                perm.valuesToInternal(*req.options.warmStart);
            // Id-valued warm starts carry original-id labels; the
            // engine expects internal ones.
            if (algo.valuesAreVertexIds) {
                for (double &x : warm) {
                    const auto label = static_cast<VertexId>(x);
                    if (label < g.numVertices())
                        x = static_cast<double>(perm.toInternal(label));
                }
            }
            mutableReq().options.warmStart =
                std::make_shared<const std::vector<double>>(
                    std::move(warm));
        }
    }

    const JobRequest &r = *effective;
    if (r.engine == "wedge")
        out = runWedgeJob(g, r);
    else if (r.engine == "accum")
        out = algo.accum(g, r);
    else
        out = algo.run(g, r);

    if (!perm.isIdentity() && out.values.size() == g.numVertices()) {
        out.values = perm.valuesToOriginal(out.values);
        // cc/lp labels are vertex ids themselves, so the *values* need
        // the same translation as the positions.  The representative a
        // component gets is whichever member the reorder placed first —
        // consistent within a run, but not necessarily the minimum
        // original id.
        if (algo.valuesAreVertexIds) {
            for (double &x : out.values) {
                const auto label = static_cast<VertexId>(x);
                if (label < g.numVertices())
                    x = static_cast<double>(perm.toOriginal(label));
            }
        }
    }
    return out;
}

bool
isRunnable(const JobRequest &req, std::string *why)
{
    std::string error;
    const Algo *algo = findAlgo(req.algo);
    bool engine_ok = false;
    for (const char *e : kEngines)
        engine_ok = engine_ok || req.engine == e;
    // The watchdog drill engine exists only when explicitly enabled.
    if (req.engine == "wedge" && wedgeEngineEnabled())
        engine_ok = true;
    if (!algo)
        error = "unknown algorithm '" + req.algo + "'";
    else if (!engine_ok)
        error = "unknown engine '" + req.engine + "'";
    else if (req.engine == "accum" && !algo->accum)
        error = "algorithm '" + req.algo +
                "' has no accumulative (delta) form; use another engine";
    if (why && !error.empty())
        *why = error;
    return error.empty();
}

bool
isRunnable(const JobRequest &req, const BlockPartition &g,
           std::string *why)
{
    if (!isRunnable(req, why))
        return false;
    if (findAlgo(req.algo)->usesSource && req.source >= g.numVertices()) {
        if (why) {
            *why = "source " + std::to_string(req.source) +
                   " is not a vertex (|V| = " +
                   std::to_string(g.numVertices()) + ")";
        }
        return false;
    }
    return true;
}

std::vector<std::string>
algorithmNames()
{
    std::vector<std::string> names;
    for (const Algo &a : kAlgos)
        names.emplace_back(a.name);
    return names;
}

std::vector<std::string>
engineNames()
{
    return {std::begin(kEngines), std::end(kEngines)};
}

std::uint64_t
jobFamilyFingerprint(std::uint64_t graph_fingerprint,
                     const JobRequest &req)
{
    Fingerprint fp;
    fp.mix(graph_fingerprint);
    fp.mix(std::string_view(req.algo));
    // The source vertex is part of the fixpoint only for sssp/bfs/ppr.
    // For source-less algorithms it is normalized to a sentinel:
    // mixing a stray source there is never a *wrong* hit, but it
    // splits one result family across cache entries, so equivalent
    // pagerank/cc/lp requests with different stray sources would miss
    // the ResultCache (and its warm-start path) for no reason.  The
    // sentinel cannot collide with a real source: VertexId is 32-bit.
    // kcore's k is mixed the same way, only where it matters.
    const Algo *algo = findAlgo(req.algo);
    constexpr std::uint64_t kNoSource = ~std::uint64_t{0};
    fp.mix(algo && algo->usesSource ? static_cast<std::uint64_t>(req.source)
                                    : kNoSource);
    if (algo && algo->usesK)
        fp.mix(static_cast<std::uint64_t>(req.k));
    return fp.value();
}

std::uint64_t
jobFingerprint(std::uint64_t graph_fingerprint, const JobRequest &req)
{
    Fingerprint fp;
    fp.mix(jobFamilyFingerprint(graph_fingerprint, req));
    fp.mix(std::string_view(req.engine));
    const EngineOptions &opt = req.options;
    fp.mix(static_cast<std::uint64_t>(opt.blockSize));
    fp.mix(static_cast<std::uint64_t>(opt.schedule));
    fp.mix(static_cast<std::uint64_t>(opt.mode));
    fp.mix(opt.tolerance);
    fp.mix(opt.maxEpochs);
    fp.mix(static_cast<std::uint64_t>(opt.numThreads));
    // The fragment cut changes the update schedule (hence the exact
    // floating-point trajectory), so it is part of the result identity.
    fp.mix(static_cast<std::uint64_t>(opt.fragments));
    return fp.value();
}

} // namespace graphabcd
