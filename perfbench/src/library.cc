/**
 * @file
 * Library workloads: time-to-tolerance of each engine, called straight
 * through the engines' public run() from a closed loop.
 *
 *  - pr-lj-incache: PageRank to 0.01/|V| on the LJ stand-in, plain
 *    layout, cyclic schedule everywhere; fits in cache.
 *  - sssp-ps-packed: SSSP from the hub on a PS stand-in past the cache
 *    knee, compressed layout + hub reorder; serial cyclic, async
 *    priority, accum OBIM, fragment priority.
 *
 * Each round runs the four engines once, from cold state, in an order
 * rotated by one every round (the seed picks the first), until the
 * window closes.  Every solve is checked against the exact reference
 * after its timed call.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

#include "algorithms/pagerank.hh"
#include "algorithms/reference.hh"
#include "algorithms/sssp.hh"
#include "core/accum_engine.hh"
#include "core/async_engine.hh"
#include "core/engine.hh"
#include "fragment/engine.hh"
#include "gate.hh"
#include "graph/datasets.hh"
#include "graph/partition.hh"
#include "obs/metrics.hh"
#include "obs/obs.hh"
#include "workloads.hh"

namespace perfbench {

using namespace graphabcd;

namespace {

constexpr int kEngines = 4;
const char *const kEngineNames[kEngines] = {"serial", "async", "accum",
                                            "fragment"};
enum Engine { kSerial, kAsync, kAccum, kFragment };

constexpr VertexId kBlockSize = 512;
constexpr std::uint32_t kFragments = 4;

struct Spec
{
    const char *dataset;
    double scale;
    double tinyScale;
    LayoutOptions layout;
    const char *algo;              //!< "pr" | "sssp"
    Schedule schedules[kEngines];  //!< per engine, kEngineNames order
    double sloSeconds;             //!< per-solve latency limit
};

Spec
specFor(const std::string &workload)
{
    if (workload == "pr-lj-incache") {
        return {"LJ", 1.0, 0.05, {GraphLayout::Plain, VertexReorder::None},
                "pr",
                {Schedule::Cyclic, Schedule::Cyclic, Schedule::Cyclic,
                 Schedule::Cyclic},
                5.0};
    }
    return {"PS", 3.0, 0.05,
            {GraphLayout::Compressed, VertexReorder::Hub}, "sssp",
            {Schedule::Cyclic, Schedule::Priority, Schedule::Obim,
             Schedule::Priority},
            10.0};
}

/** One engine call's outputs. */
struct Solve
{
    std::vector<double> values;   //!< internal ids
    EngineReport report;
    std::uint64_t messages = 0;   //!< fragment engine only
};

template <typename Prog, typename AccumProg>
Solve
solveWith(int engine, const BlockPartition &g, const Prog &prog,
          const AccumProg &accum_prog, const EngineOptions &opt)
{
    Solve s;
    switch (engine) {
      case kSerial: {
        SerialEngine<Prog> e(g, prog, opt);
        s.report = e.run(s.values);
        break;
      }
      case kAsync: {
        AsyncEngine<Prog> e(g, prog, opt);
        s.report = e.run(s.values);
        break;
      }
      case kAccum: {
        AccumEngine<AccumProg> e(g, accum_prog, opt);
        s.report = e.run(s.values);
        break;
      }
      default: {
        FragmentEngine<Prog> e(g, prog, opt);
        s.report = e.run(s.values);
        for (const FragmentRunStats &f : e.fragmentStats())
            s.messages += f.messagesSent;
        break;
      }
    }
    return s;
}

/** Per-engine samples from traced solves. */
struct LayerSamples
{
    std::vector<double> epochs, edges, blocks, mtes, gbps;
    std::vector<double> cpuUtil, staleP99;
    double activations = 0, blockUpdates = 0, staleDiscards = 0,
           heapPushes = 0, applied = 0, foldbacks = 0, messages = 0,
           edgeTraversals = 0;
};

std::uint64_t
counterValue(const MetricsSnapshot &snap, const std::string &name)
{
    for (const auto &[n, v] : snap.counters) {
        if (n == name)
            return v;
    }
    return 0;
}

double
histogramQuantile(const MetricsSnapshot &snap, const std::string &name,
                  double q)
{
    for (const auto &[n, h] : snap.histograms) {
        if (n == name && h.count > 0)
            return h.quantile(q);
    }
    return 0.0;
}

} // namespace

double
decodePassNs(const BlockPartition &g)
{
    EdgeSliceScratch scratch;
    std::uint64_t sink = 0;
    const double t0 = now();
    for (BlockId b = 0; b < g.numBlocks(); b++) {
        // Touch only the view's end: a plain block is a zero-copy view
        // and should cost nothing here; a compressed one decodes.
        const BlockEdgesView view = g.blockEdges(b, scratch);
        sink += view.size() + (view.src.empty() ? 0 : view.src.back());
    }
    const double secs = now() - t0;
    if (sink == 1)   // keeps the loop observable
        info("decode sink %llu", static_cast<unsigned long long>(sink));
    return secs * 1e9 / std::max<double>(1.0, g.numEdges());
}

namespace {

/**
 * Computed bytes one solve touched: the layout's own gather/scatter
 * tally, one 8-byte edge value read per traversal and written per
 * scatter, one vertex value read and written per update.
 */
double
computedBytes(std::uint64_t layout_bytes, const EngineReport &r)
{
    return static_cast<double>(layout_bytes) +
           8.0 * static_cast<double>(r.edgeTraversals + r.scatterWrites) +
           16.0 * static_cast<double>(r.vertexUpdates);
}

} // namespace

double
workingSetMb(const BlockPartition &g)
{
    const double e = static_cast<double>(g.numEdges());
    const double v = static_cast<double>(g.numVertices());
    const double topology =
        e * (g.gatherBytesPerEdge() + g.scatterBytesPerEdge());
    const double edge_values = 8.0 * e;
    const double per_vertex = v * (8.0 + 8.0 + 8.0 + 4.0);   // offsets,
                                                              // value, block
    return (topology + edge_values + per_vertex) / 1048576.0;
}

void
runLibraryWorkload(Context &ctx, Report &report)
{
    const Args &args = ctx.args;
    const Spec spec = specFor(args.workload);
    const double scale = args.tiny ? spec.tinyScale : spec.scale;
    const bool trace = args.trace;
    SpanLog &spans = ctx.spans;
    const unsigned nproc = ctx.host.nproc;

    // ---------------------------------------------------------- set-up
    // Generation + partition build, kSetups times; setup_s is the median.
    std::vector<double> setup_s, generate_s, partition_s;
    Dataset ds;
    std::unique_ptr<BlockPartition> g;
    for (int i = 0; i < kSetups; i++) {
        g.reset();
        ds = Dataset{};
        const double t0 = now();
        ds = makeDataset(spec.dataset, scale, kGraphSeed);
        const double t1 = now();
        g = std::make_unique<BlockPartition>(ds.graph, kBlockSize,
                                             spec.layout);
        const double t2 = now();
        spans.record("graph.generate", t0, t1);
        spans.record("graph.partition", t1, t2);
        generate_s.push_back(t1 - t0);
        partition_s.push_back(t2 - t1);
        setup_s.push_back(t2 - t0);
    }
    const VertexId n = g->numVertices();
    info("%s: %s scale %.3g: %u vertices, %llu edges, layout=%s "
         "reorder=%s, working set %.1f MiB (computed), knee %.1f MiB",
         args.workload.c_str(), spec.dataset, scale, n,
         static_cast<unsigned long long>(g->numEdges()),
         to_string(g->layout()), to_string(g->reorder()), workingSetMb(*g),
         ctx.host.cacheKneeMb);

    // --------------------------------------------- reference (untimed)
    const bool pr = std::string(spec.algo) == "pr";
    const double tol = pr ? 0.01 / std::max<double>(n, 1.0) : 1e-9;
    VertexId source_orig = 0, source = 0;
    std::vector<double> ref;
    if (pr) {
        ref = pagerankReference(ds.graph, 0.85, 1e-15, 100000);
    } else {
        const auto deg = ds.graph.outDegrees();
        source_orig = static_cast<VertexId>(
            std::max_element(deg.begin(), deg.end()) - deg.begin());
        source = g->permutation().toInternal(source_orig);
        ref = dijkstraReference(ds.graph, source_orig);
    }
    ds = Dataset{};   // engines only read the partition
    const GateTolerance gate_tol = gateTolerance(spec.algo, tol);

    auto options = [&](int engine) {
        EngineOptions o;
        o.blockSize = kBlockSize;
        o.tolerance = tol;
        o.schedule = spec.schedules[engine];
        o.executor = ctx.executor;
        // async/accum: numThreads pool workers + the caller; fragment:
        // numThreads participants in total.  Both give nproc threads.
        o.numThreads = engine == kFragment ? nproc
                                           : std::max(1u, nproc - 1);
        o.fragments = engine == kFragment ? kFragments : 1;
        return o;
    };
    auto solve = [&](int engine) {
        const EngineOptions o = options(engine);
        if (pr)
            return solveWith(engine, *g, PageRankProgram(),
                             PageRankAccumProgram(), o);
        return solveWith(engine, *g, SsspProgram(source),
                         SsspAccumProgram(source), o);
    };

    // ------------------------------------------------------ the window
    std::vector<double> samples[kEngines];
    std::uint64_t solves = 0;
    std::vector<double> round_s[2];   // [untraced, traced]
    LayerSamples layer[kEngines];
    std::uint64_t within_slo = 0;
    std::vector<double> last_passed;
    MetricsRegistry &registry = MetricsRegistry::global();

    const double window_start = now();
    const int min_rounds = trace ? 2 : 1;
    for (int round = 0;
         round < min_rounds || now() - window_start < args.seconds;
         round++) {
        // Traced rounds also switch on the program's own trace
        // recorder, so obs.tracing_overhead prices both.
        const bool traced = trace && round % 2 == 1;
        obs::setTracingEnabled(traced);
        const int first =
            static_cast<int>((args.seed + (trace ? round / 2 : round)) %
                             kEngines);
        const double round_start = now();
        for (int i = 0; i < kEngines; i++) {
            const int e = (first + i) % kEngines;
            std::uint64_t bytes0 = 0;
            double cpu0 = 0.0;
            if (traced) {
                registry.reset();
                bytes0 = g->bytesMoved().total();
                cpu0 = processCpuSeconds();
            }
            const double t0 = now();
            Solve s = solve(e);
            const double t1 = now();
            const double secs = t1 - t0;
            if (traced) {
                const double cpu = processCpuSeconds() - cpu0;
                const std::uint64_t bytes =
                    g->bytesMoved().total() - bytes0;
                spans.record(std::string("core.") + kEngineNames[e] +
                                 ".run",
                             t0, t1);
                const MetricsSnapshot snap = registry.snapshotAll();
                const EngineReport &r = s.report;
                LayerSamples &L = layer[e];
                L.epochs.push_back(r.epochs);
                L.edges.push_back(static_cast<double>(r.edgeTraversals));
                L.blocks.push_back(static_cast<double>(r.blockUpdates));
                L.mtes.push_back(r.edgeTraversals / secs / 1e6);
                L.gbps.push_back(computedBytes(bytes, r) / secs / 1e9);
                L.cpuUtil.push_back(cpu / (secs * nproc));
                L.activations += counterValue(snap, "scheduler.activations");
                L.staleDiscards +=
                    counterValue(snap, "scheduler.stale_discards");
                L.heapPushes += counterValue(snap, "scheduler.heap_pushes");
                L.blockUpdates += r.blockUpdates;
                L.applied += r.vertexUpdates;
                L.foldbacks += counterValue(snap, "engine.accum.foldbacks");
                L.messages += s.messages;
                L.edgeTraversals += r.edgeTraversals;
                if (e == kAsync) {
                    L.staleP99.push_back(histogramQuantile(
                        snap, "engine.async.staleness_blocks", 0.99));
                }
            } else {
                samples[e].push_back(secs);
            }
            solves++;

            // Correctness gate, after the timed call.
            report.attempted++;
            const std::string cell = args.workload + "/" +
                                     kEngineNames[e] + "/round" +
                                     std::to_string(round);
            std::string err;
            if (!s.report.converged) {
                err = "did not converge";
            } else {
                std::vector<double> orig =
                    g->permutation().valuesToOriginal(s.values);
                err = compareValues(orig, ref, gate_tol);
                if (err.empty())
                    last_passed = std::move(orig);
            }
            if (!err.empty())
                report.fail(cell + ": " + err);
            else if (secs <= spec.sloSeconds)
                within_slo++;
        }
        round_s[traced ? 1 : 0].push_back(now() - round_start);
    }
    obs::setTracingEnabled(false);

    // Gate self-check on a vector that passed.
    report.attempted++;
    if (!gateSelfCheck(last_passed, ref, gate_tol))
        report.fail(args.workload + "/gate-self-check: perturbed vector "
                                    "was not caught");
    else
        info("gate self-check: a perturbed %s vector trips the gate",
             spec.algo);

    // ------------------------------------------------ end-to-end metrics
    // The host's contention phases last seconds and slow every engine
    // together, so a window's median moves with the share of it that was
    // contended.  Its lower quartile is the engine's time outside those
    // phases, and its p90 the time inside them; both hold steady from
    // run to run.
    auto &ee = report.endToEnd;
    ee["setup_s"] = median(setup_s);
    std::vector<double> p50_ms, p90_ms;
    for (int e = 0; e < kEngines; e++) {
        const auto &v = samples[e];
        ee[std::string("solve_") + kEngineNames[e] + "_s"] =
            quantile(v, 0.25);
        p50_ms.push_back(median(v) * 1e3);
        p90_ms.push_back(quantile(v, 0.9) * 1e3);
        info("solve_%s_s: q1 %.4f s (reported), median %.4f, q3 %.4f, "
             "p90 %.4f over %zu solves",
             kEngineNames[e], quantile(v, 0.25), median(v),
             quantile(v, 0.75), quantile(v, 0.9), v.size());
    }
    // Per engine first, so the mix of engines in the window's last,
    // partial round does not move them.
    ee["job_p50_ms"] = geomean(p50_ms);
    ee["job_p99_ms"] = geomean(p90_ms);
    info("job latency (closed loop, timed from the call): job_p50_ms is "
         "the geometric mean over engines of each engine's median solve, "
         "job_p99_ms of each engine's p90 (a window holds too few solves "
         "per engine for a p99 with 10 beyond it)");
    ee["slo_share"] = static_cast<double>(within_slo) /
                      static_cast<double>(solves);
    ee["ok_share"] = 1.0 - static_cast<double>(report.failed) /
                               static_cast<double>(report.attempted);
    ee["peak_rss_mb"] = peakRssMb();
    info("slo: a solve within %.1f s that passes the gate; setup median "
         "of %zu builds",
         spec.sloSeconds, setup_s.size());

    // ------------------------------------------------ per-layer metrics
    if (!trace)
        return;
    auto &pl = report.perLayer;
    pl["graph.generate_s"] = median(generate_s);
    pl["graph.partition_s"] = median(partition_s);
    pl["graph.working_set_mb"] = workingSetMb(*g);
    pl["graph.gather_bytes_per_edge"] = g->gatherBytesPerEdge();
    pl["graph.scatter_bytes_per_edge"] = g->scatterBytesPerEdge();
    std::vector<double> decode;
    for (int i = 0; i < 3; i++) {
        SpanLog::Scope span(spans, "graph.decode_pass");
        decode.push_back(decodePassNs(*g));
    }
    pl["graph.decode_ns_per_edge"] = median(decode);

    for (int e = 0; e < kEngines; e++) {
        const LayerSamples &L = layer[e];
        const std::string p = std::string("core.") + kEngineNames[e] + ".";
        pl[p + "epochs"] = median(L.epochs);
        pl[p + "edge_traversals"] = median(L.edges);
        pl[p + "block_updates"] = median(L.blocks);
        pl[p + "mtes"] = median(L.mtes);
        pl[p + "gbps"] = median(L.gbps);
        pl[p + "roofline_frac"] =
            ctx.host.triadGbps > 0 ? median(L.gbps) / ctx.host.triadGbps
                                   : 0.0;
    }
    const LayerSamples &A = layer[kAsync], &C = layer[kAccum],
                       &F = layer[kFragment];
    const double blocks = A.blockUpdates + C.blockUpdates;
    pl["core.scheduler.activations_per_block_update"] =
        blocks > 0 ? (A.activations + C.activations) / blocks : 0.0;
    const double pushes = A.heapPushes + C.heapPushes;
    pl["core.scheduler.stale_discard_ratio"] =
        pushes > 0 ? (A.staleDiscards + C.staleDiscards) / pushes : 0.0;
    pl["core.accum.foldback_ratio"] =
        C.applied + C.foldbacks > 0 ? C.applied / (C.applied + C.foldbacks)
                                    : 0.0;
    pl["core.async.staleness_p99_blocks"] = median(A.staleP99);
    pl["fragment.messages_per_edge"] =
        F.edgeTraversals > 0 ? F.messages / F.edgeTraversals : 0.0;
    const double serial_epochs = median(layer[kSerial].epochs);
    pl["fragment.epoch_inflation"] =
        serial_epochs > 0 ? median(F.epochs) / serial_epochs : 0.0;
    pl["runtime.async.cpu_util"] = median(A.cpuUtil);
    pl["runtime.accum.cpu_util"] = median(C.cpuUtil);
    pl["runtime.fragment.cpu_util"] = median(F.cpuUtil);
    pl["obs.tracing_overhead"] =
        median(round_s[1]) / median(round_s[0]) - 1.0;
    info("tracing overhead: %zu traced vs %zu untraced rounds",
         round_s[1].size(), round_s[0].size());
}

} // namespace perfbench
