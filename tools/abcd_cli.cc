/**
 * @file
 * Command-line driver: run any supported algorithm on an edge-list file
 * or a named synthetic dataset, on the engine of your choice, and print
 * a result summary — the utility a downstream user reaches for first.
 * It builds a JobRequest and runs it through runAnalyticsJob
 * (serve/runner.hh), the same path abcd_serve's jobs take, so the two
 * tools accept the same algorithms, engines and schedules.
 *
 * Examples:
 *   abcd_cli --algo pr --dataset LJ --schedule priority
 *   abcd_cli --algo sssp --graph web.el --source 17 --engine async
 *   abcd_cli --algo cc --dataset WT --engine sim
 *   abcd_cli --algo pr --dataset PS --engine accum --schedule obim
 *   abcd_cli --algo pr --dataset LJ --engine fragment --fragments 4
 *   abcd_cli --algo pr --graph web.el --dump ranks.txt
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "graph/datasets.hh"
#include "graph/io.hh"
#include "graph/stats.hh"
#include "serve/runner.hh"
#include "support/flags.hh"
#include "support/logging.hh"
#include "support/units.hh"

using namespace graphabcd;

namespace {

/** Load the graph --graph or --dataset names. */
EdgeList
loadGraph(const Flags &flags, const char *argv0)
{
    if (!flags.get("graph").empty())
        return loadEdgeListFile(flags.get("graph"));
    if (!flags.get("dataset").empty()) {
        return makeDataset(flags.get("dataset"), flags.getDouble("scale"),
                           static_cast<std::uint64_t>(flags.getInt("seed")))
            .graph;
    }
    flags.usage(argv0);
    fatal("need --graph FILE or --dataset KEY");
}

/** @return `names` joined as flag help: "a | b | c". */
std::string
alternatives(const std::vector<std::string> &names)
{
    std::string out;
    for (const std::string &name : names)
        out += (out.empty() ? "" : " | ") + name;
    return out;
}

int
run(int argc, char **argv)
{
    Flags flags;
    flags.declare("algo", "pr", alternatives(algorithmNames()));
    flags.declare("graph", "",
                  "edge-list file (.el text, .bin, or packed .abcz)");
    flags.declare("dataset", "", "named stand-in (WT PS LJ TW ...)");
    flags.declareDouble("scale", 1.0, "dataset scale factor");
    flags.declare("engine", "serial", alternatives(engineNames()));
    flags.declareInt("block-size", 512, "vertices per block");
    flags.declare("layout", "plain",
                  "physical layout: plain | compressed");
    flags.declare("reorder", "none", "vertex order: none | hub");
    flags.declare("schedule", "cyclic", "cyclic | priority | obim");
    flags.declareInt("threads", 4, "threaded engines' participants");
    flags.declareInt("fragments", 1, "fragment engine shard count");
    flags.declareInt("source", -1,
                     "sssp/bfs/ppr source (-1 = max-degree hub)");
    flags.declareInt("k", 3, "kcore: the k");
    flags.declareDouble("tolerance", 1e-9, "activation threshold");
    flags.declareDouble("max-epochs", 10000, "epoch safety cap");
    flags.declare("dump", "", "write per-vertex results to this file");
    flags.declareBool("stats", false, "print graph statistics and exit");
    flags.declareInt("seed", 42, "dataset generator seed");
    if (!flags.parse(argc, argv))
        return 0;

    EdgeList el = loadGraph(flags, argv[0]);
    const std::string algo = flags.get("algo");
    const bool undirected =
        algo == "cc" || algo == "lp" || algo == "kcore" ||
        algo == "color";
    if (undirected)
        el = el.symmetrized();
    std::printf("graph: %u vertices, %llu edges%s\n", el.numVertices(),
                static_cast<unsigned long long>(el.numEdges()),
                undirected ? " (symmetrized)" : "");
    if (flags.getBool("stats")) {
        std::printf("%s\n", computeGraphStats(el).toString().c_str());
        return 0;
    }

    // Integer flags are clamped into their fields' ranges, so an
    // out-of-range value is refused by the checks below or by
    // runAnalyticsJob, never wrapped into a valid one.
    auto clampFlag = [&](const char *name, std::int64_t lo) {
        return static_cast<std::uint32_t>(std::clamp<std::int64_t>(
            flags.getInt(name), lo,
            std::numeric_limits<std::uint32_t>::max()));
    };
    JobRequest req;
    req.algo = algo;
    req.engine = flags.get("engine");
    req.k = clampFlag("k", 0);
    req.options.blockSize = clampFlag("block-size", 1);
    req.options.tolerance = flags.getDouble("tolerance");
    req.options.maxEpochs = flags.getDouble("max-epochs");
    req.options.numThreads = clampFlag("threads", 1);
    req.options.fragments = clampFlag("fragments", 1);
    if (auto sched = parseSchedule(flags.get("schedule")))
        req.options.schedule = *sched;
    else
        fatal("unknown --schedule '", flags.get("schedule"),
              "' (cyclic | priority | obim)");
    std::string why;
    if (!isRunnable(req, &why))
        fatal(why);

    // --source and the max-degree pick are original ids; the runner
    // translates them across any --reorder (DESIGN.md §11).
    if (flags.getInt("source") >= 0) {
        req.source = clampFlag("source", 0);
    } else {
        const auto deg = el.outDegrees();
        req.source = static_cast<VertexId>(
            std::max_element(deg.begin(), deg.end()) - deg.begin());
    }

    LayoutOptions lo;
    if (auto l = parseGraphLayout(flags.get("layout")))
        lo.layout = *l;
    else
        fatal("unknown --layout '", flags.get("layout"),
              "' (plain | compressed)");
    if (auto r = parseVertexReorder(flags.get("reorder")))
        lo.reorder = *r;
    else
        fatal("unknown --reorder '", flags.get("reorder"),
              "' (none | hub)");

    const BlockPartition g(el, req.options.blockSize, lo);
    if (lo.layout != GraphLayout::Plain ||
        lo.reorder != VertexReorder::None) {
        std::printf("layout: %s reorder=%s (%.2f topology B/edge)\n",
                    to_string(g.layout()), to_string(g.reorder()),
                    g.gatherBytesPerEdge());
    }

    const RunOutcome out = runAnalyticsJob(g, req);
    if (!out.ok())
        fatal(out.error);
    std::printf("%s in %.2f epochs (wall %s)\n",
                out.report.converged ? "converged" : "stopped",
                out.report.epochs,
                formatSeconds(out.report.seconds).c_str());

    const std::string &dump = flags.get("dump");
    if (!dump.empty()) {
        // Values come back keyed by original vertex ids.
        std::ofstream ofs(dump);
        if (!ofs)
            fatal("cannot open '", dump, "'");
        ofs << "# vertex " << algo << '\n';
        for (VertexId v = 0; v < g.numVertices(); v++)
            ofs << v << ' ' << out.values[v] << '\n';
        std::printf("wrote %u values to %s\n", g.numVertices(),
                    dump.c_str());
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(argc, argv);
    } catch (const GraphError &e) {
        std::fprintf(stderr, "abcd_cli: %s\n", e.what());
        return 1;
    }
}
