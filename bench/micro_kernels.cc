/**
 * @file
 * Microarchitecture kernel benchmarks (google-benchmark): the SPSC
 * ring, the tagged dataflow reduction versus a serial accumulator,
 * the GATHER-APPLY block kernel and partition construction.
 *
 * With `--layout_grid=PATH` the binary instead measures bytes moved per
 * edge for every (algorithm x layout x reorder) cell on the RMAT
 * stand-in and writes the grid as JSON (the committed BENCH_layout.json
 * is produced this way) — the honest-accounting side of the compressed
 * layout work: the HARP Bus model consumes the same measured ratio.
 */

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "algorithms/pagerank.hh"
#include "algorithms/sssp.hh"
#include "core/engine.hh"
#include "core/state.hh"
#include "graph/generators.hh"
#include "graph/partition.hh"
#include "harp/reduction.hh"
#include "runtime/spsc_ring.hh"
#include "support/logging.hh"

namespace graphabcd {
namespace {

void
BM_SpscRingPushPop(benchmark::State &state)
{
    SpscRing<int> ring(1024);
    for (auto _ : state) {
        ring.tryPush(1);
        benchmark::DoNotOptimize(ring.tryPop());
    }
}
BENCHMARK(BM_SpscRingPushPop);

void
BM_TaggedReduction(benchmark::State &state)
{
    const auto tags = static_cast<std::uint32_t>(state.range(0));
    Rng rng(7);
    std::vector<std::pair<std::uint32_t, double>> stream;
    std::unordered_map<std::uint32_t, std::uint32_t> expected;
    for (int i = 0; i < 4096; i++) {
        auto tag = static_cast<std::uint32_t>(rng.nextBounded(tags));
        stream.emplace_back(tag, rng.nextDouble());
        expected[tag]++;
    }
    TaggedReductionUnit<double> unit(
        [](const double &a, const double &b) { return a + b; });
    for (auto _ : state) {
        auto result = unit.reduce(stream, expected);
        benchmark::DoNotOptimize(result);
    }
    state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_TaggedReduction)->Arg(16)->Arg(256);

void
BM_SerialReduction(benchmark::State &state)
{
    const auto tags = static_cast<std::uint32_t>(state.range(0));
    Rng rng(7);
    std::vector<std::pair<std::uint32_t, double>> stream;
    for (int i = 0; i < 4096; i++) {
        stream.emplace_back(
            static_cast<std::uint32_t>(rng.nextBounded(tags)),
            rng.nextDouble());
    }
    for (auto _ : state) {
        std::vector<double> acc(tags, 0.0);
        for (const auto &[tag, value] : stream)
            acc[tag] += value;
        benchmark::DoNotOptimize(acc);
    }
    state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_SerialReduction)->Arg(16)->Arg(256);

void
BM_PartitionBuild(benchmark::State &state)
{
    Rng rng(9);
    EdgeList el = generateRmat(1 << 14, 1 << 17, rng);
    for (auto _ : state) {
        BlockPartition g(el, 512);
        benchmark::DoNotOptimize(g.numBlocks());
    }
    state.SetItemsProcessed(state.iterations() * el.numEdges());
}
BENCHMARK(BM_PartitionBuild);

/** Arg 0: plain layout; arg 1: compressed (varint decode in the loop). */
void
BM_GatherApplyBlock(benchmark::State &state)
{
    Rng rng(11);
    EdgeList el = generateRmat(1 << 14, 1 << 17, rng);
    LayoutOptions lo;
    lo.layout = state.range(0) ? GraphLayout::Compressed
                               : GraphLayout::Plain;
    BlockPartition g(el, 512, lo);
    PageRankProgram prog;
    BcdState<PageRankProgram> st(g, prog);
    EdgeSliceScratch scratch;
    BlockUpdate<double> update;
    BlockId b = 0;
    for (auto _ : state) {
        st.processBlock(g, prog, b, 1e-9, scratch, update);
        benchmark::DoNotOptimize(update.l1Delta);
        b = (b + 1) % g.numBlocks();
    }
    state.SetLabel(to_string(g.layout()));
}
BENCHMARK(BM_GatherApplyBlock)->Arg(0)->Arg(1);

void
BM_ScatterCommitBlock(benchmark::State &state)
{
    Rng rng(13);
    EdgeList el = generateRmat(1 << 14, 1 << 17, rng);
    BlockPartition g(el, 512);
    PageRankProgram prog;
    BcdState<PageRankProgram> st(g, prog);
    LayoutScratch scratch;
    BlockUpdate<double> update;
    BlockId b = 0;
    for (auto _ : state) {
        st.processBlock(g, prog, b, 1e-9, scratch.slice, update);
        benchmark::DoNotOptimize(
            st.commitBlock(g, prog, update, 1e-9, scratch.scatter));
        b = (b + 1) % g.numBlocks();
    }
}
BENCHMARK(BM_ScatterCommitBlock);

// ----------------------------------------------------- layout grid

/** One (algorithm x layout x reorder) measurement. */
struct LayoutCell
{
    std::string algo;
    GraphLayout layout = GraphLayout::Plain;
    VertexReorder reorder = VertexReorder::None;
    double gatherBytesPerEdge = 0.0;   //!< measured, moved/traversed
    double scatterBytesPerEdge = 0.0;  //!< measured, moved/traversed
    double bytesPerEdge = 0.0;         //!< gather + scatter
    double staticBytesPerEdge = 0.0;   //!< stored topology B/edge
    double epochs = 0.0;
};

/** Run `prog` to convergence and record the bytes-moved tallies. */
template <typename Program>
LayoutCell
measureCell(const char *algo, const EdgeList &el, Program prog,
            LayoutOptions lo)
{
    BlockPartition g(el, 512, lo);
    EngineOptions opt;
    opt.blockSize = 512;
    opt.tolerance = 1e-7;
    SerialEngine<Program> engine(g, prog, opt);
    std::vector<typename Program::Value> values;
    g.resetBytesMoved();
    const EngineReport report = engine.run(values);
    const BytesMoved moved = g.bytesMoved();
    LayoutCell cell;
    cell.algo = algo;
    cell.layout = lo.layout;
    cell.reorder = lo.reorder;
    const double edges =
        static_cast<double>(std::max<std::uint64_t>(
            report.edgeTraversals, 1));
    cell.gatherBytesPerEdge = static_cast<double>(moved.gather) / edges;
    cell.scatterBytesPerEdge =
        static_cast<double>(moved.scatter) / edges;
    cell.bytesPerEdge =
        cell.gatherBytesPerEdge + cell.scatterBytesPerEdge;
    cell.staticBytesPerEdge = g.gatherBytesPerEdge();
    cell.epochs = report.epochs;
    return cell;
}

/**
 * Measure every cell of the grid on the RMAT stand-in and write the
 * JSON report.  @return process exit code.
 */
int
runLayoutGrid(const std::string &path)
{
    Rng rng(11);
    const EdgeList el = generateRmat(1 << 14, 1 << 17, rng);
    const EdgeList sym = el.symmetrized();

    // SSSP from the max-out-degree hub, in original ids: the builder
    // applies any reorder internally, so the bench (like any caller)
    // must translate at the boundary.
    VertexId hub = 0;
    {
        const auto deg = el.outDegrees();
        for (VertexId v = 0; v < el.numVertices(); v++)
            hub = deg[v] > deg[hub] ? v : hub;
    }

    const LayoutOptions grid[] = {
        {GraphLayout::Plain, VertexReorder::None},
        {GraphLayout::Plain, VertexReorder::Hub},
        {GraphLayout::Compressed, VertexReorder::None},
        {GraphLayout::Compressed, VertexReorder::Hub},
    };
    std::vector<LayoutCell> cells;
    for (const LayoutOptions &lo : grid) {
        cells.push_back(measureCell("pr", el, PageRankProgram(), lo));
        VertexId src = hub;
        {
            BlockPartition probe(el, 512, lo);
            src = probe.permutation().toInternal(hub);
        }
        cells.push_back(measureCell("sssp", el, SsspProgram(src), lo));
        cells.push_back(measureCell("cc", sym, CcProgram(), lo));
    }

    // Reduction of each cell against the plain/none cell of its algo.
    auto plainOf = [&](const std::string &algo) -> const LayoutCell & {
        for (const LayoutCell &c : cells) {
            if (c.algo == algo && c.layout == GraphLayout::Plain &&
                c.reorder == VertexReorder::None)
                return c;
        }
        return cells.front();
    };

    std::FILE *out = std::fopen(path.c_str(), "w");
    if (!out) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return 1;
    }
    std::fprintf(out, "{\n");
    std::fprintf(out,
                 "  \"dataset\": \"rmat v=%u e=%llu\",\n"
                 "  \"block_size\": 512,\n  \"engine\": \"serial\",\n",
                 el.numVertices(),
                 static_cast<unsigned long long>(el.numEdges()));
    std::fprintf(out, "  \"cells\": [\n");
    for (std::size_t i = 0; i < cells.size(); i++) {
        const LayoutCell &c = cells[i];
        const double reduction =
            1.0 - c.bytesPerEdge / plainOf(c.algo).bytesPerEdge;
        std::fprintf(
            out,
            "    {\"algo\": \"%s\", \"layout\": \"%s\", "
            "\"reorder\": \"%s\", \"gather_bytes_per_edge\": %.3f, "
            "\"scatter_bytes_per_edge\": %.3f, "
            "\"bytes_per_edge\": %.3f, "
            "\"static_topology_bytes_per_edge\": %.3f, "
            "\"reduction_vs_plain\": %.3f, \"epochs\": %.2f}%s\n",
            c.algo.c_str(), to_string(c.layout), to_string(c.reorder),
            c.gatherBytesPerEdge, c.scatterBytesPerEdge, c.bytesPerEdge,
            c.staticBytesPerEdge, reduction, c.epochs,
            i + 1 < cells.size() ? "," : "");
        std::printf("%-4s %-10s %-4s  %7.3f B/edge  (%.1f%% vs plain)\n",
                    c.algo.c_str(), to_string(c.layout),
                    to_string(c.reorder), c.bytesPerEdge,
                    reduction * 100.0);
    }
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
    std::printf("wrote %s\n", path.c_str());
    return 0;
}

} // namespace
} // namespace graphabcd

int
main(int argc, char **argv)
{
    for (int i = 1; i < argc; i++) {
        const std::string_view arg(argv[i]);
        constexpr std::string_view kGrid = "--layout_grid=";
        if (arg.substr(0, kGrid.size()) == kGrid) {
            return graphabcd::runLayoutGrid(
                std::string(arg.substr(kGrid.size())));
        }
    }
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
