/**
 * @file
 * Microarchitecture kernel benchmarks (google-benchmark): the SPSC
 * ring, the tagged dataflow reduction versus a serial accumulator,
 * the GATHER-APPLY block kernel and partition construction.
 */

#include <benchmark/benchmark.h>

#include <unordered_map>
#include <utility>
#include <vector>

#include "algorithms/pagerank.hh"
#include "core/state.hh"
#include "graph/generators.hh"
#include "graph/partition.hh"
#include "harp/reduction.hh"
#include "runtime/spsc_ring.hh"

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

} // namespace
} // namespace graphabcd

BENCHMARK_MAIN();
