/**
 * @file
 * Tests of the fragment scale-out subsystem: topology cuts, the sharded
 * engine's equivalence with the exact references across fragment and
 * thread counts (including counts that do not divide |V| and the
 * 1-fragment degenerate case) and in the benchmark's schedule and
 * layout configurations, termination accounting, cancellation, a
 * failing program, and a cancel-storm stress aimed at the TSan build.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>

#include "algorithms/pagerank.hh"
#include "algorithms/reference.hh"
#include "algorithms/sssp.hh"
#include "core/stop_token.hh"
#include "fragment/engine.hh"
#include "fragment/topology.hh"
#include "graph/generators.hh"
#include "support/logging.hh"

namespace graphabcd {
namespace {

// ---------------------------------------------------------- topology

TEST(FragmentTopology, CutsAreContiguousAndCoverEverything)
{
    Rng rng(61);
    EdgeList el = generateRmat(1013, 8000, rng);
    BlockPartition g(el, 32);
    FragmentTopology topo(g, 4);

    ASSERT_EQ(topo.numFragments(), 4u);
    EXPECT_EQ(topo.blockBegin(0), 0u);
    EXPECT_EQ(topo.blockEnd(3), g.numBlocks());
    EXPECT_EQ(topo.vertexBegin(0), 0u);
    EXPECT_EQ(topo.vertexEnd(3), g.numVertices());
    EXPECT_EQ(topo.edgeBegin(0), 0u);
    EXPECT_EQ(topo.edgeEnd(3), g.numEdges());
    for (FragmentId f = 0; f < 4; f++) {
        EXPECT_GE(topo.blockCount(f), 1u) << "fragment " << f;
        if (f > 0) {
            EXPECT_EQ(topo.blockBegin(f), topo.blockEnd(f - 1));
            EXPECT_EQ(topo.vertexBegin(f), topo.vertexEnd(f - 1));
            EXPECT_EQ(topo.edgeBegin(f), topo.edgeEnd(f - 1));
        }
        // Fragment boundaries sit on block boundaries.
        EXPECT_EQ(topo.vertexBegin(f), g.blockBegin(topo.blockBegin(f)));
    }
}

TEST(FragmentTopology, OwnershipLookupsRoundTrip)
{
    Rng rng(62);
    EdgeList el = generateRmat(500, 4000, rng);
    BlockPartition g(el, 16);
    FragmentTopology topo(g, 8);

    for (BlockId b = 0; b < g.numBlocks(); b++) {
        const FragmentId f = topo.fragmentOfBlock(b);
        EXPECT_GE(b, topo.blockBegin(f));
        EXPECT_LT(b, topo.blockEnd(f));
    }
    for (VertexId v = 0; v < g.numVertices(); v += 7) {
        const FragmentId f = topo.fragmentOfVertex(v);
        EXPECT_GE(v, topo.vertexBegin(f));
        EXPECT_LT(v, topo.vertexEnd(f));
        // A vertex and its block agree on ownership.
        EXPECT_EQ(f, topo.fragmentOfBlock(g.blockOf(v)));
    }
    for (EdgeId e = 0; e < g.numEdges(); e += 13) {
        const FragmentId f = topo.fragmentOfEdge(e);
        EXPECT_GE(e, topo.edgeBegin(f));
        EXPECT_LT(e, topo.edgeEnd(f));
    }
}

TEST(FragmentTopology, RequestClampsToBlockCount)
{
    Rng rng(63);
    EdgeList el = generateRmat(64, 512, rng);
    BlockPartition g(el, 16);   // only a handful of blocks
    FragmentTopology topo(g, 1000);
    EXPECT_EQ(topo.numFragments(), g.numBlocks());
    for (FragmentId f = 0; f < topo.numFragments(); f++)
        EXPECT_EQ(topo.blockCount(f), 1u);
}

// ------------------------------------------- engine equivalence sweep

struct FragCase
{
    std::uint32_t fragments;
    std::uint32_t threads;
};

std::string
caseName(const testing::TestParamInfo<FragCase> &info)
{
    return std::string("f") + std::to_string(info.param.fragments) +
           "_t" + std::to_string(info.param.threads);
}

class FragmentSweep : public testing::TestWithParam<FragCase>
{
  protected:
    EngineOptions
    options() const
    {
        EngineOptions opt;
        opt.blockSize = 32;
        opt.fragments = GetParam().fragments;
        opt.numThreads = GetParam().threads;
        opt.tolerance = 1e-12;
        return opt;
    }
};

TEST_P(FragmentSweep, PageRankMatchesReference)
{
    Rng rng(64);
    // 1013 vertices: prime, so no fragment count divides it evenly.
    EdgeList el = generateRmat(1013, 8000, rng);
    EngineOptions opt = options();
    BlockPartition g(el, opt.blockSize);

    FragmentEngine<PageRankProgram> engine(g, PageRankProgram(0.85),
                                           opt);
    std::vector<double> x;
    EngineReport report = engine.run(x);
    EXPECT_TRUE(report.converged);

    std::vector<double> ref = pagerankReference(el, 0.85);
    for (VertexId v = 0; v < el.numVertices(); v++)
        EXPECT_NEAR(x[v], ref[v], 1e-6) << "vertex " << v;
}

TEST_P(FragmentSweep, SsspMatchesDijkstra)
{
    Rng rng(65);
    EdgeList el = generateRmat(600, 4800, rng, {.weighted = true});
    EngineOptions opt = options();
    opt.tolerance = 1e-9;
    BlockPartition g(el, opt.blockSize);

    FragmentEngine<SsspProgram> engine(g, SsspProgram(0), opt);
    std::vector<double> dist;
    EngineReport report = engine.run(dist);
    EXPECT_TRUE(report.converged);

    std::vector<double> ref = dijkstraReference(el, 0);
    for (VertexId v = 0; v < el.numVertices(); v++)
        EXPECT_NEAR(dist[v], ref[v], 1e-6) << "vertex " << v;
}

TEST_P(FragmentSweep, BfsMatchesReference)
{
    Rng rng(66);
    EdgeList el = generateRmat(600, 4800, rng);
    EngineOptions opt = options();
    opt.tolerance = 1e-9;
    BlockPartition g(el, opt.blockSize);

    FragmentEngine<BfsProgram> engine(g, BfsProgram(0), opt);
    std::vector<double> depth;
    EngineReport report = engine.run(depth);
    EXPECT_TRUE(report.converged);

    std::vector<double> ref = bfsReference(el, 0);
    for (VertexId v = 0; v < el.numVertices(); v++)
        EXPECT_DOUBLE_EQ(depth[v], ref[v]) << "vertex " << v;
}

TEST_P(FragmentSweep, ConnectedComponentsMatchUnionFind)
{
    Rng rng(67);
    EdgeList el = generateErdosRenyi(400, 330, rng);
    EdgeList sym = el.symmetrized();
    EngineOptions opt = options();
    opt.tolerance = 1e-9;
    BlockPartition g(sym, opt.blockSize);

    FragmentEngine<CcProgram> engine(g, CcProgram(), opt);
    std::vector<double> labels;
    EngineReport report = engine.run(labels);
    EXPECT_TRUE(report.converged);

    std::vector<double> ref = ccReference(el);
    for (VertexId v = 0; v < el.numVertices(); v++)
        EXPECT_DOUBLE_EQ(labels[v], ref[v]) << "vertex " << v;
}

INSTANTIATE_TEST_SUITE_P(
    FragmentsAndThreads, FragmentSweep,
    testing::Values(FragCase{1, 1}, FragCase{2, 1}, FragCase{2, 2},
                    FragCase{4, 2}, FragCase{4, 4}, FragCase{8, 4},
                    FragCase{8, 8}),
    caseName);

// ------------------------- benchmark schedules x layouts sweep

/** Shard schedule, layout, fragment and thread count of one case. */
struct FragLayoutCase
{
    Schedule schedule;
    bool packed;   //!< compressed layout + hub reorder, else plain
    std::uint32_t fragments;
    std::uint32_t threads;
};

std::string
layoutCaseName(const testing::TestParamInfo<FragLayoutCase> &info)
{
    const FragLayoutCase &c = info.param;
    return std::string(to_string(c.schedule)) +
           (c.packed ? "_packed" : "_plain") + "_f" +
           std::to_string(c.fragments) + "_t" + std::to_string(c.threads);
}

/**
 * The fragment engine in the shapes the benchmark runs it: shard
 * schedules priority and OBIM, on the plain layout and on compressed +
 * hub reorder.  |V| = 1013 is prime, and results are checked in
 * original vertex ids against the exact references.
 */
class FragmentLayoutSweep : public testing::TestWithParam<FragLayoutCase>
{
  protected:
    EngineOptions
    options() const
    {
        EngineOptions opt;
        opt.blockSize = 32;
        opt.schedule = GetParam().schedule;
        opt.fragments = GetParam().fragments;
        opt.numThreads = GetParam().threads;
        return opt;
    }

    LayoutOptions
    layout() const
    {
        if (GetParam().packed)
            return {GraphLayout::Compressed, VertexReorder::Hub};
        return {};
    }
};

TEST_P(FragmentLayoutSweep, PageRankMatchesReference)
{
    Rng rng(73);
    const EdgeList el = generateRmat(1013, 8000, rng);
    EngineOptions opt = options();
    opt.tolerance = 1e-12;
    const BlockPartition g(el, opt.blockSize, layout());

    FragmentEngine<PageRankProgram> engine(g, PageRankProgram(0.85),
                                           opt);
    std::vector<double> x;
    EXPECT_TRUE(engine.run(x).converged);
    x = g.permutation().valuesToOriginal(x);

    const std::vector<double> ref = pagerankReference(el, 0.85);
    for (VertexId v = 0; v < el.numVertices(); v++)
        ASSERT_NEAR(x[v], ref[v], 1e-6) << "vertex " << v;
}

TEST_P(FragmentLayoutSweep, SsspMatchesDijkstra)
{
    Rng rng(74);
    const EdgeList el =
        generateRmat(1013, 8000, rng, {.weighted = true});
    EngineOptions opt = options();
    opt.tolerance = 1e-9;
    const BlockPartition g(el, opt.blockSize, layout());
    const VertexId source = 3;

    FragmentEngine<SsspProgram> engine(
        g, SsspProgram(g.permutation().toInternal(source)), opt);
    std::vector<double> dist;
    EXPECT_TRUE(engine.run(dist).converged);
    dist = g.permutation().valuesToOriginal(dist);

    const std::vector<double> ref = dijkstraReference(el, source);
    for (VertexId v = 0; v < el.numVertices(); v++)
        ASSERT_NEAR(dist[v], ref[v], 1e-6) << "vertex " << v;
}

std::vector<FragLayoutCase>
layoutCases()
{
    std::vector<FragLayoutCase> cases;
    for (Schedule s : {Schedule::Priority, Schedule::Obim})
        for (bool packed : {false, true})
            for (std::uint32_t f : {2u, 4u})
                for (std::uint32_t t : {1u, 4u})
                    cases.push_back({s, packed, f, t});
    return cases;
}

INSTANTIATE_TEST_SUITE_P(SchedulesAndLayouts, FragmentLayoutSweep,
                         testing::ValuesIn(layoutCases()),
                         layoutCaseName);

// -------------------------------------------- accounting and control

TEST(FragmentEngine, SingleFragmentSendsNoMessages)
{
    Rng rng(68);
    EdgeList el = generateRmat(300, 2400, rng);
    EngineOptions opt;
    opt.blockSize = 32;
    opt.fragments = 1;
    opt.numThreads = 4;
    opt.tolerance = 1e-10;
    BlockPartition g(el, opt.blockSize);

    FragmentEngine<PageRankProgram> engine(g, PageRankProgram(0.85),
                                           opt);
    std::vector<double> x;
    EngineReport report = engine.run(x);
    EXPECT_TRUE(report.converged);
    ASSERT_EQ(engine.fragmentStats().size(), 1u);
    EXPECT_EQ(engine.fragmentStats()[0].messagesSent, 0u);
    EXPECT_EQ(engine.fragmentStats()[0].messagesReceived, 0u);
}

TEST(FragmentEngine, MessageCountsBalanceAtQuiescence)
{
    Rng rng(69);
    EdgeList el = generateRmat(800, 6400, rng);
    EngineOptions opt;
    opt.blockSize = 32;
    opt.fragments = 4;
    opt.numThreads = 4;
    opt.tolerance = 1e-10;
    BlockPartition g(el, opt.blockSize);

    FragmentEngine<PageRankProgram> engine(g, PageRankProgram(0.85),
                                           opt);
    std::vector<double> x;
    EngineReport report = engine.run(x);
    EXPECT_TRUE(report.converged);

    std::uint64_t sent = 0, received = 0, blocks = 0;
    for (const FragmentRunStats &s : engine.fragmentStats()) {
        sent += s.messagesSent;
        received += s.messagesReceived;
        blocks += s.blockUpdates;
    }
    EXPECT_GT(sent, 0u) << "4 fragments must exchange deltas";
    EXPECT_EQ(sent, received) << "quiescence requires drained rings";
    EXPECT_EQ(blocks, report.blockUpdates);
}

TEST(FragmentEngine, BudgetHaltNeverClaimsConvergence)
{
    Rng rng(70);
    EdgeList el = generateRmat(500, 4000, rng);
    EngineOptions opt;
    opt.blockSize = 32;
    opt.fragments = 4;
    opt.numThreads = 2;
    opt.tolerance = 1e-14;
    opt.maxEpochs = 0.25;   // far below what PR needs
    BlockPartition g(el, opt.blockSize);

    FragmentEngine<PageRankProgram> engine(g, PageRankProgram(0.85),
                                           opt);
    std::vector<double> x;
    EngineReport report = engine.run(x);
    EXPECT_FALSE(report.converged);
    EXPECT_FALSE(report.stopped);
}

TEST(FragmentEngine, StopTokenEndsTheRun)
{
    Rng rng(71);
    EdgeList el = generateRmat(500, 4000, rng);
    EngineOptions opt;
    opt.blockSize = 32;
    opt.fragments = 4;
    opt.numThreads = 2;
    opt.tolerance = 1e-14;
    BlockPartition g(el, opt.blockSize);

    StopSource stop;
    stop.requestStop();
    opt.stop = stop.token();

    FragmentEngine<PageRankProgram> engine(g, PageRankProgram(0.85),
                                           opt);
    std::vector<double> x;
    EngineReport report = engine.run(x);
    EXPECT_TRUE(report.stopped);
    EXPECT_FALSE(report.converged);
}

/** PageRank with a broken delta(): every vertex move reads negative. */
struct NegativeDeltaProgram : PageRankProgram
{
    double delta(double, double) const { return -1.0; }
};

TEST(FragmentEngine, PumpFailureReachesTheCaller)
{
    // A shard block whose gather fails inside a pump, on the caller or
    // on a pool participant, must halt the run and surface on the
    // caller instead of reporting a converged run.
    Rng rng(75);
    const EdgeList el = generateRmat(500, 4000, rng);
    EngineOptions opt;
    opt.blockSize = 32;
    opt.fragments = 4;
    opt.numThreads = 4;
    const BlockPartition g(el, opt.blockSize);

    FragmentEngine<NegativeDeltaProgram> engine(g, NegativeDeltaProgram(),
                                                opt);
    std::vector<double> x;
    EXPECT_THROW(engine.run(x), PanicError);
}

// ------------------------------------------------------ cancel storm

/**
 * The TSan target: 8 fragments under concurrent ring traffic, with a
 * stop token fired at staggered points — from before the run starts to
 * mid-flight — so the driver's claim/park handoff of fragments,
 * drain/flush and cancellation all race.
 * GRAPHABCD_FRAGMENT_STRESS_ITERS scales the iteration count
 * (tools/ci.sh raises it on the TSan leg).
 */
TEST(FragmentStress, CancelStormUnderTraffic)
{
    int iters = 6;
    if (const char *env =
            std::getenv("GRAPHABCD_FRAGMENT_STRESS_ITERS")) {
        iters = std::max(1, std::atoi(env));
    }

    Rng rng(72);
    EdgeList el = generateRmat(1500, 12000, rng);
    BlockPartition g(el, 32);
    std::vector<double> ref = pagerankReference(el, 0.85);

    for (int it = 0; it < iters; it++) {
        EngineOptions opt;
        opt.blockSize = 32;
        opt.fragments = 8;
        opt.numThreads = 4;
        opt.tolerance = 1e-10;

        StopSource stop;
        opt.stop = stop.token();

        FragmentEngine<PageRankProgram> engine(g, PageRankProgram(0.85),
                                               opt);
        // Stagger the trigger across iterations: 0 fires before any
        // block is processed, larger delays land mid-run or after
        // quiescence.
        std::atomic<bool> fired{false};
        std::thread trigger([&] {
            std::this_thread::sleep_for(
                std::chrono::microseconds(it * 400));
            stop.requestStop();
            fired.store(true);
        });

        std::vector<double> x;
        EngineReport report = engine.run(x);
        trigger.join();
        ASSERT_TRUE(fired.load());

        if (report.converged) {
            // A run that beat the trigger must be a correct fixpoint.
            for (VertexId v = 0; v < el.numVertices(); v++)
                ASSERT_NEAR(x[v], ref[v], 1e-5) << "vertex " << v;
        }
    }
}

} // namespace
} // namespace graphabcd
