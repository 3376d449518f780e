/**
 * @file
 * Tests of the threaded asynchronous engine: the barrierless, lock-free
 * execution must reach the same fixed points as the serial engine and
 * the exact references, under every execution mode and thread count.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <thread>

#include "algorithms/pagerank.hh"
#include "algorithms/reference.hh"
#include "algorithms/sssp.hh"
#include "core/async_engine.hh"
#include "core/stop_token.hh"
#include "graph/datasets.hh"
#include "graph/generators.hh"
#include "runtime/executor.hh"
#include "support/logging.hh"

namespace graphabcd {
namespace {

struct AsyncCase
{
    std::uint32_t threads;
    ExecMode mode;
};

std::string
caseName(const testing::TestParamInfo<AsyncCase> &info)
{
    return std::string("t") + std::to_string(info.param.threads) + "_" +
           to_string(info.param.mode);
}

class AsyncSweep : public testing::TestWithParam<AsyncCase>
{
  protected:
    EngineOptions
    options() const
    {
        EngineOptions opt;
        opt.blockSize = 32;
        opt.numThreads = GetParam().threads;
        opt.mode = GetParam().mode;
        opt.tolerance = 1e-12;
        return opt;
    }
};

TEST_P(AsyncSweep, PageRankMatchesReference)
{
    Rng rng(51);
    EdgeList el = generateRmat(400, 3200, rng);
    EngineOptions opt = options();
    BlockPartition g(el, opt.blockSize);

    AsyncEngine<PageRankProgram> engine(g, PageRankProgram(0.85), opt);
    std::vector<double> x;
    EngineReport report = engine.run(x);
    EXPECT_TRUE(report.converged);

    std::vector<double> ref = pagerankReference(el, 0.85);
    for (VertexId v = 0; v < el.numVertices(); v++)
        EXPECT_NEAR(x[v], ref[v], 1e-6) << "vertex " << v;
}

TEST_P(AsyncSweep, SsspMatchesDijkstra)
{
    Rng rng(52);
    EdgeList el = generateRmat(400, 3200, rng, {.weighted = true});
    EngineOptions opt = options();
    opt.tolerance = 1e-9;
    BlockPartition g(el, opt.blockSize);

    AsyncEngine<SsspProgram> engine(g, SsspProgram(0), opt);
    std::vector<double> dist;
    EngineReport report = engine.run(dist);
    EXPECT_TRUE(report.converged);

    std::vector<double> ref = dijkstraReference(el, 0);
    for (VertexId v = 0; v < el.numVertices(); v++)
        EXPECT_NEAR(dist[v], ref[v], 1e-6) << "vertex " << v;
}

TEST_P(AsyncSweep, ConnectedComponentsMatchUnionFind)
{
    Rng rng(53);
    EdgeList el = generateErdosRenyi(300, 250, rng);
    EdgeList sym = el.symmetrized();
    EngineOptions opt = options();
    opt.tolerance = 1e-9;
    BlockPartition g(sym, opt.blockSize);

    AsyncEngine<CcProgram> engine(g, CcProgram(), opt);
    std::vector<double> labels;
    EngineReport report = engine.run(labels);
    EXPECT_TRUE(report.converged);

    std::vector<double> ref = ccReference(el);
    for (VertexId v = 0; v < el.numVertices(); v++)
        EXPECT_DOUBLE_EQ(labels[v], ref[v]);
}

INSTANTIATE_TEST_SUITE_P(
    ThreadsAndModes, AsyncSweep,
    testing::Values(AsyncCase{1, ExecMode::Async},
                    AsyncCase{2, ExecMode::Async},
                    AsyncCase{4, ExecMode::Async},
                    AsyncCase{2, ExecMode::Barrier},
                    AsyncCase{2, ExecMode::Bsp},
                    AsyncCase{4, ExecMode::Bsp}),
    caseName);

TEST(AsyncEngine, PriorityScheduleWorksThreaded)
{
    Rng rng(54);
    EdgeList el = generateRmat(256, 2048, rng);
    EngineOptions opt;
    opt.blockSize = 16;
    opt.numThreads = 3;
    opt.schedule = Schedule::Priority;
    opt.tolerance = 1e-12;
    BlockPartition g(el, opt.blockSize);

    AsyncEngine<PageRankProgram> engine(g, PageRankProgram(), opt);
    std::vector<double> x;
    EngineReport report = engine.run(x);
    EXPECT_TRUE(report.converged);
    std::vector<double> ref = pagerankReference(el, 0.85);
    for (VertexId v = 0; v < el.numVertices(); v++)
        EXPECT_NEAR(x[v], ref[v], 1e-6);
}

TEST(AsyncEngine, RepeatedRunsAreStable)
{
    // Asynchronous interleavings differ between runs, but the fixed
    // point must not.
    Rng rng(55);
    EdgeList el = generateRmat(200, 1500, rng, {.weighted = true});
    EngineOptions opt;
    opt.blockSize = 8;
    opt.numThreads = 4;
    opt.tolerance = 1e-9;
    BlockPartition g(el, opt.blockSize);
    std::vector<double> ref = dijkstraReference(el, 0);

    for (int run = 0; run < 5; run++) {
        AsyncEngine<SsspProgram> engine(g, SsspProgram(0), opt);
        std::vector<double> dist;
        engine.run(dist);
        for (VertexId v = 0; v < el.numVertices(); v++)
            EXPECT_NEAR(dist[v], ref[v], 1e-6);
    }
}

/** Options for a run that can never converge (negative tolerance). */
EngineOptions
endlessOptions(ExecMode mode, std::uint32_t threads)
{
    EngineOptions opt;
    opt.blockSize = 16;
    opt.numThreads = threads;
    opt.mode = mode;
    opt.tolerance = -1.0;   // residual >= 0 never beats this
    opt.maxEpochs = 1e9;
    return opt;
}

TEST(AsyncEngineStop, StopTokenTerminatesWorkersPromptly)
{
    Rng rng(57);
    EdgeList el = generateRmat(300, 2400, rng);
    for (ExecMode mode : {ExecMode::Async, ExecMode::Bsp}) {
        EngineOptions opt = endlessOptions(mode, 4);
        StopSource source;
        opt.stop = source.token();
        BlockPartition g(el, opt.blockSize);
        AsyncEngine<PageRankProgram> engine(g, PageRankProgram(), opt);

        std::thread canceller([&source] {
            std::this_thread::sleep_for(std::chrono::milliseconds(30));
            source.requestStop();
        });
        const auto t0 = std::chrono::steady_clock::now();
        std::vector<double> x;
        EngineReport report = engine.run(x);
        canceller.join();
        const double elapsed =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - t0)
                .count();

        // run() returned because the token fired, long before the
        // 1e9-epoch budget, and said so in the report.
        EXPECT_TRUE(report.stopped) << to_string(mode);
        EXPECT_FALSE(report.converged) << to_string(mode);
        EXPECT_LT(elapsed, 10.0) << to_string(mode);

        // State is consistent: a full-size, finite value vector.
        ASSERT_EQ(x.size(), el.numVertices());
        for (VertexId v = 0; v < el.numVertices(); v++)
            EXPECT_TRUE(std::isfinite(x[v])) << "vertex " << v;
    }
}

TEST(AsyncEngineStop, PreCancelledTokenStopsBeforeWork)
{
    Rng rng(58);
    EdgeList el = generateRmat(128, 1024, rng);
    EngineOptions opt = endlessOptions(ExecMode::Async, 2);
    StopSource source;
    source.requestStop();
    opt.stop = source.token();
    BlockPartition g(el, opt.blockSize);
    AsyncEngine<PageRankProgram> engine(g, PageRankProgram(), opt);
    std::vector<double> x;
    EngineReport report = engine.run(x);
    EXPECT_TRUE(report.stopped);
    EXPECT_FALSE(report.converged);
    EXPECT_EQ(x.size(), el.numVertices());
}

TEST(AsyncEngineStop, DeadlineAloneStopsTheRun)
{
    Rng rng(59);
    EdgeList el = generateRmat(200, 1600, rng);
    EngineOptions opt = endlessOptions(ExecMode::Async, 3);
    opt.stop = StopToken().withDeadline(0.05);
    BlockPartition g(el, opt.blockSize);
    AsyncEngine<PageRankProgram> engine(g, PageRankProgram(), opt);
    std::vector<double> x;
    EngineReport report = engine.run(x);
    EXPECT_TRUE(report.stopped);
    EXPECT_FALSE(report.converged);
}

TEST(AsyncEngineStop, StoppedRunPublishesProgress)
{
    Rng rng(60);
    EdgeList el = generateRmat(200, 1600, rng);
    EngineOptions opt = endlessOptions(ExecMode::Async, 2);
    StopSource source;
    opt.stop = source.token();
    auto progress = std::make_shared<Progress>();
    opt.progress = progress;
    BlockPartition g(el, opt.blockSize);
    AsyncEngine<PageRankProgram> engine(g, PageRankProgram(), opt);

    std::thread canceller([&] {
        // Wait until the engine demonstrably did work, then stop it.
        while (progress->blockUpdates.load(std::memory_order_relaxed) <
               10)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        source.requestStop();
    });
    std::vector<double> x;
    EngineReport report = engine.run(x);
    canceller.join();
    EXPECT_TRUE(report.stopped);
    EXPECT_GE(progress->blockUpdates.load(std::memory_order_relaxed),
              10u);
    EXPECT_GT(progress->edgeTraversals.load(std::memory_order_relaxed),
              0u);
}

TEST(AsyncEngine, SinkHeavyGraphMatchesReference)
{
    // Regression for the processAndCommit scatter path: a graph where
    // most vertices are sinks (no out-edges, empty scatterPositions)
    // exercises the early-continue and the hoisted old-edge-value read
    // in both the fused commit (Async) and the wave commit (Bsp).
    EdgeList el(64);
    for (VertexId v = 1; v < 64; v++)
        el.addEdge(0, v);         // hub fans out; 1..63 are sinks
    el.addEdge(1, 0);             // one cycle so rank circulates
    el.addEdge(2, 0);

    std::vector<double> ref = pagerankReference(el, 0.85);
    for (ExecMode mode : {ExecMode::Async, ExecMode::Bsp}) {
        EngineOptions opt;
        opt.blockSize = 8;
        opt.numThreads = 2;
        opt.mode = mode;
        opt.tolerance = 1e-12;
        BlockPartition g(el, opt.blockSize);
        AsyncEngine<PageRankProgram> engine(g, PageRankProgram(0.85),
                                            opt);
        std::vector<double> x;
        EngineReport report = engine.run(x);
        EXPECT_TRUE(report.converged) << to_string(mode);
        for (VertexId v = 0; v < el.numVertices(); v++)
            EXPECT_NEAR(x[v], ref[v], 1e-6)
                << to_string(mode) << " vertex " << v;
    }
}

TEST(AsyncEngine, ReportsWorkCounters)
{
    Rng rng(56);
    EdgeList el = generateRmat(128, 1024, rng);
    EngineOptions opt;
    opt.blockSize = 16;
    opt.numThreads = 2;
    BlockPartition g(el, opt.blockSize);
    AsyncEngine<PageRankProgram> engine(g, PageRankProgram(), opt);
    std::vector<double> x;
    EngineReport report = engine.run(x);
    EXPECT_GT(report.blockUpdates, 0u);
    EXPECT_GT(report.edgeTraversals, 0u);
    EXPECT_GT(report.epochs, 0.0);
    EXPECT_GT(report.seconds, 0.0);
}

TEST(AsyncEngine, HugeMaxEpochsDoesNotOverflowTheUpdateBudget)
{
    // maxEpochs * |V| beyond the uint64 range used to be cast straight
    // to uint64 (UB; in practice a 0 or garbage budget that ended runs
    // instantly).  It must clamp and run to convergence as usual.
    Rng rng(57);
    EdgeList el = generateRmat(256, 2048, rng);
    EngineOptions opt;
    opt.blockSize = 32;
    opt.numThreads = 2;
    opt.tolerance = 1e-10;
    opt.maxEpochs = 1e18;   // * |V| = 2.56e20 >> 2^64 ~ 1.8e19
    BlockPartition g(el, opt.blockSize);
    AsyncEngine<PageRankProgram> engine(g, PageRankProgram(0.85), opt);
    std::vector<double> x;
    EngineReport report = engine.run(x);
    EXPECT_TRUE(report.converged);
    EXPECT_GT(report.blockUpdates, 0u);

    std::vector<double> ref = pagerankReference(el, 0.85);
    for (VertexId v = 0; v < el.numVertices(); v++)
        ASSERT_NEAR(x[v], ref[v], 1e-6) << "vertex " << v;
}

/**
 * ExecMode::Bsp is one Jacobi loop whatever the engine: an AsyncEngine
 * superstep spreads its read-only wave gather over the pool and then
 * commits serially in wave order, so at any thread count it must match
 * SerialEngine's Jacobi run bit for bit, counters included.  |V| = 401
 * is prime, so the last block is short.
 */
struct BspCase
{
    bool sssp;
    Schedule schedule;
    GraphLayout layout;
};

std::string
bspCaseName(const testing::TestParamInfo<BspCase> &info)
{
    return std::string(info.param.sssp ? "sssp" : "pr") + "_" +
           to_string(info.param.schedule) + "_" +
           to_string(info.param.layout);
}

class BspMatchesSerial : public testing::TestWithParam<BspCase>
{
  protected:
    template <typename Program>
    void
    check(const BlockPartition &g, const Program &prog)
    {
        EngineOptions opt;
        opt.blockSize = 32;
        opt.mode = ExecMode::Bsp;
        opt.schedule = GetParam().schedule;
        opt.tolerance = 1e-10;
        std::vector<double> want;
        const EngineReport serial =
            SerialEngine<Program>(g, prog, opt).run(want);
        ASSERT_TRUE(serial.converged);
        ASSERT_GT(serial.blockUpdates, g.numBlocks());   // > 1 superstep

        for (std::uint32_t threads : {1u, 4u}) {
            opt.numThreads = threads;
            std::vector<double> got;
            const EngineReport async =
                AsyncEngine<Program>(g, prog, opt).run(got);
            EXPECT_TRUE(async.converged) << "threads " << threads;
            EXPECT_EQ(async.vertexUpdates, serial.vertexUpdates)
                << "threads " << threads;
            EXPECT_EQ(async.blockUpdates, serial.blockUpdates)
                << "threads " << threads;
            EXPECT_EQ(async.scatterWrites, serial.scatterWrites)
                << "threads " << threads;
            ASSERT_EQ(got.size(), want.size());
            for (VertexId v = 0; v < g.numVertices(); v++) {
                ASSERT_EQ(got[v], want[v])
                    << "threads " << threads << " vertex " << v;
            }
        }
    }
};

TEST_P(BspMatchesSerial, BitIdenticalAtOneAndFourThreads)
{
    Rng rng(58);
    const EdgeList el =
        generateRmat(401, 3200, rng, {.weighted = GetParam().sssp});
    const BlockPartition g(el, 32, {GetParam().layout, VertexReorder::None});
    if (GetParam().sssp) {
        const auto deg = el.outDegrees();
        check(g, SsspProgram(static_cast<VertexId>(
                     std::max_element(deg.begin(), deg.end()) -
                     deg.begin())));
    } else {
        check(g, PageRankProgram(0.85));
    }
}

INSTANTIATE_TEST_SUITE_P(
    Jacobi, BspMatchesSerial,
    testing::Values(
        BspCase{false, Schedule::Cyclic, GraphLayout::Plain},
        BspCase{false, Schedule::Cyclic, GraphLayout::Compressed},
        BspCase{false, Schedule::Priority, GraphLayout::Plain},
        BspCase{false, Schedule::Priority, GraphLayout::Compressed},
        BspCase{true, Schedule::Cyclic, GraphLayout::Plain},
        BspCase{true, Schedule::Cyclic, GraphLayout::Compressed},
        BspCase{true, Schedule::Priority, GraphLayout::Plain},
        BspCase{true, Schedule::Priority, GraphLayout::Compressed}),
    bspCaseName);

/** PageRank with a broken delta(): every vertex move reads negative. */
struct NegativeDeltaProgram : PageRankProgram
{
    double delta(double, double) const { return -1.0; }
};

TEST(AsyncEngine, BspWaveGatherFailureReachesTheCaller)
{
    // A block that fails inside a pool participant's wave gather must
    // surface as the run's exception after the barrier, not end the
    // process or leave participants running on a dead stack frame.
    Rng rng(59);
    const EdgeList el = generateRmat(200, 1600, rng);
    EngineOptions opt;
    opt.blockSize = 8;
    opt.mode = ExecMode::Bsp;
    const BlockPartition g(el, opt.blockSize);
    for (std::uint32_t threads : {1u, 4u}) {
        opt.numThreads = threads;
        AsyncEngine<NegativeDeltaProgram> engine(
            g, NegativeDeltaProgram(), opt);
        std::vector<double> x;
        EXPECT_THROW(engine.run(x), PanicError) << "threads " << threads;
    }
}

TEST(AsyncEngine, AsyncStepFailureReachesTheCaller)
{
    // The fused step shares gatherApply's delta() check with the
    // serial path.  A step that throws on a pool participant must halt
    // the run and surface on the caller, not end the process, and a
    // broken program must never read as a converged run.
    Rng rng(58);
    const EdgeList el = generateRmat(200, 1600, rng);
    EngineOptions opt;
    opt.blockSize = 8;
    opt.mode = ExecMode::Async;
    const BlockPartition g(el, opt.blockSize);
    for (std::uint32_t threads : {1u, 4u}) {
        opt.numThreads = threads;
        AsyncEngine<NegativeDeltaProgram> engine(
            g, NegativeDeltaProgram(), opt);
        std::vector<double> x;
        EXPECT_THROW(engine.run(x), PanicError) << "threads " << threads;
    }
}

/**
 * The one-holder rule of the block driver.  If a second participant
 * could claim a block that another participant still holds, the older
 * update could commit last and overwrite a shorter distance.  Eight
 * pool workers on a host with fewer cores preempt participants
 * mid-block, which is when two claims would overlap.  SSSP with
 * tolerance 0 is exact, so every run must match Dijkstra bit for bit.
 * A run misses at about 5% per run without the rule, so the default
 * 150 runs fail it almost surely.  Under TSan a run costs about 1.5 s,
 * so the default drops to 16 there.  GRAPHABCD_ASYNC_STRESS_ITERS
 * scales the run count (tools/ci.sh raises it on the TSan leg).
 */
TEST(AsyncStress, PrioritySsspIsExactOnAnOversubscribedPool)
{
#ifdef __SANITIZE_THREAD__
    int iters = 16;
#else
    int iters = 150;
#endif
    if (const char *env = std::getenv("GRAPHABCD_ASYNC_STRESS_ITERS"))
        iters = std::max(1, std::atoi(env));

    const Dataset ds = makeDataset("PS", 0.25, 1);
    const BlockPartition g(ds.graph, 512,
                           {GraphLayout::Compressed, VertexReorder::Hub});
    const auto deg = ds.graph.outDegrees();
    const auto hub = static_cast<VertexId>(
        std::max_element(deg.begin(), deg.end()) - deg.begin());
    const std::vector<double> ref = dijkstraReference(ds.graph, hub);
    auto pool = std::make_shared<Executor>(8);

    for (int it = 0; it < iters; it++) {
        EngineOptions opt;
        opt.blockSize = 512;
        opt.schedule = Schedule::Priority;
        opt.numThreads = 8;
        opt.tolerance = 0.0;
        opt.executor = pool;
        AsyncEngine<SsspProgram> engine(
            g, SsspProgram(g.permutation().toInternal(hub)), opt);
        std::vector<double> dist;
        ASSERT_TRUE(engine.run(dist).converged) << "run " << it;
        for (VertexId v = 0; v < ds.graph.numVertices(); v++) {
            ASSERT_EQ(dist[g.permutation().toInternal(v)], ref[v])
                << "run " << it << " vertex " << v;
        }
    }
}

} // namespace
} // namespace graphabcd
