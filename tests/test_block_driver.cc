/**
 * @file
 * Tests of the shared BlockDriver behind the threaded engines: one
 * holder per block under a policy that stalls inside its process step,
 * no activation lost while its block was held, halts that drop queued
 * work never reporting convergence, and a caller that found nothing to
 * claim taking its participant slot back when work returns.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "algorithms/pagerank.hh"
#include "algorithms/reference.hh"
#include "core/accum_engine.hh"
#include "core/async_engine.hh"
#include "core/block_driver.hh"
#include "core/stop_token.hh"
#include "graph/generators.hh"
#include "runtime/executor.hh"

namespace graphabcd {
namespace {

/** The two dispatch shapes: AsyncEngine's window and AccumEngine's. */
DriverConfig
driverConfig(std::uint32_t participation, std::size_t window)
{
    DriverConfig cfg;
    cfg.participation = participation;
    cfg.window = window;
    cfg.runSpan = "test.driver.run";
    cfg.gasHistogram = "test.driver.block_gas_us";
    cfg.fanoutHistogram = "test.driver.scatter_fanout";
    return cfg;
}

/**
 * BFS depth as a state-based commit: gather a block's new depths from
 * a snapshot, stall, then store them whole.  A second holder of the
 * block would be counted, and its older stores could land last.
 */
class StallingBfs
{
  public:
    StallingBfs(const BlockPartition &g, VertexId source)
        : graph(g), depth(g.numVertices()), holders(g.numBlocks())
    {
        for (VertexId v = 0; v < g.numVertices(); v++)
            depth[v].store(v == source ? 0.0 : 1e18);
    }

    BlockWork
    process(BlockId b, LayoutScratch &scratch, ActivationSink &out)
    {
        if (holders[b].fetch_add(1) != 0)
            doubleHolds.fetch_add(1);
        BlockWork work;
        work.vertices = graph.blockVertexCount(b);
        work.edges = graph.blockEdgeCount(b);
        const BlockEdgesView slice = graph.blockEdges(b, scratch.slice);
        std::vector<double> next;
        for (VertexId v = graph.blockBegin(b); v < graph.blockEnd(b);
             v++) {
            double best = depth[v].load();
            for (EdgeId e = graph.inEdgeBegin(v); e < graph.inEdgeEnd(v);
                 e++)
                best = std::min(best, depth[slice.src[e - slice.base]] + 1);
            next.push_back(best);
        }
        // Every eighth block stalls long enough for the other
        // participants to drain the window past it and to re-activate
        // it while it is held.
        std::this_thread::sleep_for(
            std::chrono::microseconds(b % 8 == 1 ? 1000 : 20));
        BlockId hint = b;
        for (VertexId v = graph.blockBegin(b); v < graph.blockEnd(b);
             v++) {
            const double d = next[v - graph.blockBegin(b)];
            if (!(d < depth[v].load()))
                continue;
            depth[v].store(d);
            work.active++;
            for (EdgeId pos : graph.scatterList(v, scratch.scatter)) {
                const BlockId dst = graph.dstBlockOfEdge(pos, hint);
                if (holders[dst].load() > 0)
                    pushesToHeld.fetch_add(1);
                out.push(dst, 1.0);
                work.scatters++;
            }
        }
        holders[b].fetch_sub(1);
        return work;
    }

    const BlockPartition &graph;
    std::vector<std::atomic<double>> depth;
    std::vector<std::atomic<int>> holders;
    std::atomic<int> doubleHolds{0};
    std::atomic<int> pushesToHeld{0};
};

struct DriverCase
{
    std::size_t window;
    Schedule schedule;
};

class DriverSweep : public testing::TestWithParam<DriverCase>
{
};

TEST_P(DriverSweep, OneHolderPerBlockAndNoLostActivations)
{
    // On the 8-block cycle every vertex has one in-edge, and block 1
    // is still held when block 0 commits its new depths into it: an
    // activation lost there leaves wrong depths behind.  RMAT adds
    // hubs and many blocks active at once.
    Rng rng(71);
    const EdgeList graphs[] = {generateRmat(1024, 8192, rng),
                               generateCycle(128)};
    EngineOptions opt;
    opt.schedule = GetParam().schedule;
    opt.tolerance = 0.0;
    opt.executor = std::make_shared<Executor>(4);

    for (const EdgeList &el : graphs) {
        BlockPartition g(el, 16);
        for (VertexId source : {0u, 1u, 2u}) {
            const std::vector<double> ref = bfsReference(el, source);
            StallingBfs bfs(g, source);
            BlockDriver driver(g, opt, driverConfig(4, GetParam().window));
            EngineReport report = driver.run(
                [&bfs](BlockId b, LayoutScratch &s, ActivationSink &out) {
                    return bfs.process(b, s, out);
                });

            SCOPED_TRACE(testing::Message() << "|V| " << el.numVertices()
                                            << " source " << source);
            EXPECT_TRUE(report.converged);
            EXPECT_EQ(bfs.doubleHolds.load(), 0);
            // Blocks were re-activated while a participant held them,
            // and none of those activations was lost: the fixpoint is
            // exact.
            EXPECT_GT(bfs.pushesToHeld.load(), 0);
            for (VertexId v = 0; v < el.numVertices(); v++)
                ASSERT_EQ(bfs.depth[v].load(), ref[v]) << "vertex " << v;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DriverSweep,
    testing::Values(DriverCase{16, Schedule::Cyclic},
                    DriverCase{16, Schedule::Priority},
                    DriverCase{16, Schedule::Obim},
                    DriverCase{1, Schedule::Cyclic},
                    DriverCase{1, Schedule::Priority},
                    DriverCase{1, Schedule::Obim}),
    [](const testing::TestParamInfo<DriverCase> &info) {
        return std::string("w") + std::to_string(info.param.window) + "_" +
               to_string(info.param.schedule);
    });

TEST(BlockDriver, HaltsThatDropQueuedWorkNeverReportConvergence)
{
    // Eight blocks fit the async window whole, so after the first
    // refill the scheduler is empty and only the window holds work.
    EdgeList el = generateCycle(128);
    BlockPartition g(el, 16);
    auto idle = [&g](BlockId b, LayoutScratch &, ActivationSink &) {
        BlockWork work;
        work.vertices = g.blockVertexCount(b);
        return work;
    };
    for (std::size_t window : {std::size_t{16}, std::size_t{1}}) {
        // Budget halt after one block: the rest is dropped, not done.
        EngineOptions budget;
        budget.maxEpochs = 16.0 / 128.0;
        EngineReport r1 =
            BlockDriver(g, budget, driverConfig(1, window)).run(idle);
        EXPECT_EQ(r1.blockUpdates, 1u) << "window " << window;
        EXPECT_FALSE(r1.stopped) << "window " << window;
        EXPECT_FALSE(r1.converged) << "window " << window;

        // Stop requested from inside the first process step.
        EngineOptions stop;
        StopSource source;
        stop.stop = source.token();
        EngineReport r2 =
            BlockDriver(g, stop, driverConfig(1, window))
                .run([&](BlockId b, LayoutScratch &s, ActivationSink &o) {
                    source.requestStop();
                    return idle(b, s, o);
                });
        EXPECT_EQ(r2.blockUpdates, 1u) << "window " << window;
        EXPECT_TRUE(r2.stopped) << "window " << window;
        EXPECT_FALSE(r2.converged) << "window " << window;
    }

    // The same through both engines: endless runs halted by budget.
    Rng rng(72);
    EdgeList rmat = generateRmat(256, 2048, rng);
    BlockPartition rg(rmat, 16);
    EngineOptions endless;
    endless.blockSize = 16;
    endless.numThreads = 4;
    endless.tolerance = -1.0;
    endless.maxEpochs = 2.0;
    std::vector<double> x;
    AsyncEngine<PageRankProgram> async(rg, PageRankProgram(), endless);
    EXPECT_FALSE(async.run(x).converged);
    AccumEngine<PageRankAccumProgram> accum(rg, PageRankAccumProgram(),
                                            endless);
    EXPECT_FALSE(accum.run(x).converged);
}

TEST(BlockDriver, CallerTakesItsSlotBackWhenWorkReturns)
{
    // Two units, participation two, one pool worker.  In round one the
    // caller's unit ends while the pool participant still holds the
    // other, so the caller has nothing to claim.  The pool step then
    // re-activates both units, and round two needs two participants at
    // once.  A caller gone to job->wait() would leave the second unit
    // to a pool task queued behind the only worker.
    const EdgeList el = generateCycle(32);
    const BlockPartition g(el, 16);
    ASSERT_EQ(g.numBlocks(), 2u);
    EngineOptions opt;
    opt.executor = std::make_shared<Executor>(1);

    const std::thread::id caller = std::this_thread::get_id();
    std::atomic<int> calls{0};
    std::atomic<bool> poolStarted{false};
    std::atomic<int> inRoundTwo{0};
    std::atomic<bool> overlapped{false};
    auto waitFor = [](auto done) {
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(5);
        while (!done() && std::chrono::steady_clock::now() < deadline)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
    };
    EngineReport report = BlockDriver(g, opt, driverConfig(2, 1)).run(
        [&](BlockId, LayoutScratch &, ActivationSink &out) {
            if (calls.fetch_add(1) < 2) {
                if (std::this_thread::get_id() == caller) {
                    waitFor([&] { return poolStarted.load(); });
                } else {
                    poolStarted.store(true);
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(50));
                    out.push(0, 1.0);
                    out.push(1, 1.0);
                }
            } else {
                inRoundTwo.fetch_add(1);
                waitFor([&] {
                    return overlapped.load() || inRoundTwo.load() == 2;
                });
                if (inRoundTwo.load() == 2)
                    overlapped.store(true);
                inRoundTwo.fetch_sub(1);
            }
            return BlockWork{};
        });
    EXPECT_TRUE(report.converged);
    EXPECT_EQ(calls.load(), 4);
    EXPECT_TRUE(overlapped.load())
        << "round two ran on one participant at a time";
}

} // namespace
} // namespace graphabcd
