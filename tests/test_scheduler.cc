/**
 * @file
 * Tests of the block schedulers: cyclic order, Gauss-Southwell priority
 * order, OBIM levels, activation/deactivation bookkeeping.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "core/scheduler.hh"
#include "support/random.hh"

namespace graphabcd {
namespace {

TEST(Cyclic, SweepsInIdOrder)
{
    CyclicScheduler s(4);
    for (BlockId b = 0; b < 4; b++)
        s.activate(b, 1.0);
    EXPECT_EQ(s.next(), 0u);
    EXPECT_EQ(s.next(), 1u);
    EXPECT_EQ(s.next(), 2u);
    EXPECT_EQ(s.next(), 3u);
    EXPECT_EQ(s.next(), std::nullopt);
}

TEST(Cyclic, ResumesFromCursorNotFromZero)
{
    CyclicScheduler s(4);
    s.activate(0, 1.0);
    s.activate(1, 1.0);
    EXPECT_EQ(s.next(), 0u);
    EXPECT_EQ(s.next(), 1u);
    s.activate(0, 1.0);
    s.activate(3, 1.0);
    // Cursor sits at 2, so 3 comes before the wrap-around to 0.
    EXPECT_EQ(s.next(), 3u);
    EXPECT_EQ(s.next(), 0u);
}

TEST(Cyclic, DoubleActivationIsIdempotent)
{
    CyclicScheduler s(2);
    s.activate(1, 1.0);
    s.activate(1, 1.0);
    EXPECT_EQ(s.activeCount(), 1u);
    EXPECT_EQ(s.next(), 1u);
    EXPECT_TRUE(s.empty());
}

TEST(Priority, PicksLargestGradientFirst)
{
    PriorityScheduler s(4);
    s.activate(0, 1.0);
    s.activate(1, 5.0);
    s.activate(2, 3.0);
    EXPECT_EQ(s.next(), 1u);
    EXPECT_EQ(s.next(), 2u);
    EXPECT_EQ(s.next(), 0u);
    EXPECT_TRUE(s.empty());
}

TEST(Priority, DeltasAccumulate)
{
    PriorityScheduler s(3);
    s.activate(0, 2.0);
    s.activate(1, 3.0);
    s.activate(0, 2.0);   // 0 now has 4.0 > 3.0
    EXPECT_EQ(s.next(), 0u);
    EXPECT_EQ(s.next(), 1u);
}

TEST(Priority, ProcessingResetsPriority)
{
    PriorityScheduler s(2);
    s.activate(0, 10.0);
    EXPECT_EQ(s.next(), 0u);
    EXPECT_DOUBLE_EQ(s.priority(0), 0.0);
    s.activate(0, 1.0);
    s.activate(1, 2.0);
    EXPECT_EQ(s.next(), 1u);   // old 10.0 must not linger
}

TEST(Priority, StaleHeapEntriesAreSkipped)
{
    PriorityScheduler s(3);
    for (int round = 0; round < 100; round++) {
        s.activate(0, 1.0);
        s.activate(1, 0.5);
        EXPECT_EQ(s.next(), 0u);
        EXPECT_EQ(s.next(), 1u);
        EXPECT_EQ(s.next(), std::nullopt);
    }
}

TEST(Priority, ZeroDeltaActivationDoesNotChurnTheHeap)
{
    // Regression: blocks are legitimately activated with delta 0 (e.g.
    // a scatter whose values changed below tolerance elsewhere).  With
    // pushedPrio at 0 the 25% growth test `prio > pushed * 1.25`
    // degenerates, so every re-activation must still be throttled.
    PriorityScheduler s(2);
    s.activate(0, 0.0);
    const std::uint64_t pushes = s.counters().heapPushes;
    EXPECT_EQ(pushes, 1u);
    for (int i = 0; i < 1000; i++)
        s.activate(0, 0.0);
    EXPECT_EQ(s.counters().heapPushes, pushes);   // no churn
    EXPECT_EQ(s.next(), 0u);                      // still schedulable
    EXPECT_EQ(s.next(), std::nullopt);
}

TEST(Priority, NegativeDeltaIsClampedAndDoesNotChurn)
{
    // Regression: a negative delta used to drive prio below pushedPrio,
    // making the refresh condition true on every call — one heap entry
    // per activation, exactly the churn the throttle exists to stop.
    PriorityScheduler s(2);
    s.activate(0, 4.0);
    const std::uint64_t pushes = s.counters().heapPushes;
    for (int i = 0; i < 1000; i++)
        s.activate(0, -1.0);
    EXPECT_DOUBLE_EQ(s.priority(0), 4.0);   // clamped, never lowered
    EXPECT_EQ(s.counters().heapPushes, pushes);
    s.activate(1, 1.0);
    EXPECT_EQ(s.next(), 0u);   // gradient order preserved
    EXPECT_EQ(s.next(), 1u);
}

TEST(Priority, ChurnThrottleIsLogarithmicInGrowth)
{
    // 1000 unit-delta activations grow the priority to ~1001; entries
    // are refreshed only on >25% growth, so the push count must be
    // O(log_1.25 1001) ~ 31, not O(1000).
    PriorityScheduler s(1);
    s.activate(0, 1.0);
    for (int i = 0; i < 1000; i++)
        s.activate(0, 1.0);
    EXPECT_LT(s.counters().heapPushes, 40u);
    EXPECT_GT(s.counters().refreshes, 0u);
    EXPECT_EQ(s.next(), 0u);
}

TEST(Priority, CountersTrackActivationsAndStaleDiscards)
{
    PriorityScheduler s(2);
    s.activate(0, 1.0);
    s.activate(0, 2.0);   // >25% growth: refresh, old entry goes stale
    EXPECT_EQ(s.counters().activations, 2u);
    EXPECT_EQ(s.counters().heapPushes, 2u);
    EXPECT_EQ(s.next(), 0u);
    EXPECT_EQ(s.next(), std::nullopt);   // pops the stale leftover
    EXPECT_EQ(s.counters().staleDiscards, 1u);
}

// Satellite audit: PriorityScheduler's lazy deletion against a
// reference model, under its (documented) fully-serialized contract.
// The model maps block -> accumulated priority; every pop must return
// an active block of maximal priority, and a full drain must empty the
// model exactly.  Randomized over activation patterns that produce
// duplicate heap keys, refreshes, and stale entries.
TEST(Priority, RandomizedModelAudit)
{
    constexpr BlockId kBlocks = 16;
    Rng rng(0xab5eedULL);
    for (int round = 0; round < 50; round++) {
        PriorityScheduler s(kBlocks);
        std::map<BlockId, double> model;   // active -> priority
        std::vector<double> prio(kBlocks, 0.0);
        for (int op = 0; op < 400; op++) {
            if (rng.nextBounded(3) != 0) {
                const auto b =
                    static_cast<BlockId>(rng.nextBounded(kBlocks));
                // Mix of equal, zero, and growing deltas so duplicate
                // heap keys and throttled refreshes both occur.
                const double d =
                    static_cast<double>(rng.nextBounded(4));
                if (d > 0.0)
                    prio[b] += d;
                model[b] = prio[b];
                s.activate(b, d);
            } else {
                auto got = s.next();
                if (model.empty()) {
                    EXPECT_EQ(got, std::nullopt);
                    continue;
                }
                ASSERT_TRUE(got.has_value());
                ASSERT_TRUE(model.count(*got)) << "popped inactive "
                                               << *got;
                double best = 0.0;
                for (auto &[b, p] : model)
                    best = std::max(best, p);
                // The scheduler refreshes a heap entry only once a
                // block's priority outgrows its pushed key by 25%
                // (churn throttle), so the pop is approximate
                // Gauss-Southwell: the popped block's true priority is
                // within a 1.25x factor of the maximum, never worse.
                EXPECT_GE(model[*got] * 1.25 + 1e-9, best)
                    << "inversion beyond the 25% refresh-throttle "
                    << "bound: popped " << model[*got] << " best "
                    << best;
                model.erase(*got);
                prio[*got] = 0.0;
            }
            ASSERT_EQ(s.activeCount(), model.size());
        }
        while (auto b = s.next()) {
            ASSERT_TRUE(model.count(*b));
            model.erase(*b);
        }
        EXPECT_TRUE(model.empty()) << "drain lost active blocks";
        EXPECT_TRUE(s.empty());
    }
}

TEST(Obim, LevelOfMapsExponentsToLevels)
{
    // Level 0 holds the largest priorities; the seed priority (1e9,
    // exponent 30) must land near the top but below the ceiling so a
    // later astronomically-large delta can still outrank it.
    EXPECT_EQ(ObimScheduler::levelOf(initialActivationPriority()), 1);
    EXPECT_EQ(ObimScheduler::levelOf(4e9), 0);       // >= 2^31 clamps
    EXPECT_EQ(ObimScheduler::levelOf(1.0), 30);      // frexp exp = 1
    EXPECT_EQ(ObimScheduler::levelOf(0.5), 31);
    EXPECT_LT(ObimScheduler::levelOf(1.0), ObimScheduler::levelOf(1e-6));
    EXPECT_EQ(ObimScheduler::levelOf(0.0), 63);      // weakest level
    EXPECT_EQ(ObimScheduler::levelOf(-1.0), 63);
    // Monotone: bigger priority never maps to a weaker (higher) level.
    double prev = 1e300;
    for (double p = 1e300; p > 1e-300; p /= 7.3) {
        EXPECT_LE(ObimScheduler::levelOf(prev), ObimScheduler::levelOf(p));
        prev = p;
    }
}

TEST(Obim, PopsHigherMagnitudeLevelsFirst)
{
    ObimScheduler s(8, 1);
    s.activate(0, 1e-6);
    s.activate(2, 1.0);
    s.activate(1, 100.0);
    // A 4th activation at a fresh level flushes block 1 out of the
    // producer's open chunk, so the first three pops are level-exact.
    s.activate(3, 1e-9);
    EXPECT_EQ(s.next(), 1u);
    EXPECT_EQ(s.next(), 2u);
    EXPECT_EQ(s.next(), 0u);
    EXPECT_EQ(s.next(), 3u);
    EXPECT_EQ(s.next(), std::nullopt);
    EXPECT_TRUE(s.empty());
}

TEST(Obim, FifoWithinOneLevel)
{
    ObimScheduler s(8, 1);
    for (BlockId b = 0; b < 8; b++)
        s.activate(b, 3.0);   // same level for all
    for (BlockId b = 0; b < 8; b++)
        EXPECT_EQ(s.next(), b);
}

TEST(Obim, DoubleActivationIsDeduped)
{
    ObimScheduler s(4, 1);
    s.activate(2, 1.0);
    s.activate(2, 0.0);    // same level: no duplicate entry
    s.activate(2, 0.25);   // 1.25 stays within level [1, 2): deduped
    EXPECT_EQ(s.activeCount(), 1u);
    EXPECT_EQ(s.next(), 2u);
    EXPECT_EQ(s.next(), std::nullopt);
    EXPECT_EQ(s.counters().staleDiscards, 0u);
    EXPECT_EQ(s.counters().heapPushes, 1u);
}

TEST(Obim, UpgradeReordersAndDiscardsStaleEntry)
{
    ObimScheduler s(4, 1);
    s.activate(1, 1.0);
    // Block 1 accumulates enough to jump a level: a duplicate entry is
    // pushed at the better level, the old one goes stale.  (The jump
    // also flushes the worker's open chunk, publishing the stale entry.)
    s.activate(1, 1000.0);
    s.activate(0, 1.0);
    EXPECT_EQ(s.activeCount(), 2u);
    EXPECT_EQ(s.next(), 1u);   // upgraded entry wins over block 0
    EXPECT_EQ(s.next(), 0u);
    EXPECT_EQ(s.next(), std::nullopt);   // consumes the stale leftover
    EXPECT_EQ(s.counters().staleDiscards, 1u);
    EXPECT_GT(s.counters().refreshes, 0u);
}

TEST(Obim, ProcessingResetsPriority)
{
    ObimScheduler s(2, 1);
    s.activate(0, 64.0);
    EXPECT_EQ(s.next(), 0u);
    EXPECT_DOUBLE_EQ(s.priority(0), 0.0);   // consumed, not lingering
    s.activate(1, 32.0);
    s.activate(0, 1.0);
    EXPECT_EQ(s.next(), 1u);
    EXPECT_EQ(s.next(), 0u);
    EXPECT_DOUBLE_EQ(s.priority(0), 0.0);
}

TEST(Obim, DrainsOpenSlotChunksOnEmptyLevels)
{
    // More blocks than kChunkSize at one level: some sit in published
    // chunks, the remainder in the pushing thread's open slot chunk.
    // next() must find the ones still parked in the slot.
    constexpr BlockId kBlocks = 100;
    ObimScheduler s(kBlocks, 4);
    for (BlockId b = 0; b < kBlocks; b++)
        s.activate(b, 2.0);
    std::set<BlockId> seen;
    while (auto b = s.next())
        seen.insert(*b);
    EXPECT_EQ(seen.size(), kBlocks);
    EXPECT_TRUE(s.empty());
}

TEST(Obim, ConcurrentPushesAreNeitherLostNorDuplicated)
{
    // 4 producers activate disjoint block ranges while one consumer
    // drains; every block must be returned exactly once.  (activate()
    // is thread-safe; next() stays single-consumer per the contract.)
    constexpr BlockId kPerProducer = 512;
    constexpr int kProducers = 4;
    constexpr BlockId kBlocks = kPerProducer * kProducers;
    ObimScheduler s(kBlocks, kProducers);
    std::atomic<int> running{kProducers};
    std::vector<std::thread> producers;
    for (int t = 0; t < kProducers; t++) {
        producers.emplace_back([&, t] {
            Rng rng(1000 + static_cast<std::uint64_t>(t));
            for (BlockId i = 0; i < kPerProducer; i++) {
                const auto b = static_cast<BlockId>(t * kPerProducer + i);
                s.activate(b, rng.nextDouble() * 1e4 + 1e-7);
            }
            running.fetch_sub(1);
        });
    }
    std::vector<BlockId> popped;
    for (;;) {
        if (auto b = s.next()) {
            popped.push_back(*b);
            continue;
        }
        // Empty while producers are mid-flight is allowed (documented
        // missed-push window); only quiescent empty is final.
        if (running.load() == 0)
            break;
        std::this_thread::yield();
    }
    for (auto &p : producers)
        p.join();
    while (auto b = s.next())   // anything pushed after the last check
        popped.push_back(*b);
    EXPECT_TRUE(s.empty());
    std::sort(popped.begin(), popped.end());
    ASSERT_EQ(popped.size(), kBlocks);
    for (BlockId b = 0; b < kBlocks; b++)
        EXPECT_EQ(popped[b], b);
    EXPECT_EQ(s.counters().activations, kBlocks);
}

TEST(Factory, BuildsTheRequestedKind)
{
    EXPECT_EQ(makeScheduler(Schedule::Cyclic, 4)->kind(),
              Schedule::Cyclic);
    EXPECT_EQ(makeScheduler(Schedule::Priority, 4)->kind(),
              Schedule::Priority);
    auto obim = makeScheduler(Schedule::Obim, 4, /*num_workers=*/2);
    EXPECT_EQ(obim->kind(), Schedule::Obim);
    EXPECT_TRUE(obim->concurrentPush());
    EXPECT_FALSE(makeScheduler(Schedule::Priority, 4)->concurrentPush());
}

TEST(Factory, NamesRoundTrip)
{
    EXPECT_STREQ(to_string(Schedule::Cyclic), "cyclic");
    EXPECT_STREQ(to_string(Schedule::Priority), "priority");
    EXPECT_STREQ(to_string(Schedule::Obim), "obim");
    EXPECT_STREQ(to_string(ExecMode::Async), "async");
    EXPECT_STREQ(to_string(ExecMode::Bsp), "bsp");
}

TEST(Factory, ParseScheduleRoundTripsAndRejectsUnknownNames)
{
    for (Schedule s : {Schedule::Cyclic, Schedule::Priority, Schedule::Obim})
        EXPECT_EQ(parseSchedule(to_string(s)), s);
    for (const char *bad : {"", "prio", "bogus", "random", "Cyclic"})
        EXPECT_FALSE(parseSchedule(bad).has_value()) << bad;
}

} // namespace
} // namespace graphabcd
