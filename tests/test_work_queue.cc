/**
 * @file
 * Unit tests for the work-queue library and its cost model.
 */

#include <gtest/gtest.h>

#include "queueing/remote_queue.hh"
#include "queueing/work_queue.hh"

using namespace vp;

TEST(WorkQueue, FifoOrder)
{
    WorkQueue<int> q("q");
    q.push(1);
    q.push(2);
    q.push(3);
    int v = 0;
    EXPECT_TRUE(q.pop(v));
    EXPECT_EQ(v, 1);
    EXPECT_TRUE(q.pop(v));
    EXPECT_EQ(v, 2);
    EXPECT_EQ(q.size(), 1u);
}

TEST(WorkQueue, PopOnEmptyReturnsFalse)
{
    WorkQueue<int> q("q");
    int v = 0;
    EXPECT_FALSE(q.pop(v));
}

TEST(WorkQueue, PopBatchTakesUpToMax)
{
    WorkQueue<int> q("q");
    for (int i = 0; i < 10; ++i)
        q.push(i);
    std::vector<int> out;
    EXPECT_EQ(q.popBatch(out, 4), 4u);
    EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3}));
    EXPECT_EQ(q.size(), 6u);
    out.clear();
    EXPECT_EQ(q.popBatch(out, 100), 6u);
    EXPECT_TRUE(q.empty());
}

TEST(WorkQueue, PopBatchCountsEveryPopInStats)
{
    WorkQueue<int> q("q");
    for (int i = 0; i < 10; ++i)
        q.push(i);
    std::vector<int> out;
    q.popBatch(out, 7);
    EXPECT_EQ(q.stats().pops, 7u);
    q.popBatch(out, 100);
    EXPECT_EQ(q.stats().pops, 10u);
    EXPECT_EQ(out.size(), 10u); // appended, not overwritten
    q.popBatch(out, 5); // empty queue: no stats movement
    EXPECT_EQ(q.stats().pops, 10u);
}

TEST(WorkQueue, ItemBytesMatchesPayload)
{
    struct Item { double a; int b; int c; };
    WorkQueue<Item> q("q");
    EXPECT_EQ(q.itemBytes(), static_cast<int>(sizeof(Item)));
}

TEST(WorkQueue, TypedDowncastChecksType)
{
    WorkQueue<int> q("q");
    QueueBase& base = q;
    EXPECT_NO_THROW(typedQueue<int>(base));
    EXPECT_THROW(typedQueue<double>(base), PanicError);
}

TEST(WorkQueue, StatsTrackDepthAndCounts)
{
    WorkQueue<int> q("q");
    q.push(1);
    q.push(2);
    int v;
    q.pop(v);
    q.push(3);
    q.push(4);
    EXPECT_EQ(q.stats().pushes, 4u);
    EXPECT_EQ(q.stats().pops, 1u);
    EXPECT_EQ(q.stats().maxDepth, 3u);
}

TEST(WorkQueue, ClearEmptiesQueue)
{
    WorkQueue<int> q("q");
    q.push(1);
    q.clear();
    EXPECT_TRUE(q.empty());
}

TEST(WorkQueue, AccessCostGrowsWithItemSize)
{
    auto cfg = DeviceConfig::k20c();
    struct Big { char data[272]; };  // Reyes-sized item (Table 2)
    struct Small { int v; };         // Raster-sized item
    WorkQueue<Big> big("big");
    WorkQueue<Small> small("small");
    Tick cb = big.accessCost(cfg, 0.0, 1);
    Tick cs = small.accessCost(cfg, 0.0, 1);
    EXPECT_GT(cb, cs);
}

TEST(WorkQueue, ContentionSurchargeWithinWindow)
{
    auto cfg = DeviceConfig::k20c();
    WorkQueue<int> q("q");
    Tick first = q.accessCost(cfg, 1000.0, 1);
    Tick second = q.accessCost(cfg, 1000.0, 1);
    Tick third = q.accessCost(cfg, 1001.0, 1);
    EXPECT_GT(second, first);
    EXPECT_GT(third, second);
}

TEST(WorkQueue, ContentionDecaysOutsideWindow)
{
    auto cfg = DeviceConfig::k20c();
    WorkQueue<int> q("q");
    q.accessCost(cfg, 0.0, 1);
    q.accessCost(cfg, 1.0, 1);
    // Far in the future the old accesses no longer contend.
    Tick later = q.accessCost(cfg, 100000.0, 1);
    WorkQueue<int> fresh("fresh");
    EXPECT_DOUBLE_EQ(later, fresh.accessCost(cfg, 0.0, 1));
}

TEST(WorkQueue, ContentionCyclesRecordedInStats)
{
    auto cfg = DeviceConfig::k20c();
    WorkQueue<int> q("q");
    q.accessCost(cfg, 0.0, 1);
    q.accessCost(cfg, 0.0, 1);
    EXPECT_GT(q.stats().contentionCycles, 0.0);
}

TEST(WorkQueue, ResetStatsClearsContentionWindow)
{
    // Regression: resetStats() used to leave the recent-access ring
    // populated, so a queue reused across runs charged phantom
    // contention from the previous run's accesses.
    auto cfg = DeviceConfig::k20c();
    WorkQueue<int> used("used");
    used.accessCost(cfg, 0.0, 1);
    used.accessCost(cfg, 0.0, 1);
    used.accessCost(cfg, 1.0, 1);
    used.resetStats();
    WorkQueue<int> fresh("fresh");
    EXPECT_DOUBLE_EQ(used.accessCost(cfg, 1.0, 1),
                     fresh.accessCost(cfg, 1.0, 1));
    EXPECT_DOUBLE_EQ(used.stats().contentionCycles,
                     fresh.stats().contentionCycles);
}

TEST(WorkQueue, RunResetRunMatchesTwoFreshRuns)
{
    auto cfg = DeviceConfig::k20c();
    auto runPattern = [&cfg](QueueBase& q) {
        Tick total = 0.0;
        for (int i = 0; i < 8; ++i)
            total += q.accessCost(cfg, 0.5 * i, 2);
        return total;
    };
    WorkQueue<int> reused("q");
    Tick first = runPattern(reused);
    reused.resetStats();
    Tick second = runPattern(reused);
    EXPECT_DOUBLE_EQ(second, first);
}

TEST(WorkQueue, ResetStatsRebaselinesDepthEwma)
{
    // A run-boundary reset re-baselines the EWMA to the live depth:
    // a queue still holding items must not claim an empty history,
    // and an emptied queue starts the next run from zero.
    WorkQueue<int> q("q");
    q.enableDepthEwma(0.5);
    q.push(1);
    q.push(2);
    EXPECT_GT(q.depthEwma(), 0.0);
    q.resetStats();
    EXPECT_DOUBLE_EQ(q.depthEwma(), 2.0);
    int out = 0;
    q.pop(out);
    q.pop(out);
    q.resetStats();
    EXPECT_DOUBLE_EQ(q.depthEwma(), 0.0);
}

TEST(WorkQueue, MoveOnlyPayloadsSupported)
{
    WorkQueue<std::unique_ptr<int>> q("q");
    q.push(std::make_unique<int>(5));
    std::unique_ptr<int> out;
    EXPECT_TRUE(q.pop(out));
    EXPECT_EQ(*out, 5);
}

TEST(WorkQueue, OccupancyFollowsEveryEmptyTransition)
{
    // Two queues share one stage count, as distributed shards do:
    // after every operation the count is the number of non-empty
    // queues and the stage's bit is set exactly while it is > 0.
    std::int32_t count = 0;
    std::uint32_t mask = 0;
    WorkQueue<int> a("a");
    WorkQueue<int> b("b");
    a.trackOccupancy(&count, &mask, 3);
    b.trackOccupancy(&count, &mask, 3);
    auto check = [&](const char* step) {
        SCOPED_TRACE(step);
        std::int32_t nonEmpty = (a.empty() ? 0 : 1) + (b.empty() ? 0 : 1);
        EXPECT_EQ(count, nonEmpty);
        EXPECT_EQ(mask, nonEmpty > 0 ? 1u << 3 : 0u);
    };
    check("attached");
    a.push(1);
    check("push into empty");
    a.push(2);
    check("push into non-empty");
    b.push(3);
    check("second queue");
    int v = 0;
    a.pop(v);
    check("pop leaving one");
    a.pop(v);
    check("pop to empty");
    EXPECT_FALSE(a.pop(v));
    check("pop on empty");
    std::vector<int> out;
    EXPECT_EQ(b.popBatch(out, 0), 0u);
    check("popBatch n = 0 on non-empty");
    EXPECT_EQ(a.popBatch(out, 4), 0u);
    check("popBatch n = 0 on empty");
    b.push(4);
    EXPECT_EQ(b.popBatch(out, 1), 1u);
    check("popBatch leaving one");
    EXPECT_EQ(b.popBatch(out, 8), 1u);
    check("popBatch to empty");
    a.clear();
    check("clear empty");
    a.push(5);
    a.push(6);
    a.clear();
    check("clear non-empty");
    a.push(7);
    a.push(8);
    EXPECT_EQ(a.drainInto(b), 2u);
    check("drainInto");
    EXPECT_EQ(count, 1);
}

TEST(WorkQueue, RemoteStubCountsOnlyAfterTakeover)
{
    // A stub forwards every push until takeOverLocal(): it never
    // buffers, so it never reports occupancy. Afterwards it is an
    // ordinary local queue.
    std::int32_t count = 0;
    std::uint32_t mask = 0;
    int forwarded = 0;
    RemoteStubQueue<int> stub(
        "stub", [&forwarded](int, std::uint64_t,
                             std::function<void(QueueBase&)>) {
            ++forwarded;
        });
    stub.trackOccupancy(&count, &mask, 0);
    stub.push(1);
    EXPECT_EQ(forwarded, 1);
    EXPECT_TRUE(stub.empty());
    EXPECT_EQ(count, 0);
    EXPECT_EQ(mask, 0u);
    stub.takeOverLocal();
    stub.push(2);
    EXPECT_EQ(forwarded, 1);
    EXPECT_FALSE(stub.empty());
    EXPECT_EQ(count, 1);
    EXPECT_EQ(mask, 1u);
    int v = 0;
    EXPECT_TRUE(stub.pop(v));
    EXPECT_EQ(count, 0);
    EXPECT_EQ(mask, 0u);
}

TEST(WorkQueue, OccupancyRejectsNonEmptyAttachAndNegativeCounts)
{
    std::int32_t count = 0;
    std::uint32_t mask = 0;
    WorkQueue<int> full("full");
    full.push(1);
    // A non-empty queue's occupancy was never counted.
    EXPECT_THROW(full.trackOccupancy(&count, &mask, 0), PanicError);

    WorkQueue<int> q("q");
    q.trackOccupancy(&count, &mask, 0);
    q.push(1);
    count = 0; // lose the transition the push reported
    int v = 0;
    EXPECT_THROW(q.pop(v), PanicError);
}
