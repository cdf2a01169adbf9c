/**
 * @file
 * StatsRegistry/StatsSnapshot tests: counter/timer recording,
 * additive registry merging, toJson() output read back exactly
 * through JsonValue, and thread-count independence when per-worker
 * registries are merged across a ThreadPool.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "support/json.hh"
#include "support/stats_registry.hh"
#include "support/thread_pool.hh"

namespace predilp
{
namespace
{

TEST(StatsRegistry, CountersAndTimersAccumulate)
{
    StatsRegistry registry;
    Counter &c = registry.counter("scope.count");
    c.add(3);
    c.add(4);
    registry.timer("scope.time").addNanos(1'500'000'000ull);

    StatsSnapshot snap = registry.snapshot();
    EXPECT_EQ(snap.counter("scope.count"), 7u);
    EXPECT_DOUBLE_EQ(snap.seconds("scope.time"), 1.5);
}

TEST(StatsRegistry, MergeIsAdditiveAcrossAllKinds)
{
    StatsRegistry a;
    a.counter("n").add(1);
    a.timer("t").addNanos(100);

    StatsRegistry b;
    b.counter("n").add(2);
    b.counter("only_b").add(9);
    b.timer("t").addNanos(300);

    a.merge(b);
    StatsSnapshot snap = a.snapshot();
    EXPECT_EQ(snap.counter("n"), 3u);
    EXPECT_EQ(snap.counter("only_b"), 9u);
    EXPECT_DOUBLE_EQ(snap.seconds("t"), 400e-9);
}

TEST(StatsRegistry, ScopedTimerRecordsElapsedTime)
{
    StatsRegistry registry;
    {
        ScopedTimer timer(registry.timer("sleep"));
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    // sleep_for guarantees at least the requested duration.
    EXPECT_GE(registry.snapshot().seconds("sleep"), 0.002);
}

TEST(StatsSnapshot, JsonRoundTripPreservesEverything)
{
    StatsSnapshot snap;
    snap.setCounter("a.b.count", 42);
    snap.setCounter("a.b.deep.leaf", 0);
    snap.setCounter("top", 7);
    snap.setSeconds("a.b.seconds", 0.125);
    snap.setSeconds("whole", 2.0); // integral double stays a timer.
    snap.setSeconds("tiny", 3.3e-9);

    // JsonValue keeps number classes: counters read back as Int and
    // timers, integral ones included, as bit-exact Doubles.
    JsonValue parsed = JsonValue::parse(snap.toJson());
    const JsonValue &b = parsed.at("a").at("b");
    EXPECT_EQ(b.at("count").kind(), JsonValue::Kind::Int);
    EXPECT_EQ(b.at("count").asInt(), 42);
    EXPECT_EQ(b.at("deep").at("leaf").asInt(), 0);
    EXPECT_EQ(parsed.at("top").asInt(), 7);
    EXPECT_EQ(b.at("seconds").asDouble(), 0.125);
    EXPECT_EQ(parsed.at("whole").kind(), JsonValue::Kind::Double);
    EXPECT_EQ(parsed.at("whole").asDouble(), 2.0);
    EXPECT_EQ(parsed.at("tiny").asDouble(), 3.3e-9);
}

TEST(StatsSnapshot, ToJsonNestsDottedScopes)
{
    StatsSnapshot snap;
    snap.setCounter("sim.btb.hits", 5);
    snap.setCounter("sim.btb.misses", 1);
    snap.setCounter("sim.cycles", 100);
    EXPECT_EQ(snap.toJson(), "{\n"
                             "  \"sim\": {\n"
                             "    \"btb\": {\n"
                             "      \"hits\": 5,\n"
                             "      \"misses\": 1\n"
                             "    },\n"
                             "    \"cycles\": 100\n"
                             "  }\n"
                             "}");
}

TEST(StatsSnapshot, EmptySnapshotIsEmptyObject)
{
    StatsSnapshot snap;
    EXPECT_TRUE(snap.empty());
    EXPECT_EQ(snap.toJson(), "{}");
}

TEST(StatsSnapshot, SnapshotMergeSumsLeaves)
{
    StatsSnapshot a;
    a.setCounter("n", 1);
    a.setSeconds("t", 0.5);
    StatsSnapshot b;
    b.setCounter("n", 2);
    b.setCounter("m", 10);
    b.setSeconds("t", 0.25);
    a.merge(b);
    EXPECT_EQ(a.counter("n"), 3u);
    EXPECT_EQ(a.counter("m"), 10u);
    EXPECT_DOUBLE_EQ(a.seconds("t"), 0.75);
}

/**
 * The evaluator's aggregation pattern: every task records into a
 * private registry, then merges it into a shared aggregate. All
 * recorded values are deterministic (addNanos instead of wall
 * clocks), so the aggregate snapshot must be identical for every
 * thread count.
 */
StatsSnapshot
aggregateOverPool(int threads, std::size_t tasks)
{
    ThreadPool pool(threads);
    StatsRegistry aggregate;
    pool.parallelFor(tasks, [&](std::size_t i) {
        StatsRegistry local;
        local.counter("work.items").add(i);
        local.counter("work.tasks").add(1);
        local.timer("work.nanos").addNanos(10 * i);
        aggregate.merge(local);
    });
    return aggregate.snapshot();
}

TEST(StatsRegistry, PoolMergeIsThreadCountIndependent)
{
    const std::size_t tasks = 64;
    StatsSnapshot serial = aggregateOverPool(1, tasks);

    // Hand-computed totals: sum 0..63 = 2016.
    EXPECT_EQ(serial.counter("work.items"), 2016u);
    EXPECT_EQ(serial.counter("work.tasks"), tasks);
    EXPECT_DOUBLE_EQ(serial.seconds("work.nanos"), 20160e-9);

    for (int threads : {2, 4, 8}) {
        StatsSnapshot parallel = aggregateOverPool(threads, tasks);
        EXPECT_TRUE(parallel == serial)
            << "aggregate diverged at threads=" << threads;
    }
}

} // namespace
} // namespace predilp
