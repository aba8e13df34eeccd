/**
 * @file
 * Unit tests for the discrete-event kernel.
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "sim/clock.hh"
#include "sim/event_queue.hh"

using namespace pmemspec;
using sim::Clock;
using sim::EventQueue;

TEST(EventQueue, StartsAtTickZero)
{
    EventQueue eq;
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.pending(), 0u);
}

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, EqualTicksRunInInsertionOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 16; ++i)
        eq.schedule(5, [&, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, ScheduleInIsRelative)
{
    EventQueue eq;
    Tick seen = 0;
    eq.schedule(100, [&] {
        eq.schedule(After{50}, [&] { seen = eq.now(); });
    });
    eq.run();
    EXPECT_EQ(seen, 150u);
}

TEST(EventQueue, EventsMayScheduleMoreEvents)
{
    EventQueue eq;
    int depth = 0;
    std::function<void()> chain = [&] {
        if (++depth < 10)
            eq.schedule(After{1}, chain);
    };
    eq.schedule(After{1}, chain);
    eq.run();
    EXPECT_EQ(depth, 10);
    EXPECT_EQ(eq.now(), 10u);
}

TEST(EventQueue, StepReturnsFalseWhenEmpty)
{
    EventQueue eq;
    EXPECT_FALSE(eq.step());
    eq.schedule(1, [] {});
    EXPECT_TRUE(eq.step());
    EXPECT_FALSE(eq.step());
}

TEST(EventQueue, RunUntilStopsAtBoundaryInclusive)
{
    EventQueue eq;
    int ran = 0;
    eq.schedule(10, [&] { ++ran; });
    eq.schedule(20, [&] { ++ran; });
    eq.schedule(21, [&] { ++ran; });
    eq.runUntil(20);
    EXPECT_EQ(ran, 2);
    EXPECT_EQ(eq.now(), 20u);
    eq.run();
    EXPECT_EQ(ran, 3);
}

TEST(EventQueue, RunUntilAdvancesTimeWithoutEvents)
{
    EventQueue eq;
    eq.runUntil(500);
    EXPECT_EQ(eq.now(), 500u);
}

TEST(EventQueue, BudgetedRunStopsEarly)
{
    EventQueue eq;
    for (int i = 0; i < 100; ++i)
        eq.schedule(static_cast<Tick>(i), [] {});
    EXPECT_FALSE(eq.run(50));
    EXPECT_EQ(eq.executed(), 50u);
    EXPECT_TRUE(eq.run(1000));
}

TEST(EventQueue, SchedulingInThePastPanics)
{
    EventQueue eq;
    eq.schedule(100, [] {});
    eq.run();
    EXPECT_DEATH(eq.schedule(50, [] {}), "past");
}

TEST(EventQueue, ExecutedCounts)
{
    EventQueue eq;
    for (int i = 0; i < 7; ++i)
        eq.schedule(After{static_cast<Tick>(i)}, [] {});
    eq.run();
    EXPECT_EQ(eq.executed(), 7u);
}

TEST(EventQueue, SameTickFifoAcrossCalendarDays)
{
    // FIFO must hold for equal ticks regardless of which bucket (or
    // the far heap) the events land in at insertion time.
    EventQueue eq;
    std::vector<int> order;
    const Tick far_tick = 5'000'000; // beyond the ring horizon
    for (int i = 0; i < 8; ++i)
        eq.schedule(far_tick, [&, i] { order.push_back(i); });
    eq.schedule(1, [&] { order.push_back(100); });
    for (int i = 8; i < 16; ++i)
        eq.schedule(far_tick, [&, i] { order.push_back(i); });
    eq.run();
    ASSERT_EQ(order.size(), 17u);
    EXPECT_EQ(order[0], 100);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i) + 1], i);
}

TEST(EventQueue, FarFutureEventsMigrateInOrder)
{
    EventQueue eq;
    std::vector<Tick> at;
    // Spread events far beyond one ring span, in reverse order.
    for (int i = 9; i >= 0; --i)
        eq.schedule(static_cast<Tick>(i) * 3'000'000,
                    [&] { at.push_back(eq.now()); });
    eq.run();
    ASSERT_EQ(at.size(), 10u);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(at[static_cast<std::size_t>(i)],
                  static_cast<Tick>(i) * 3'000'000);
}

TEST(EventQueue, EmptyQueueFarThenNearKeepsTimeOrder)
{
    // Scheduling far-then-near into an empty queue must not move the
    // ring window past now: the far event would then alias an earlier
    // bucket and run before events dated ahead of it.
    EventQueue eq;
    std::vector<Tick> at;
    auto record = [&] { at.push_back(eq.now()); };
    eq.schedule(1'280'000, record);
    eq.schedule(10, [&] {
        record();
        eq.schedule(512'000, record);
    });
    eq.run();
    EXPECT_EQ(at, (std::vector<Tick>{10, 512'000, 1'280'000}));
}

TEST(EventQueue, RandomSchedulesMatchSortedReference)
{
    // Same-tick, in-ring, past-horizon and far-future delays, scheduled
    // from outside and from callbacks (the population often dies out,
    // so callbacks also schedule into an empty queue), stepped with
    // runUntil. Every event must run at its tick and be the minimum
    // of a sorted (when, seq) reference when it does.
    constexpr Tick kRingSpan = Tick{4096} << 8; // kBuckets days
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        SCOPED_TRACE(seed);
        EventQueue eq;
        Rng rng(seed);
        std::set<std::pair<Tick, std::uint64_t>> reference;
        std::uint64_t next_id = 0;
        std::uint64_t child_budget = 3000;
        std::uint64_t misordered = 0;
        std::function<void()> add = [&] {
            Tick delay = 0;
            switch (rng.below(4)) {
              case 0: // same tick
                break;
              case 1:
                delay = rng.below(kRingSpan);
                break;
              case 2:
                delay = kRingSpan + rng.below(kRingSpan);
                break;
              default:
                delay = rng.below(64 * kRingSpan);
                break;
            }
            const std::pair<Tick, std::uint64_t> key{eq.now() + delay,
                                                     next_id++};
            reference.insert(key);
            eq.schedule(key.first, [&, key] {
                if (eq.now() != key.first || *reference.begin() != key)
                    ++misordered;
                reference.erase(key);
                for (auto kids = rng.below(3); kids > 0 && child_budget > 0;
                     --kids, --child_budget)
                    add();
            });
        };
        for (int round = 0; round < 200; ++round) {
            for (auto roots = rng.below(3); roots > 0; --roots)
                add();
            eq.runUntil(eq.now() + rng.below(4 * kRingSpan));
            EXPECT_TRUE(reference.empty() ||
                        reference.begin()->first > eq.now());
        }
        eq.run();
        EXPECT_TRUE(reference.empty());
        EXPECT_EQ(misordered, 0u);
        EXPECT_EQ(eq.executed(), next_id);
    }
}

TEST(EventQueue, ArenaChurnReusesSlots)
{
    // Heavy schedule/fire churn across many arena chunks, with
    // callbacks scheduling into the slots just freed; the sanitizer
    // job turns any use-after-free in slot recycling fatal.
    EventQueue eq;
    std::uint64_t ran = 0;
    for (int round = 0; round < 50; ++round) {
        for (int i = 0; i < 600; ++i) {
            eq.schedule(After{static_cast<Tick>(i % 7)}, [&, i] {
                ++ran;
                if (i % 3 == 0)
                    eq.schedule(After{1}, [&] { ++ran; });
            });
        }
        eq.run();
    }
    EXPECT_EQ(ran, 50u * 800u);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, LargeCallablesAreBoxedAndDestroyed)
{
    EventQueue eq;
    struct Big
    {
        std::shared_ptr<int> token;
        // Force the heap-boxed path whatever the inline size is.
        unsigned char pad[EventQueue::kInlineBytes];
    };
    static_assert(sizeof(Big) > EventQueue::kInlineBytes);
    static_assert(!EventQueue::storesInline<Big>);
    auto token = std::make_shared<int>(7);
    int got = 0;
    eq.schedule(1, [big = Big{token, {}}, &got] { got = *big.token; });
    eq.schedule(2, [big = Big{token, {}}] { (void)big; });
    EXPECT_EQ(token.use_count(), 3);
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(got, 7);
    EXPECT_EQ(token.use_count(), 2); // destroyed once it has run
    eq.run();
    EXPECT_EQ(token.use_count(), 1);
}

TEST(EventQueue, PendingCountTracksRingAndFarEvents)
{
    EventQueue eq;
    eq.schedule(10, [] {});
    eq.schedule(7'000'000, [] {}); // far heap
    eq.schedule(20, [] {});
    EXPECT_EQ(eq.pending(), 3u);
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(eq.pending(), 2u);
    eq.runUntil(20);
    EXPECT_EQ(eq.pending(), 1u);
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(eq.now(), 7'000'000u);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.executed(), 3u);
}

TEST(EventQueue, PendingCallablesDestroyedWithQueue)
{
    auto token = std::make_shared<int>(1);
    {
        EventQueue eq;
        eq.schedule(50, [token] { (void)token; });
        eq.schedule(8'000'000, [token] { (void)token; });
        EXPECT_EQ(token.use_count(), 3);
    }
    EXPECT_EQ(token.use_count(), 1);
}

TEST(Clock, DefaultIsTwoGigahertz)
{
    Clock c;
    EXPECT_EQ(c.period(), 500u); // 500 ps
    EXPECT_DOUBLE_EQ(c.freqGhz(), 2.0);
}

TEST(Clock, CycleConversionsRoundTrip)
{
    Clock c(2.0);
    EXPECT_EQ(c.cyclesToTicks(4), 2000u);
    EXPECT_EQ(c.ticksToCycles(2000), 4u);
    // Rounding up.
    EXPECT_EQ(c.ticksToCycles(2001), 5u);
}

TEST(Clock, OneGigahertz)
{
    Clock c(1.0);
    EXPECT_EQ(c.period(), 1000u);
    EXPECT_EQ(c.cyclesToTicks(3), 3000u);
}
