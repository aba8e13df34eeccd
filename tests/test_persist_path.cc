/**
 * @file
 * Unit tests for the decoupled persist-path (Section 4.2): FIFO
 * delivery in commit order, path latency, PMC backpressure, and the
 * spec-barrier drain notification.
 */

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "mem/persist_path.hh"
#include "sim/event_queue.hh"

using namespace pmemspec;
using mem::PersistPath;
using sim::EventQueue;

namespace
{

struct Delivery
{
    Addr addr;
    std::optional<SpecId> specId;
    Tick at;
};

/** A fake PMC: while `accept` is false it refuses and keeps the
 *  path's resume parked until release(). */
struct Harness
{
    EventQueue eq;
    StatGroup stats{"test"};
    std::vector<Delivery> delivered;
    bool accept = true;
    std::vector<mem::PmController::Resume> parked;
    PersistPath path;

    explicit Harness(Tick latency = nsToTicks(20), unsigned cap = 4)
        : path(eq, &stats, 0, latency, cap,
               [this](CoreId, Addr a, std::optional<SpecId> s,
                      mem::PmController::Resume resume) {
                   if (!accept) {
                       parked.push_back(std::move(resume));
                       return false;
                   }
                   delivered.push_back(Delivery{a, s, eq.now()});
                   return true;
               })
    {
    }

    /** Start accepting and resume every parked agent, oldest first. */
    void
    release()
    {
        accept = true;
        auto batch = std::move(parked);
        parked.clear();
        for (auto &r : batch)
            r();
    }
};

} // namespace

TEST(PersistPath, DeliversAfterPathLatency)
{
    Harness h;
    h.path.send(0x1000, std::nullopt);
    h.eq.run();
    ASSERT_EQ(h.delivered.size(), 1u);
    EXPECT_EQ(h.delivered[0].addr, 0x1000u);
    EXPECT_EQ(h.delivered[0].at, nsToTicks(20));
}

TEST(PersistPath, PreservesCommitOrder)
{
    Harness h;
    h.path.send(0x1000, std::nullopt);
    h.path.send(0x2000, std::nullopt);
    h.path.send(0x3000, std::nullopt);
    h.eq.run();
    ASSERT_EQ(h.delivered.size(), 3u);
    EXPECT_EQ(h.delivered[0].addr, 0x1000u);
    EXPECT_EQ(h.delivered[1].addr, 0x2000u);
    EXPECT_EQ(h.delivered[2].addr, 0x3000u);
    EXPECT_LE(h.delivered[0].at, h.delivered[1].at);
    EXPECT_LE(h.delivered[1].at, h.delivered[2].at);
}

TEST(PersistPath, CarriesSpeculationIds)
{
    Harness h;
    h.path.send(0x1000, SpecId{7});
    h.path.send(0x2000, std::nullopt);
    h.eq.run();
    ASSERT_EQ(h.delivered.size(), 2u);
    EXPECT_EQ(h.delivered[0].specId, SpecId{7});
    EXPECT_FALSE(h.delivered[1].specId.has_value());
}

TEST(PersistPath, FlitRateSpacesBackToBackSends)
{
    Harness h;
    // Sent in the same tick, they arrive one flit-cycle apart.
    h.path.send(0x1000, std::nullopt);
    h.path.send(0x2000, std::nullopt);
    h.eq.run();
    EXPECT_EQ(h.delivered[0].at, nsToTicks(20));
    EXPECT_EQ(h.delivered[1].at, nsToTicks(21));
}

TEST(PersistPath, FullAppliesBackpressure)
{
    Harness h(nsToTicks(20), 2);
    h.path.send(0x1000, std::nullopt);
    h.path.send(0x2000, std::nullopt);
    EXPECT_TRUE(h.path.full());
    bool spaced = false;
    h.path.notifyWhenNotFull([&] { spaced = true; });
    EXPECT_FALSE(spaced);
    h.eq.run();
    EXPECT_TRUE(spaced);
    EXPECT_FALSE(h.path.full());
}

TEST(PersistPath, SendWhileFullPanics)
{
    Harness h(nsToTicks(20), 1);
    h.path.send(0x1000, std::nullopt);
    EXPECT_DEATH(h.path.send(0x2000, std::nullopt), "overflow");
}

TEST(PersistPath, RetriesOnPmcBackpressure)
{
    Harness h;
    h.accept = false;
    h.path.send(0x1000, std::nullopt);
    h.eq.runUntil(nsToTicks(100));
    EXPECT_TRUE(h.delivered.empty());
    // Refused once and parked once; nothing polls the PMC meanwhile.
    EXPECT_EQ(h.path.pathRetries.value(), 1u);
    EXPECT_EQ(h.parked.size(), 1u);
    EXPECT_TRUE(h.eq.empty());
    h.release();
    h.eq.run();
    ASSERT_EQ(h.delivered.size(), 1u);
    EXPECT_EQ(h.delivered[0].at, nsToTicks(100)); // at the resume
    EXPECT_EQ(h.path.deliveries.value(), 1u);
}

TEST(PersistPath, OrderSurvivesBackpressure)
{
    Harness h;
    h.accept = false;
    h.path.send(0x1000, std::nullopt);
    h.path.send(0x2000, std::nullopt);
    h.eq.runUntil(nsToTicks(200));
    EXPECT_EQ(h.parked.size(), 1u); // only the head parks
    h.release();
    h.eq.run();
    ASSERT_EQ(h.delivered.size(), 2u);
    EXPECT_EQ(h.delivered[0].addr, 0x1000u);
    EXPECT_EQ(h.delivered[1].addr, 0x2000u);
    EXPECT_EQ(h.path.pathRetries.value(), 1u);
}

TEST(PersistPath, SendWhileParkedJoinsTheParkedChain)
{
    Harness h;
    h.accept = false;
    h.path.send(0x1000, std::nullopt);
    h.eq.runUntil(nsToTicks(100));
    ASSERT_EQ(h.parked.size(), 1u);
    // The head is parked at the PMC: a new send must not start a
    // second delivery chain.
    h.path.send(0x2000, std::nullopt);
    EXPECT_TRUE(h.eq.empty());
    h.release();
    h.eq.run();
    ASSERT_EQ(h.delivered.size(), 2u);
    EXPECT_EQ(h.delivered[0].addr, 0x1000u);
    EXPECT_EQ(h.delivered[1].addr, 0x2000u);
    EXPECT_EQ(h.path.pathRetries.value(), 1u);
}

TEST(PersistPath, StoreWokenByDeliveryKeepsOnePumpChain)
{
    // A store parked on a full path sends from inside the delivery
    // that freed its slot. It must join the running pump chain: one
    // pump event per flit, not a second chain.
    Harness h(nsToTicks(20), 1);
    h.path.send(0x1000, std::nullopt);
    h.path.notifyWhenNotFull([&] { h.path.send(0x2000, std::nullopt); });
    h.eq.run();
    ASSERT_EQ(h.delivered.size(), 2u);
    EXPECT_EQ(h.delivered[1].at, nsToTicks(40));
    EXPECT_EQ(h.eq.executed(), 2u);
}

TEST(PersistPath, NotifyWhenEmptyFiresImmediatelyIfIdle)
{
    Harness h;
    bool fired = false;
    h.path.notifyWhenEmpty([&] { fired = true; });
    EXPECT_TRUE(fired);
}

TEST(PersistPath, NotifyWhenEmptyWaitsForDrain)
{
    Harness h;
    h.path.send(0x1000, std::nullopt);
    Tick empty_at = 0;
    h.path.notifyWhenEmpty([&] { empty_at = h.eq.now(); });
    h.eq.run();
    EXPECT_EQ(empty_at, nsToTicks(20));
    EXPECT_TRUE(h.path.empty());
}

TEST(PersistPath, ConfigurableLatency)
{
    Harness h(nsToTicks(100));
    h.path.send(0x1000, std::nullopt);
    h.eq.run();
    EXPECT_EQ(h.delivered[0].at, nsToTicks(100));
}

TEST(PersistPath, CountsSendsAndDeliveries)
{
    Harness h;
    for (int i = 0; i < 4; ++i) {
        h.path.send(static_cast<Addr>(0x1000 + 64 * i), std::nullopt);
        h.eq.run();
    }
    EXPECT_EQ(h.path.sends.value(), 4u);
    EXPECT_EQ(h.path.deliveries.value(), 4u);
}
