/**
 * @file
 * Unit tests for the PM controller: device timing, write coalescing,
 * design-specific writeback handling, the HOPS bloom filter path, and
 * the spec-ID store-order check.
 */

#include <gtest/gtest.h>

#include <deque>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "mem/pm_controller.hh"
#include "sim/event_queue.hh"

using namespace pmemspec;
using mem::MemConfig;
using mem::PmController;
using persistency::Design;
using sim::EventQueue;

namespace
{

struct Harness
{
    EventQueue eq;
    StatGroup stats{"test"};
    MemConfig cfg;
    PmController pmc;

    /** Per-block FIFO of the tests' read completions. */
    std::map<Addr, std::deque<std::function<void()>>> pendingReads;
    /** Status of every fill, in completion order. */
    std::vector<mem::ReadStatus> fills;

    explicit Harness(Design d, MemConfig c = MemConfig{})
        : cfg(c), pmc(eq, &stats, cfg, d)
    {
        pmc.setFillHandler([this](Addr block, mem::ReadStatus st) {
            fills.push_back(st);
            auto &q = pendingReads[block];
            ASSERT_FALSE(q.empty()) << "unexpected fill";
            auto done = std::move(q.front());
            q.pop_front();
            done();
        });
    }

    /** Issue a PM read; on_done runs when its fill comes back. */
    void
    read(Addr block, std::function<void()> on_done)
    {
        pendingReads[block].push_back(std::move(on_done));
        pmc.read(block);
    }
};

} // namespace

TEST(PmController, ReadTakesDeviceLatency)
{
    Harness h(Design::IntelX86);
    Tick done = 0;
    h.read(0x1000, [&] { done = h.eq.now(); });
    h.eq.run();
    EXPECT_EQ(done, nsToTicks(175));
    EXPECT_EQ(h.pmc.reads.value(), 1u);
}

TEST(PmController, SameBankReadsSerialise)
{
    Harness h(Design::IntelX86);
    std::vector<Tick> done;
    // Same block -> same bank.
    h.read(0x1000, [&] { done.push_back(h.eq.now()); });
    h.read(0x1000, [&] { done.push_back(h.eq.now()); });
    h.eq.run();
    ASSERT_EQ(done.size(), 2u);
    EXPECT_EQ(done[0], nsToTicks(175));
    EXPECT_EQ(done[1], nsToTicks(350));
}

TEST(PmController, DifferentBanksOverlap)
{
    Harness h(Design::IntelX86);
    std::vector<Tick> done;
    h.read(0, [&] { done.push_back(h.eq.now()); });
    h.read(64, [&] { done.push_back(h.eq.now()); }); // next bank
    h.eq.run();
    ASSERT_EQ(done.size(), 2u);
    EXPECT_EQ(done[0], nsToTicks(175));
    EXPECT_EQ(done[1], nsToTicks(175));
}

TEST(PmController, PoisonedReadRetriesThenPropagates)
{
    Harness h(Design::IntelX86);
    h.pmc.poisonBlock(0x1000);
    Tick done = 0;
    h.read(0x1000, [&] { done = h.eq.now(); });
    h.eq.run();
    // Every attempt pays the full device latency on the same bank.
    const unsigned attempts = h.cfg.pmcPoisonRetries + 1;
    EXPECT_EQ(done, attempts * nsToTicks(175));
    EXPECT_EQ(h.pmc.reads.value(), attempts);
    EXPECT_EQ(h.pmc.poisonRetries.value(), h.cfg.pmcPoisonRetries);
    EXPECT_EQ(h.pmc.poisonedReads.value(), 1u);
    EXPECT_EQ(h.fills, std::vector<mem::ReadStatus>{
                           mem::ReadStatus::Poisoned});
}

TEST(PmController, TransientPoisonHealsWithinRetryBudget)
{
    Harness h(Design::IntelX86);
    h.pmc.poisonBlock(0x1000, 2); // clears on the second device read
    Tick done = 0;
    h.read(0x1000, [&] { done = h.eq.now(); });
    h.eq.run();
    EXPECT_EQ(done, 2 * nsToTicks(175));
    EXPECT_EQ(h.pmc.poisonRetries.value(), 1u);
    EXPECT_EQ(h.pmc.poisonHeals.value(), 1u);
    EXPECT_FALSE(h.pmc.isBlockPoisoned(0x1000));
    EXPECT_EQ(h.fills, std::vector<mem::ReadStatus>{mem::ReadStatus::Ok});
}

TEST(PmController, IntelWritebackEntersWriteQueue)
{
    Harness h(Design::IntelX86);
    EXPECT_TRUE(h.pmc.writeBack(0x1000)); // ADR: durable at acceptance
    EXPECT_EQ(h.pmc.writes.value(), 1u);
    h.eq.run();
    EXPECT_EQ(h.pmc.writeQueueOccupancy(), 0u);
}

TEST(PmController, IntelWritebackRefusedWhileWriteQueueFull)
{
    MemConfig cfg;
    cfg.pmcWriteQueue = 1;
    Harness h(Design::IntelX86, cfg);
    EXPECT_TRUE(h.pmc.writeBack(0x1000));
    // Full queue, different block: refused, and nothing was queued.
    EXPECT_FALSE(h.pmc.writeBack(0x2000));
    EXPECT_EQ(h.pmc.writes.value(), 1u);
    // The queued block itself still coalesces.
    EXPECT_TRUE(h.pmc.writeBack(0x1000));
    EXPECT_EQ(h.pmc.writeCoalesces.value(), 1u);
    h.eq.run(); // the device write drains the queue
    EXPECT_TRUE(h.pmc.writeBack(0x2000));
    EXPECT_EQ(h.pmc.writes.value(), 2u);
}

TEST(PmController, BufferedDesignsDropWritebacks)
{
    for (Design d : {Design::HOPS, Design::DPO}) {
        Harness h(d);
        EXPECT_TRUE(h.pmc.writeBack(0x1000));
        EXPECT_EQ(h.pmc.droppedWritebacks.value(), 1u);
        EXPECT_EQ(h.pmc.writes.value(), 0u);
    }
}

TEST(PmController, PmemSpecWritebackFeedsSpecBuffer)
{
    Harness h(Design::PmemSpec);
    h.pmc.writeBack(0x1000);
    EXPECT_EQ(h.pmc.droppedWritebacks.value(), 1u);
    EXPECT_EQ(h.pmc.specBuffer().occupancy(), 1u);
    EXPECT_EQ(h.pmc.specBuffer().stateOf(0x1000),
              mem::SpecState::Evict);
}

TEST(PmController, AcceptPersistWritesAndCoalesces)
{
    Harness h(Design::PmemSpec);
    EXPECT_TRUE(h.pmc.acceptPersist(0, 0x1000, std::nullopt));
    EXPECT_TRUE(h.pmc.acceptPersist(0, 0x1000, std::nullopt));
    EXPECT_EQ(h.pmc.writes.value(), 1u);
    EXPECT_EQ(h.pmc.writeCoalesces.value(), 1u);
    EXPECT_EQ(h.pmc.persistsAccepted.value(), 2u);
}

TEST(PmController, WriteQueueFullRefusesPersists)
{
    MemConfig cfg;
    cfg.pmcWriteQueue = 2;
    cfg.pmBanks = 1;
    Harness h(Design::PmemSpec, cfg);
    EXPECT_TRUE(h.pmc.acceptPersist(0, 0 * 64, std::nullopt));
    EXPECT_TRUE(h.pmc.acceptPersist(0, 1 * 64, std::nullopt));
    EXPECT_FALSE(h.pmc.acceptPersist(0, 2 * 64, std::nullopt));
    EXPECT_EQ(h.pmc.persistsRefused.value(), 1u);
    h.eq.run(); // queue drains
    EXPECT_TRUE(h.pmc.acceptPersist(0, 2 * 64, std::nullopt));
}

namespace
{

/** One-slot write queue on a one-bank device: every write holds the
 *  queue for exactly one device write time (94ns). */
MemConfig
oneSlotWriteQueue()
{
    MemConfig cfg;
    cfg.pmcWriteQueue = 1;
    cfg.pmBanks = 1;
    return cfg;
}

/** Offer a persist the way a persist agent does: on refusal, park a
 *  re-offer that logs (tag, tick) once it is accepted. */
void
offerPersist(Harness &h, Addr block, std::optional<SpecId> spec, int tag,
             std::vector<std::pair<int, Tick>> &log)
{
    if (h.pmc.acceptPersist(0, block, spec)) {
        log.emplace_back(tag, h.eq.now());
        return;
    }
    h.pmc.park(block, [&h, block, spec, tag, &log] {
        offerPersist(h, block, spec, tag, log);
    });
}

} // namespace

TEST(PmController, ParkedPersistAcceptedAtRetirementTick)
{
    Harness h(Design::PmemSpec, oneSlotWriteQueue());
    std::vector<std::pair<int, Tick>> log;
    offerPersist(h, 0 * 64, std::nullopt, 0, log);
    offerPersist(h, 1 * 64, std::nullopt, 1, log);
    EXPECT_EQ(h.pmc.persistsRefused.value(), 1u);
    EXPECT_EQ(h.pmc.parkedAgents(), 1u);
    h.eq.run();
    // Accepted inside the event that retires the first write: no
    // poll, no delay past the retirement tick.
    using Log = std::vector<std::pair<int, Tick>>;
    EXPECT_EQ(log, (Log{{0, 0}, {1, nsToTicks(94)}}));
    EXPECT_EQ(h.pmc.parkedAgents(), 0u);
    EXPECT_EQ(h.pmc.persistsRefused.value(), 1u); // parked once
    EXPECT_EQ(h.pmc.persistsAccepted.value(), 2u);
}

TEST(PmController, ParkedAgentsAreServedFifo)
{
    Harness h(Design::PmemSpec, oneSlotWriteQueue());
    std::vector<std::pair<int, Tick>> log;
    for (int i = 0; i < 4; ++i)
        offerPersist(h, static_cast<Addr>(i * 64), std::nullopt, i, log);
    EXPECT_EQ(h.pmc.parkedAgents(), 3u);
    h.eq.run();
    using Log = std::vector<std::pair<int, Tick>>;
    EXPECT_EQ(log, (Log{{0, 0},
                        {1, nsToTicks(94)},
                        {2, nsToTicks(188)},
                        {3, nsToTicks(282)}}));
    EXPECT_EQ(h.pmc.persistsRefused.value(), 3u);
}

TEST(PmController, ParkedHeadCoalescesWhenItsBlockEnters)
{
    Harness h(Design::PmemSpec, oneSlotWriteQueue());
    int misspecs = 0;
    h.pmc.specBuffer().setMisspecCallback(
        [&](Addr, mem::MisspecKind) { ++misspecs; });
    std::vector<std::pair<int, Tick>> log;
    offerPersist(h, 0x1000, std::nullopt, 0, log);
    // Parked in this order: B (spec 3), C, then B again (spec 5).
    offerPersist(h, 0x2000, SpecId{3}, 1, log);
    offerPersist(h, 0x3000, std::nullopt, 2, log);
    offerPersist(h, 0x2000, SpecId{5}, 3, log);
    h.eq.run();
    // When the first B enters the queue the second B coalesces at
    // once, ahead of C, which waits for the next free slot.
    using Log = std::vector<std::pair<int, Tick>>;
    EXPECT_EQ(log, (Log{{0, 0},
                        {1, nsToTicks(94)},
                        {3, nsToTicks(94)},
                        {2, nsToTicks(188)}}));
    EXPECT_EQ(h.pmc.writeCoalesces.value(), 1u);
    EXPECT_EQ(h.pmc.writes.value(), 3u);
    // The coalesced persist is checked after the one it merged into:
    // spec IDs 3 then 5 are in order, so no store misspeculation.
    EXPECT_EQ(misspecs, 0);
}

TEST(PmController, RefusedIntelWritebackResumes)
{
    Harness h(Design::IntelX86, oneSlotWriteQueue());
    ASSERT_TRUE(h.pmc.writeBack(0x1000));
    ASSERT_FALSE(h.pmc.writeBack(0x2000));
    Tick accepted_at = 0;
    h.pmc.park(0x2000, [&] {
        accepted_at = h.eq.now();
        EXPECT_TRUE(h.pmc.writeBack(0x2000));
    });
    h.eq.run();
    EXPECT_EQ(accepted_at, nsToTicks(94));
    EXPECT_EQ(h.pmc.writes.value(), 2u);
    EXPECT_EQ(h.pmc.writeQueueOccupancy(), 0u);
}

TEST(PmController, ReadQueueFullReadsAreServedFifo)
{
    MemConfig cfg;
    cfg.pmcReadQueue = 1;
    Harness h(Design::IntelX86, cfg);
    std::vector<std::pair<int, Tick>> log;
    // Distinct banks: only the one-entry read queue serialises them.
    for (int i = 0; i < 4; ++i)
        h.read(static_cast<Addr>(i * 64),
               [&log, &h, i] { log.emplace_back(i, h.eq.now()); });
    EXPECT_EQ(h.pmc.readQueueOccupancy(), 1u);
    h.eq.run();
    // Each waiting read issues at the fill that frees the slot.
    using Log = std::vector<std::pair<int, Tick>>;
    EXPECT_EQ(log, (Log{{0, nsToTicks(175)},
                        {1, nsToTicks(350)},
                        {2, nsToTicks(525)},
                        {3, nsToTicks(700)}}));
    EXPECT_EQ(h.pmc.reads.value(), 4u);
}

TEST(PmController, LoadMisspecEndToEnd)
{
    // WriteBack (dropped LLC eviction) -> Read from PM -> Persist
    // arrival: the full stale-read pattern through the PMC.
    Harness h(Design::PmemSpec);
    int misspecs = 0;
    h.pmc.specBuffer().setMisspecCallback(
        [&](Addr, mem::MisspecKind k) {
            if (k == mem::MisspecKind::LoadStale)
                ++misspecs;
        });
    h.pmc.writeBack(0x1000);
    h.read(0x1000, [] {});
    h.pmc.acceptPersist(0, 0x1000, std::nullopt);
    EXPECT_EQ(misspecs, 1);
    h.eq.run();
}

TEST(PmController, StoreOrderViolationDetected)
{
    Harness h(Design::PmemSpec);
    int store_misspecs = 0;
    h.pmc.specBuffer().setMisspecCallback(
        [&](Addr, mem::MisspecKind k) {
            if (k == mem::MisspecKind::StoreOrder)
                ++store_misspecs;
        });
    // Core 1's store (spec-id 5) persists, then core 0's earlier
    // store (spec-id 3) arrives late: inter-thread WAW inversion.
    EXPECT_TRUE(h.pmc.acceptPersist(1, 0x1000, SpecId{5}));
    EXPECT_TRUE(h.pmc.acceptPersist(0, 0x1000, SpecId{3}));
    EXPECT_EQ(store_misspecs, 1);
    h.eq.run();
}

TEST(PmController, InOrderSpecIdsAreBenign)
{
    Harness h(Design::PmemSpec);
    int misspecs = 0;
    h.pmc.specBuffer().setMisspecCallback(
        [&](Addr, mem::MisspecKind) { ++misspecs; });
    EXPECT_TRUE(h.pmc.acceptPersist(0, 0x1000, SpecId{3}));
    EXPECT_TRUE(h.pmc.acceptPersist(1, 0x1000, SpecId{5}));
    EXPECT_TRUE(h.pmc.acceptPersist(0, 0x1000, SpecId{5}));
    EXPECT_EQ(misspecs, 0);
    h.eq.run();
}

TEST(PmController, SpecIdCheckExpiresWithWindow)
{
    Harness h(Design::PmemSpec);
    int misspecs = 0;
    h.pmc.specBuffer().setMisspecCallback(
        [&](Addr, mem::MisspecKind) { ++misspecs; });
    EXPECT_TRUE(h.pmc.acceptPersist(1, 0x1000, SpecId{5}));
    // Far outside the speculation window the race cannot be real.
    h.eq.runUntil(h.cfg.effectiveSpecWindow() * 4);
    EXPECT_TRUE(h.pmc.acceptPersist(0, 0x1000, SpecId{3}));
    EXPECT_EQ(misspecs, 0);
    h.eq.run();
}

TEST(PmController, UntaggedPersistsNeverStoreMisspeculate)
{
    Harness h(Design::PmemSpec);
    int misspecs = 0;
    h.pmc.specBuffer().setMisspecCallback(
        [&](Addr, mem::MisspecKind) { ++misspecs; });
    for (int i = 0; i < 100; ++i)
        h.pmc.acceptPersist(i % 4, 0x1000, std::nullopt);
    EXPECT_EQ(misspecs, 0);
    h.eq.run();
}

TEST(PmController, HopsBloomDelaysConflictingReads)
{
    Harness h(Design::HOPS);
    // Simulate a buffered persist: the filter knows about the block.
    h.pmc.filterInsert(0x1000);
    Tick done = 0;
    h.read(0x1000, [&] { done = h.eq.now(); });
    h.eq.runUntil(nsToTicks(500));
    EXPECT_EQ(done, 0u); // postponed: true conflict
    EXPECT_EQ(h.pmc.bloomTrueHits.value(), 1u);
    h.pmc.filterRemove(0x1000); // buffer drained
    h.eq.run();
    EXPECT_GT(done, nsToTicks(500));
}

TEST(PmController, HopsCleanReadPaysOnlyLookup)
{
    Harness h(Design::HOPS);
    Tick done = 0;
    h.read(0x1000, [&] { done = h.eq.now(); });
    h.eq.run();
    EXPECT_EQ(done, h.cfg.bloomLookupLatency + nsToTicks(175));
}

TEST(PmController, NonHopsReadsSkipTheBloomFilter)
{
    Harness h(Design::PmemSpec);
    Tick done = 0;
    h.read(0x1000, [&] { done = h.eq.now(); });
    h.eq.run();
    EXPECT_EQ(done, nsToTicks(175));
}

TEST(PmController, SpecBufferOnlyExistsForPmemSpec)
{
    Harness h(Design::IntelX86);
    EXPECT_DEATH(h.pmc.specBuffer(), "PMEM-Spec");
}
