/**
 * @file
 * Integration tests for the memory system: miss chains, MSHR merging,
 * coherence invalidation, design-specific eviction/flush handling.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "mem/memory_system.hh"
#include "sim/event_queue.hh"

using namespace pmemspec;
using mem::MemConfig;
using mem::MemorySystem;
using persistency::Design;
using sim::EventQueue;

namespace
{

struct Harness
{
    EventQueue eq;
    StatGroup stats{"test"};
    MemorySystem mem;

    explicit Harness(Design d, MemConfig cfg = smallConfig())
        : mem(eq, &stats, cfg, d)
    {
    }

    static MemConfig
    smallConfig()
    {
        MemConfig cfg;
        cfg.numCores = 2;
        cfg.l1Bytes = 4 * 1024;
        cfg.llcBytes = 64 * 1024;
        return cfg;
    }

    Tick
    timeLoad(CoreId c, Addr a)
    {
        Tick done = ~Tick{0};
        mem.load(c, a, [&] { done = eq.now(); });
        eq.run();
        return done;
    }

    Tick
    timeStore(CoreId c, Addr a)
    {
        Tick done = ~Tick{0};
        mem.store(c, a, std::nullopt, [&] { done = eq.now(); });
        eq.run();
        return done;
    }
};

/**
 * A move-only continuation: it owns a unique_ptr, so it cannot
 * travel through a copyable std::function. It logs its tag when it
 * fires; the log shows each request completing exactly once, in
 * order.
 */
MemorySystem::Done
tagged(std::vector<int> &log, int tag)
{
    return [&log, t = std::make_unique<int>(tag)] { log.push_back(*t); };
}

std::vector<int>
iota(int n)
{
    std::vector<int> v;
    for (int i = 0; i < n; ++i)
        v.push_back(i);
    return v;
}

} // namespace

TEST(MemorySystem, ColdLoadTraversesTheWholeHierarchy)
{
    Harness h(Design::IntelX86);
    EXPECT_EQ(h.timeLoad(0, 0x10000), nsToTicks(2 + 20 + 175));
    EXPECT_EQ(h.mem.pmc().reads.value(), 1u);
}

TEST(MemorySystem, L1HitIsTwoNanoseconds)
{
    Harness h(Design::IntelX86);
    h.timeLoad(0, 0x10000);
    const Tick start = h.eq.now();
    EXPECT_EQ(h.timeLoad(0, 0x10000) - start, nsToTicks(2));
}

TEST(MemorySystem, LlcHitServesRemoteCoreMisses)
{
    Harness h(Design::IntelX86);
    h.timeLoad(0, 0x10000); // fills LLC
    const Tick start = h.eq.now();
    EXPECT_EQ(h.timeLoad(1, 0x10000) - start, nsToTicks(2 + 20));
    EXPECT_EQ(h.mem.pmc().reads.value(), 1u);
}

TEST(MemorySystem, MshrMergesConcurrentMisses)
{
    Harness h(Design::IntelX86);
    int done = 0;
    h.mem.load(0, 0x10000, [&] { ++done; });
    h.mem.load(0, 0x10000, [&] { ++done; });
    h.mem.load(0, 0x10008, [&] { ++done; }); // same block
    h.eq.run();
    EXPECT_EQ(done, 3);
    EXPECT_EQ(h.mem.pmc().reads.value(), 1u);
}

TEST(MemorySystem, StoreHitDirtiesL1)
{
    Harness h(Design::IntelX86);
    h.timeLoad(0, 0x10000);
    h.timeStore(0, 0x10000);
    EXPECT_TRUE(h.mem.l1(0).isDirty(blockAlign(0x10000)));
}

TEST(MemorySystem, StoreMissWriteAllocates)
{
    Harness h(Design::IntelX86);
    h.timeStore(0, 0x10000);
    EXPECT_TRUE(h.mem.l1(0).contains(blockAlign(0x10000)));
    EXPECT_EQ(h.mem.storeAllocFetches.value(), 1u);
}

TEST(MemorySystem, StoresInvalidateRemoteL1Copies)
{
    Harness h(Design::IntelX86);
    h.timeLoad(0, 0x10000);
    h.timeLoad(1, 0x10000);
    EXPECT_TRUE(h.mem.l1(1).contains(blockAlign(0x10000)));
    h.timeStore(0, 0x10000);
    EXPECT_FALSE(h.mem.l1(1).contains(blockAlign(0x10000)));
    EXPECT_EQ(h.mem.coherenceInvalidations.value(), 1u);
}

TEST(MemorySystem, PmemSpecStoresEnterThePersistPath)
{
    Harness h(Design::PmemSpec);
    h.timeStore(0, 0x10000);
    EXPECT_EQ(h.mem.path(0).sends.value(), 1u);
    EXPECT_EQ(h.mem.pmc().persistsAccepted.value(), 1u);
}

TEST(MemorySystem, BufferedStoresEnterThePersistBuffer)
{
    for (Design d : {Design::HOPS, Design::DPO}) {
        Harness h(d);
        h.timeStore(0, 0x10000);
        EXPECT_EQ(h.mem.pbuf(0).appends.value(), 1u);
    }
}

TEST(MemorySystem, IntelStoresBypassPersistMachinery)
{
    Harness h(Design::IntelX86);
    h.timeStore(0, 0x10000);
    EXPECT_EQ(h.mem.pmc().persistsAccepted.value(), 0u);
}

TEST(MemorySystem, ClwbFlushesDirtyBlockToPmc)
{
    Harness h(Design::IntelX86);
    h.timeStore(0, 0x10000);
    Tick done = 0;
    h.mem.clwb(0, 0x10000, [&] { done = h.eq.now(); });
    h.eq.run();
    EXPECT_GT(done, 0u);
    EXPECT_EQ(h.mem.pmc().writes.value(), 1u);
    EXPECT_FALSE(h.mem.l1(0).isDirty(blockAlign(0x10000)));
}

TEST(MemorySystem, ClwbOfCleanBlockIsCheap)
{
    Harness h(Design::IntelX86);
    h.timeLoad(0, 0x10000);
    Tick start = h.eq.now();
    Tick done = 0;
    h.mem.clwb(0, 0x10000, [&] { done = h.eq.now(); });
    h.eq.run();
    EXPECT_EQ(done - start, nsToTicks(2));
    EXPECT_EQ(h.mem.pmc().writes.value(), 0u);
}

TEST(MemorySystem, DpoClwbIsANoop)
{
    Harness h(Design::DPO);
    h.timeStore(0, 0x10000);
    h.mem.clwb(0, 0x10000, [] {});
    h.eq.run();
    EXPECT_EQ(h.mem.pmc().writes.value(),
              h.mem.pbuf(0).persistsDone.value());
}

TEST(MemorySystem, SpecBarrierCompletesAfterPathDrain)
{
    Harness h(Design::PmemSpec);
    h.timeStore(0, 0x10000);
    Tick done = 0;
    h.mem.specBarrier(0, [&] { done = h.eq.now(); });
    h.eq.run();
    EXPECT_GT(done, 0u);
    EXPECT_TRUE(h.mem.path(0).empty());
}

TEST(MemorySystem, LlcEvictionsDroppedUnderPmemSpec)
{
    // Thrash a small LLC with dirty blocks; evictions must be dropped
    // (no PMC writes) but reported to the speculation buffer.
    MemConfig cfg = Harness::smallConfig();
    cfg.llcBytes = 2 * 1024; // 32 blocks
    cfg.l1Bytes = 1024;      // 16 blocks
    Harness h(Design::PmemSpec, cfg);
    for (Addr a = 0; a < 64; ++a)
        h.timeStore(0, 0x10000 + a * 64);
    EXPECT_GT(h.mem.pmc().droppedWritebacks.value(), 0u);
    // Every PMC write came from the persist path, not evictions.
    EXPECT_EQ(h.mem.pmc().writes.value() +
                  h.mem.pmc().writeCoalesces.value(),
              h.mem.pmc().persistsAccepted.value());
}

TEST(MemorySystem, IntelLlcEvictionsWriteBack)
{
    MemConfig cfg = Harness::smallConfig();
    cfg.llcBytes = 2 * 1024;
    cfg.l1Bytes = 1024;
    Harness h(Design::IntelX86, cfg);
    for (Addr a = 0; a < 64; ++a)
        h.timeStore(0, 0x10000 + a * 64);
    EXPECT_GT(h.mem.pmc().writes.value(), 0u);
    EXPECT_EQ(h.mem.pmc().droppedWritebacks.value(), 0u);
}

TEST(MemorySystem, LockWatermarksCreateBufferDependencies)
{
    Harness h(Design::HOPS);
    // Core 0 buffers a store, releases a lock; core 1 acquires and
    // buffers its own store: core 1's drain must follow core 0's.
    h.mem.store(0, 0x10000, std::nullopt, [] {});
    h.mem.onLockRelease(0, 7);
    h.mem.onLockAcquire(1, 7);
    h.mem.store(1, 0x20000, std::nullopt, [] {});
    h.eq.run();
    // Both drained; no deadlock, and the dependency was recorded
    // (depStalls may be zero if timing already satisfied it).
    EXPECT_EQ(h.mem.pbuf(0).persistsDone.value(), 1u);
    EXPECT_EQ(h.mem.pbuf(1).persistsDone.value(), 1u);
}

TEST(MemorySystem, HopsStickyMExtraLatency)
{
    MemConfig cfg = Harness::smallConfig();
    cfg.l1ToLlcExtra = nsToTicks(1);
    Harness h(Design::HOPS, cfg);
    EXPECT_EQ(h.timeLoad(0, 0x10000),
              nsToTicks(2 + 1 + 20) + cfg.bloomLookupLatency +
                  nsToTicks(175));
}

TEST(MemorySystem, MoveOnlyContinuationsThroughEveryEntryPoint)
{
    {
        Harness h(Design::PmemSpec);
        std::vector<int> log;
        h.mem.load(0, 0x10000, tagged(log, 0));
        h.mem.store(0, 0x20000, SpecId{1}, tagged(log, 1));
        h.eq.run();
        h.mem.clwb(0, 0x20000, tagged(log, 2));
        h.eq.run();
        h.mem.specBarrier(0, tagged(log, 3));
        h.eq.run();
        EXPECT_EQ(log, iota(4));
    }
    for (Design d : {Design::HOPS, Design::DPO}) {
        Harness h(d);
        std::vector<int> log;
        h.mem.store(0, 0x20000, std::nullopt, tagged(log, 0));
        h.eq.run();
        h.mem.clwb(0, 0x20000, tagged(log, 1));
        h.eq.run();
        h.mem.dfence(0, tagged(log, 2));
        h.eq.run();
        EXPECT_EQ(log, iota(3));
    }
}

TEST(MemorySystem, PersistPathFullParksStoresInOrder)
{
    MemConfig cfg = Harness::smallConfig();
    cfg.persistPathCapacity = 2;
    Harness h(Design::PmemSpec, cfg);
    constexpr int kStores = 8;
    // Warm the blocks so every store hits: completion order is then
    // capture order.
    for (int i = 0; i < kStores; ++i)
        h.timeLoad(0, 0x10000 + i * 64);
    std::vector<int> log;
    for (int i = 0; i < kStores; ++i)
        h.mem.store(0, 0x10000 + i * 64, static_cast<SpecId>(i),
                    tagged(log, i));
    EXPECT_TRUE(h.mem.path(0).full()); // the rest are parked
    h.eq.run();
    EXPECT_EQ(log, iota(kStores));
    EXPECT_EQ(h.mem.path(0).sends.value(), std::uint64_t{kStores});
}

TEST(MemorySystem, PersistBufferFullParksStoresInOrder)
{
    for (Design d : {Design::HOPS, Design::DPO}) {
        MemConfig cfg = Harness::smallConfig();
        cfg.persistBufferEntries = 2;
        Harness h(d, cfg);
        constexpr int kStores = 8;
        for (int i = 0; i < kStores; ++i)
            h.timeLoad(0, 0x10000 + i * 64);
        std::vector<int> log;
        for (int i = 0; i < kStores; ++i)
            h.mem.store(0, 0x10000 + i * 64, std::nullopt,
                        tagged(log, i));
        EXPECT_TRUE(h.mem.pbuf(0).full());
        h.eq.run();
        EXPECT_EQ(log, iota(kStores));
        EXPECT_EQ(h.mem.pbuf(0).appends.value(), std::uint64_t{kStores});
    }
}

TEST(MemorySystem, MergedL1AndLlcMissesFireOnceInOrder)
{
    Harness h(Design::IntelX86);
    std::vector<int> log;
    // Core 0: three loads and a write-allocating store merge into one
    // L1 miss; core 1's two loads merge into its own L1 miss, which
    // merges into core 0's LLC miss. One PM read serves all six.
    h.mem.load(0, 0x10000, tagged(log, 0));
    h.mem.load(0, 0x10008, tagged(log, 1));
    h.mem.store(0, 0x10010, std::nullopt, tagged(log, 2));
    h.mem.load(0, 0x10000, tagged(log, 3));
    h.mem.load(1, 0x10000, tagged(log, 4));
    h.mem.load(1, 0x10020, tagged(log, 5));
    h.eq.run();
    EXPECT_EQ(log, iota(6));
    EXPECT_EQ(h.mem.pmc().reads.value(), 1u);
    EXPECT_TRUE(h.mem.l1(0).isDirty(blockAlign(0x10000)));

    // Both miss levels closed: a second round is served without
    // another PM read, and each request still completes once.
    log.clear();
    h.mem.load(1, 0x10000, tagged(log, 0));
    h.mem.load(1, 0x10000, tagged(log, 1));
    h.eq.run();
    EXPECT_EQ(log, iota(2));
    EXPECT_EQ(h.mem.pmc().reads.value(), 1u);
}

TEST(MemorySystem, IntelClwbRetriesWhileWriteQueueFull)
{
    MemConfig cfg = Harness::smallConfig();
    cfg.pmcWriteQueue = 1;
    cfg.pmBanks = 1;
    Harness h(Design::IntelX86, cfg);
    for (int i = 0; i < 3; ++i)
        h.timeStore(0, 0x10000 + i * 64);
    std::vector<int> log;
    // Three flushes contend for a one-entry write queue: the refused
    // ones re-offer themselves until accepted, and each ack arrives
    // once, in order.
    for (int i = 0; i < 3; ++i)
        h.mem.clwb(0, 0x10000 + i * 64, tagged(log, i));
    h.eq.run();
    EXPECT_EQ(log, iota(3));
    EXPECT_EQ(h.mem.pmc().writes.value(), 3u);
}

TEST(MemorySystem, PoisonedFillReachesEveryMergedRequest)
{
    Harness h(Design::IntelX86);
    h.mem.pmc().poisonBlock(0x10000);
    std::vector<int> log;
    h.mem.load(0, 0x10000, tagged(log, 0));
    h.mem.load(1, 0x10000, tagged(log, 1));
    h.eq.run();
    // One fill, poisoned after the PMC's retries, completes both.
    EXPECT_EQ(log, iota(2));
    EXPECT_EQ(h.mem.poisonedFills.value(), 1u);
    EXPECT_EQ(h.mem.pmc().poisonedReads.value(), 1u);
}
