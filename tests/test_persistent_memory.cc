/**
 * @file
 * Unit tests for the functional PM model: allocation, the two images,
 * in-order persist semantics, crash prefixes, the observer, and block
 * tracking (every tracked operation equals its whole-image form).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/rng.hh"
#include "runtime/persistent_memory.hh"

using namespace pmemspec;
using runtime::MemOp;
using runtime::PersistentMemory;

TEST(PersistentMemory, AllocRespectsAlignment)
{
    PersistentMemory pm(1 << 20);
    Addr a = pm.alloc(10, 64);
    EXPECT_EQ(a % 64, 0u);
    Addr b = pm.alloc(10, 64);
    EXPECT_EQ(b % 64, 0u);
    EXPECT_GE(b, a + 10);
}

TEST(PersistentMemory, AddressZeroIsNeverAllocated)
{
    PersistentMemory pm(1 << 20);
    EXPECT_NE(pm.alloc(8), 0u);
}

TEST(PersistentMemory, WriteReadRoundTrip)
{
    PersistentMemory pm(1 << 20);
    Addr a = pm.alloc(16);
    pm.writeU64(a, 0xdeadbeefULL);
    EXPECT_EQ(pm.readU64(a), 0xdeadbeefULL);
    pm.writeU32(a + 8, 77);
    EXPECT_EQ(pm.readU32(a + 8), 77u);
}

TEST(PersistentMemory, WritesAreVolatileUntilPersisted)
{
    PersistentMemory pm(1 << 20);
    Addr a = pm.alloc(8);
    pm.writeU64(a, 42);
    std::uint64_t persisted;
    std::memcpy(&persisted, pm.persistedImage() + a, 8);
    EXPECT_EQ(persisted, 0u);
    pm.persistAll();
    std::memcpy(&persisted, pm.persistedImage() + a, 8);
    EXPECT_EQ(persisted, 42u);
    EXPECT_EQ(pm.inFlightCount(), 0u);
}

TEST(PersistentMemory, CrashKeepsAnInOrderPrefix)
{
    // Strict persistency: a crash applies the first k in-flight
    // stores in store order and drops the rest.
    PersistentMemory pm(1 << 20);
    Addr a = pm.alloc(8);
    Addr b = pm.alloc(8);
    Addr c = pm.alloc(8);
    pm.writeU64(a, 1);
    pm.writeU64(b, 2);
    pm.writeU64(c, 3);
    pm.crash(2);
    EXPECT_EQ(pm.readU64(a), 1u);
    EXPECT_EQ(pm.readU64(b), 2u);
    EXPECT_EQ(pm.readU64(c), 0u); // lost
}

TEST(PersistentMemory, CrashZeroLosesEverythingUnpersisted)
{
    PersistentMemory pm(1 << 20);
    Addr a = pm.alloc(8);
    pm.writeU64(a, 7);
    pm.persistAll();
    pm.writeU64(a, 9);
    pm.crash(0);
    EXPECT_EQ(pm.readU64(a), 7u);
}

TEST(PersistentMemory, CrashRebootsVolatileFromPersisted)
{
    PersistentMemory pm(1 << 20);
    Addr a = pm.alloc(8);
    pm.writeU64(a, 5);
    pm.crash(0);
    // The volatile image equals the persisted one after reboot.
    EXPECT_EQ(std::memcmp(pm.volatileImage(), pm.persistedImage(),
                          pm.size()),
              0);
}

TEST(PersistentMemory, LaterWriteToSameAddressWins)
{
    PersistentMemory pm(1 << 20);
    Addr a = pm.alloc(8);
    pm.writeU64(a, 1);
    pm.writeU64(a, 2);
    pm.crash(2);
    EXPECT_EQ(pm.readU64(a), 2u);
}

TEST(PersistentMemory, PrefixReplayPreservesOrderAcrossOverwrites)
{
    PersistentMemory pm(1 << 20);
    Addr a = pm.alloc(8);
    pm.writeU64(a, 1);
    pm.writeU64(a, 2);
    pm.crash(1); // only the first write persisted
    EXPECT_EQ(pm.readU64(a), 1u);
}

TEST(PersistentMemory, ObserverSeesAllTraffic)
{
    PersistentMemory pm(1 << 20);
    Addr a = pm.alloc(64, 64);
    std::vector<std::tuple<MemOp, Addr, std::uint32_t>> log;
    pm.setObserver([&](MemOp op, Addr addr, std::uint32_t n) {
        log.emplace_back(op, addr, n);
    });
    pm.writeU64(a, 1);
    pm.readU64(a);
    pm.readU64Dep(a + 8);
    ASSERT_EQ(log.size(), 3u);
    EXPECT_EQ(std::get<0>(log[0]), MemOp::Write);
    EXPECT_EQ(std::get<0>(log[1]), MemOp::Read);
    EXPECT_EQ(std::get<0>(log[2]), MemOp::ReadDep);
    EXPECT_EQ(std::get<1>(log[2]), a + 8);
    EXPECT_EQ(std::get<2>(log[0]), 8u);
    pm.setObserver(nullptr);
    pm.writeU64(a, 2);
    EXPECT_EQ(log.size(), 3u);
}

TEST(PersistentMemory, OutOfRangeAccessPanics)
{
    PersistentMemory pm(4096);
    EXPECT_DEATH(pm.readU64(4090), "out of range");
    EXPECT_DEATH(pm.writeU64(0, 1), "null");
}

TEST(PersistentMemory, ArenaExhaustionIsFatal)
{
    PersistentMemory pm(4096);
    EXPECT_DEATH(pm.alloc(1 << 20), "exhausted");
}

TEST(PersistentMemory, InFlightCountTracksStores)
{
    PersistentMemory pm(1 << 20);
    Addr a = pm.alloc(64);
    EXPECT_EQ(pm.inFlightCount(), 0u);
    pm.writeU64(a, 1);
    pm.writeU64(a + 8, 2);
    EXPECT_EQ(pm.inFlightCount(), 2u);
    pm.persistAll();
    EXPECT_EQ(pm.inFlightCount(), 0u);
}

TEST(PersistentMemory, SnapshotRestoreRoundTrips)
{
    PersistentMemory pm(1 << 16);
    Addr a = pm.alloc(16, 64);
    pm.writeU64(a, 1);
    pm.persistAll();
    pm.writeU64(a, 2); // in flight at snapshot time
    const auto snap = pm.snapshot();

    pm.writeU64(a, 3);
    pm.persistAll();
    Addr later = pm.alloc(8, 8);
    EXPECT_GT(later, a);

    pm.restore(snap);
    EXPECT_EQ(pm.readU64(a), 2u);       // volatile image restored
    EXPECT_EQ(pm.inFlightCount(), 1u);  // pending persist restored
    pm.crash(0);                        // the pending write is lost
    EXPECT_EQ(pm.readU64(a), 1u);
    // The arena cursor was restored too: alloc hands out the same
    // address the discarded timeline used.
    EXPECT_EQ(pm.alloc(8, 8), later);
}

TEST(PersistentMemory, RestoreRewindsCrashSemantics)
{
    PersistentMemory pm(1 << 16);
    Addr a = pm.alloc(32, 64);
    pm.writeU64(a, 10);
    pm.persistAll();
    const auto snap = pm.snapshot();

    // Timeline 1: both writes durable.
    pm.writeU64(a, 11);
    pm.writeU64(a + 8, 12);
    pm.crash(2);
    EXPECT_EQ(pm.readU64(a), 11u);
    EXPECT_EQ(pm.readU64(a + 8), 12u);

    // Timeline 2 from the same snapshot: only the first survives.
    pm.restore(snap);
    pm.writeU64(a, 11);
    pm.writeU64(a + 8, 12);
    pm.crash(1);
    EXPECT_EQ(pm.readU64(a), 11u);
    EXPECT_EQ(pm.readU64(a + 8), 0u);
}

TEST(PersistentMemory, RestoreOfMismatchedSnapshotPanics)
{
    PersistentMemory small(1 << 12);
    PersistentMemory big(1 << 16);
    const auto snap = small.snapshot();
    EXPECT_DEATH(big.restore(snap), "snapshot");
}

TEST(PersistentMemory, ComparingAMismatchedSnapshotPanics)
{
    PersistentMemory small(1 << 12);
    PersistentMemory big(1 << 16);
    const auto snap = small.snapshot();
    PersistentMemory::BlockSnapshot none;
    big.snapshotBlocks({}, none);
    EXPECT_DEATH(big.persistedEquals(snap, none), "snapshot");
}

// ---- Lazily zeroed images below a high-water mark ----

namespace
{

bool
allZero(const std::uint8_t *p, std::size_t n)
{
    return std::all_of(p, p + n, [](std::uint8_t b) { return b == 0; });
}

} // namespace

TEST(PersistentMemoryStorage, FreshSpaceReadsZeroEverywhere)
{
    const std::size_t bytes = (1 << 20) + 40;
    PersistentMemory pm(bytes);
    EXPECT_TRUE(allZero(pm.volatileImage(), bytes));
    EXPECT_TRUE(allZero(pm.persistedImage(), bytes));
    EXPECT_EQ(pm.readU64(8), 0u);
    EXPECT_EQ(pm.readU64(bytes / 2), 0u);
    EXPECT_EQ(pm.readU64(bytes - 8), 0u);

    // Nothing written: snapshot, restore, compare and reboot have no
    // block to touch, and a copy reads zero too.
    const auto snap = pm.snapshot();
    pm.restore(snap);
    EXPECT_TRUE(pm.imagesAgree());
    pm.crash(0);
    EXPECT_EQ(pm.blockWork(), 0u);
    const PersistentMemory copy = pm;
    EXPECT_TRUE(allZero(copy.volatileImage(), bytes));
    EXPECT_TRUE(allZero(copy.persistedImage(), bytes));
}

TEST(PersistentMemoryStorage, RestoreZeroesTheTailPastAShorterSnapshot)
{
    const std::size_t bytes = 1 << 16;
    PersistentMemory pm(bytes);
    const Addr low = pm.alloc(8, 64);
    pm.writeU64(low, 1);
    pm.persistAll();
    const auto shortSnap = pm.snapshot();

    auto writeHigh = [&] {
        pm.writeU64(bytes / 2, 2);
        pm.writeU64(bytes - 8, 3);
        pm.persistAll();
        const std::uint8_t v[4] = {4, 4, 4, 4};
        pm.overlayDurable(bytes - 100, v, sizeof(v));
        pm.corruptWord(bytes - 200, 0xff);
        pm.writeU64(bytes - 300, 5); // left in flight
    };
    auto expectRewound = [&](const PersistentMemory &m) {
        EXPECT_EQ(m.readU64(low), 1u);
        EXPECT_EQ(m.inFlightCount(), 0u);
        EXPECT_TRUE(allZero(m.volatileImage() + low + 8, bytes - low - 8));
        EXPECT_TRUE(
            allZero(m.persistedImage() + low + 8, bytes - low - 8));
    };

    // The base: its changed blocks past its length are rewound to
    // zero.
    writeHigh();
    pm.restore(shortSnap);
    expectRewound(pm);

    // Not the base: the whole-image path zeroes [length, mark).
    writeHigh();
    const auto tallSnap = pm.snapshot();
    pm.restore(shortSnap);
    expectRewound(pm);

    // A foreign PM's short snapshot over a tall one.
    PersistentMemory other(bytes);
    other.restore(tallSnap);
    EXPECT_EQ(other.readU64(bytes - 8), 3u);
    other.restore(shortSnap);
    expectRewound(other);
}

TEST(PersistentMemoryStorage, PersistedEqualsWithABaseShorterThanTheMark)
{
    const std::size_t bytes = 1 << 16;
    PersistentMemory pm(bytes);
    const Addr low = pm.alloc(8, 64);
    pm.writeU64(low, 1);
    pm.persistAll();
    const auto base = pm.snapshot();

    pm.writeU64(bytes - 8, 2);
    pm.persistAll();
    PersistentMemory::BlockSnapshot withHigh;
    pm.snapshotBlocks({blockAlign(bytes - 8)}, withHigh);
    PersistentMemory::BlockSnapshot withoutHigh;
    pm.snapshotBlocks({}, withoutHigh);

    // Base path: the changed block past the base's length compares
    // with zero.
    EXPECT_TRUE(pm.persistedEquals(base, withHigh));
    EXPECT_FALSE(pm.persistedEquals(base, withoutHigh));

    // Whole-image path (`base` is no longer the base): the compare
    // runs up to the larger of the mark and the base's length.
    auto later = pm.snapshot();
    (void)later;
    EXPECT_TRUE(pm.persistedEquals(base, withHigh));
    EXPECT_FALSE(pm.persistedEquals(base, withoutHigh));

    // And a base longer than the mark: past the mark PM is zero.
    PersistentMemory shortPm(bytes);
    EXPECT_FALSE(shortPm.persistedEquals(base, withoutHigh));
    shortPm.writeU64(low, 1);
    shortPm.persistAll();
    EXPECT_TRUE(shortPm.persistedEquals(base, withoutHigh));
}

TEST(PersistentMemoryStorage, CopyConstructorCopiesTheWholeState)
{
    const std::size_t bytes = 1 << 16;
    PersistentMemory pm(bytes);
    const Addr a = pm.alloc(8, 64);
    pm.writeU64(a, 1);
    pm.persistAll();
    const auto base = pm.snapshot();
    pm.writeU64(bytes - 8, 2); // in flight, at the last block
    pm.poisonWord(a);

    PersistentMemory copy = pm;
    EXPECT_EQ(std::memcmp(copy.volatileImage(), pm.volatileImage(), bytes),
              0);
    EXPECT_EQ(
        std::memcmp(copy.persistedImage(), pm.persistedImage(), bytes), 0);
    EXPECT_EQ(copy.inFlightCount(), 1u);
    EXPECT_TRUE(copy.isPoisoned(a));
    EXPECT_EQ(copy.remaining(), pm.remaining());
    EXPECT_EQ(copy.changedBlocks(), pm.changedBlocks());

    // Independent storage: the copy's writes and crash leave the
    // original alone, and the copy still rewinds its base by blocks.
    copy.clearPoison(a);
    copy.writeU64(a, 9);
    copy.crash(1);
    EXPECT_EQ(copy.readU64(bytes - 8), 2u);
    EXPECT_EQ(pm.readU64(bytes - 8), 2u);
    EXPECT_EQ(pm.inFlightCount(), 1u);
    EXPECT_TRUE(pm.isPoisoned(a));
    ASSERT_EQ(copy.changedBlocks().size(), 2u);
    const std::uint64_t w = copy.blockWork();
    copy.restore(base);
    EXPECT_EQ(copy.blockWork() - w, 4u);
    EXPECT_EQ(copy.readU64(a), 1u);
    EXPECT_EQ(copy.readU64(bytes - 8), 0u);
}

// ---- Block tracking ----

namespace
{

/** Both images, copied out: the full-copy reference. */
struct Images
{
    std::vector<std::uint8_t> vol;
    std::vector<std::uint8_t> per;
};

Images
imagesOf(const PersistentMemory &pm)
{
    return {{pm.volatileImage(), pm.volatileImage() + pm.size()},
            {pm.persistedImage(), pm.persistedImage() + pm.size()}};
}

bool
sameImages(const PersistentMemory &pm, const Images &img)
{
    return std::memcmp(pm.volatileImage(), img.vol.data(), pm.size()) ==
               0 &&
           std::memcmp(pm.persistedImage(), img.per.data(), pm.size()) ==
               0;
}

/** An untracked PM holding `pm`'s state: never snapshotted, so its
 *  restore, reboots and compares all take the whole-image path. */
PersistentMemory
untrackedCopy(const PersistentMemory &pm)
{
    PersistentMemory copy = pm;
    PersistentMemory ref(pm.size());
    ref.restore(copy.snapshot());
    return ref;
}

/** Every block where `pm` differs from `base` is a changed block. */
void
expectChangesTracked(const PersistentMemory &pm, const Images &base)
{
    std::vector<Addr> changed = pm.changedBlocks();
    std::sort(changed.begin(), changed.end());
    for (Addr b = 0; b < pm.size(); b += blockBytes) {
        const std::size_t n = std::min<std::size_t>(blockBytes,
                                                    pm.size() - b);
        if (std::memcmp(pm.volatileImage() + b, base.vol.data() + b,
                        n) == 0 &&
            std::memcmp(pm.persistedImage() + b, base.per.data() + b,
                        n) == 0)
            continue;
        ASSERT_TRUE(std::binary_search(changed.begin(), changed.end(), b))
            << "block " << b << " changed but is not tracked";
    }
}

} // namespace

TEST(PersistentMemoryTracking, MatchesFullCopyModelUnderRandomMutations)
{
    // A short last block, so the block arithmetic meets a partial
    // block too.
    constexpr std::size_t bytes = 4096 + 40;
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        SCOPED_TRACE(seed);
        Rng rng(seed);
        PersistentMemory pm(bytes);

        // Random accesses stay below `reach`, so the high-water mark
        // starts low and snapshots are taken at different marks; case
        // 13 writes past it and at the last block of the space.
        const std::size_t reach = 640 + rng.below(bytes / 2);
        auto randomAddr = [&](std::size_t n) {
            return static_cast<Addr>(64 + rng.below(reach - 64 - n + 1));
        };
        auto randomBytes = [&](std::size_t n) {
            std::vector<std::uint8_t> v(n);
            for (auto &b : v)
                b = static_cast<std::uint8_t>(rng.below(4)); // collide
            return v;
        };
        auto randomWrite = [&](bool ordered) {
            const std::size_t n = 1 + rng.below(80);
            const auto v = randomBytes(n);
            const Addr a = randomAddr(n);
            if (ordered)
                pm.writeOrdered(a, v.data(), n);
            else
                pm.write(a, v.data(), n);
        };

        for (int i = 0; i < 20; ++i)
            randomWrite(false);
        if (rng.chance(0.5))
            pm.persistAll(); // else the base has persists in flight

        struct Snap
        {
            PersistentMemory::Snapshot s;
            Images img;
            std::size_t inFlight;
            std::size_t remaining;
        };
        std::vector<Snap> snaps;
        auto takeSnap = [&] {
            const std::size_t inFlight = pm.inFlightCount();
            const std::size_t remaining = pm.remaining();
            Images img = imagesOf(pm);
            snaps.push_back({pm.snapshot(), std::move(img), inFlight,
                             remaining});
            return snaps.size() - 1;
        };
        std::size_t cur = takeSnap();

        // A snapshot of a different PM of the same size.
        {
            PersistentMemory other(bytes);
            const std::vector<std::uint8_t> v(300, 0x5a);
            other.write(700, v.data(), v.size());
            other.persistAll();
            other.write(900, v.data(), 10); // left in flight
            snaps.push_back({other.snapshot(), imagesOf(other), 1,
                             other.remaining()});
        }

        // Block snapshots, with the persisted image they were taken
        // from (what persistedEquals lays over a base).
        struct Delta
        {
            PersistentMemory::BlockSnapshot bs;
            std::vector<Addr> blocks;
            Images img;
            std::size_t inFlight;
        };
        std::vector<Delta> deltas;

        for (int step = 0; step < 150; ++step) {
            SCOPED_TRACE(step);
            switch (rng.below(14)) {
              case 0:
              case 1:
                randomWrite(false);
                break;
              case 2:
                randomWrite(true);
                break;
              case 3:
                pm.persistAll();
                break;
              case 4:
                pm.crash(rng.below(pm.inFlightCount() + 2));
                break;
              case 5:
                pm.crashTorn(rng.below(pm.inFlightCount() + 1),
                             rng.next());
                break;
              case 6: {
                const std::size_t n = 1 + rng.below(100);
                const auto v = randomBytes(n);
                pm.overlayDurable(randomAddr(n), v.data(), n);
                break;
              }
              case 7:
                pm.corruptWord(randomAddr(8), rng.next());
                break;
              case 8: {
                // Either the tracked set or random blocks.
                std::vector<Addr> blocks;
                if (rng.chance(0.5)) {
                    blocks = pm.changedBlocks();
                } else {
                    for (int i = 0; i < 6; ++i)
                        blocks.push_back(blockAlign(randomAddr(1)));
                    if (rng.chance(0.3))
                        blocks.push_back(blockAlign(bytes - 1));
                }
                std::sort(blocks.begin(), blocks.end());
                blocks.erase(std::unique(blocks.begin(), blocks.end()),
                             blocks.end());
                Delta d;
                pm.snapshotBlocks(blocks, d.bs);
                d.blocks = blocks;
                d.img = imagesOf(pm);
                d.inFlight = pm.inFlightCount();
                if (deltas.size() >= 4)
                    deltas.erase(deltas.begin());
                deltas.push_back(std::move(d));
                break;
              }
              case 9: {
                if (deltas.empty())
                    break;
                const Delta &d = deltas[rng.below(deltas.size())];
                pm.restoreBlocks(d.bs);
                EXPECT_EQ(pm.inFlightCount(), d.inFlight);
                for (Addr b : d.blocks) {
                    const std::size_t n =
                        std::min<std::size_t>(blockBytes, bytes - b);
                    ASSERT_EQ(std::memcmp(pm.volatileImage() + b,
                                          d.img.vol.data() + b, n),
                              0);
                    ASSERT_EQ(std::memcmp(pm.persistedImage() + b,
                                          d.img.per.data() + b, n),
                              0);
                }
                break;
              }
              case 10:
                if (snaps.size() < 6)
                    cur = takeSnap();
                break;
              case 11: {
                // Re-take a snapshot in place: the base takes the
                // changed-block path, any other the full one.
                const std::size_t i = rng.below(snaps.size());
                snaps[i].inFlight = pm.inFlightCount();
                snaps[i].remaining = pm.remaining();
                snaps[i].img = imagesOf(pm);
                pm.snapshot(snaps[i].s);
                cur = i;
                break;
              }
              case 12: {
                const std::size_t i = rng.below(snaps.size());
                pm.restore(snaps[i].s);
                ASSERT_TRUE(sameImages(pm, snaps[i].img));
                cur = i;
                break;
              }
              case 13: {
                // Past every random access (above the mark unless a
                // case-13 write already raised it), or ending at the
                // last byte of the space.
                const std::size_t n = 8 * (1 + rng.below(8));
                const Addr a = rng.chance(0.5)
                                   ? bytes - n
                                   : reach + 8 * rng.below(
                                                 (bytes - n - reach) / 8);
                const auto v = randomBytes(n);
                switch (rng.below(4)) {
                  case 0:
                    pm.write(a, v.data(), n);
                    break;
                  case 1:
                    pm.writeOrdered(a, v.data(), n);
                    break;
                  case 2:
                    pm.overlayDurable(a, v.data(), n);
                    break;
                  case 3:
                    pm.corruptWord(a + n - 8, rng.next());
                    break;
                }
                break;
              }
            }

            // The marks cover every change since the base.
            expectChangesTracked(pm, snaps[cur].img);
            EXPECT_EQ(pm.imagesAgree(),
                      std::memcmp(pm.volatileImage(), pm.persistedImage(),
                                  bytes) == 0);

            // Restoring any snapshot -- the base by changed blocks,
            // the rest whole -- gives exactly its contents.
            for (const Snap &sn : snaps) {
                PersistentMemory c = pm;
                c.restore(sn.s);
                ASSERT_TRUE(sameImages(c, sn.img));
                EXPECT_EQ(c.inFlightCount(), sn.inFlight);
                EXPECT_EQ(c.remaining(), sn.remaining);
            }

            // Reboots (clean and torn) equal the untracked model's,
            // and keep the tracking exact.
            {
                const std::size_t k = rng.below(pm.inFlightCount() + 2);
                const std::uint64_t mask = rng.next();
                PersistentMemory clean = pm;
                PersistentMemory torn = pm;
                PersistentMemory cleanRef = untrackedCopy(pm);
                PersistentMemory tornRef = untrackedCopy(pm);
                clean.crash(k);
                cleanRef.crash(k);
                torn.crashTorn(k, mask);
                tornRef.crashTorn(k, mask);
                ASSERT_TRUE(sameImages(clean, imagesOf(cleanRef)));
                ASSERT_TRUE(sameImages(torn, imagesOf(tornRef)));
                EXPECT_TRUE(clean.imagesAgree());
                EXPECT_TRUE(torn.imagesAgree());
                expectChangesTracked(clean, snaps[cur].img);
                expectChangesTracked(torn, snaps[cur].img);
            }

            // persistedEquals(base, delta) against the whole image.
            for (const Snap &sn : snaps) {
                for (const Delta &d : deltas) {
                    std::vector<std::uint8_t> want = sn.img.per;
                    for (Addr b : d.blocks) {
                        const std::size_t n =
                            std::min<std::size_t>(blockBytes, bytes - b);
                        std::memcpy(want.data() + b, d.img.per.data() + b,
                                    n);
                    }
                    EXPECT_EQ(pm.persistedEquals(sn.s, d.bs),
                              std::memcmp(pm.persistedImage(),
                                          want.data(), bytes) == 0);
                }
            }
        }
    }
}

TEST(PersistentMemoryTracking, BaseRewindCostsOnlyTheChangedBlocks)
{
    PersistentMemory pm(1 << 20);
    const Addr a = pm.alloc(256, 64);
    pm.writeU64(a, 1);
    pm.persistAll();

    // The first snapshot copies both images and compares them, but
    // only below the high-water mark: the null-guard block and a's.
    const std::uint64_t belowTop = (a + blockBytes) / blockBytes;
    ASSERT_EQ(belowTop, 2u);
    std::uint64_t w = pm.blockWork();
    auto pre = pm.snapshot();
    EXPECT_EQ(pm.blockWork() - w, 3 * belowTop);

    pm.writeU64(a, 2);         // block 0 of the region
    pm.writeU64(a + 128, 3);   // block 2
    pm.persistAll();
    EXPECT_EQ(pm.changedBlocks().size(), 2u);

    w = pm.blockWork();
    EXPECT_TRUE(pm.imagesAgree());
    pm.crash(0);
    pm.restore(pre);
    // imagesAgree and the reboot touch 2 blocks each, the restore
    // 2 blocks of 2 images.
    EXPECT_EQ(pm.blockWork() - w, 2u + 2u + 4u);
    EXPECT_EQ(pm.readU64(a), 1u);
    EXPECT_TRUE(pm.changedBlocks().empty());

    // Re-taking the base in place is O(changed) as well.
    pm.writeU64(a + 64, 4);
    w = pm.blockWork();
    pm.snapshot(pre);
    EXPECT_EQ(pm.blockWork() - w, 2u + 1u);
}

TEST(PersistentMemoryTracking, ForeignSnapshotTakesTheWholeImagePath)
{
    PersistentMemory a(1 << 16);
    PersistentMemory b(1 << 16);
    const Addr x = a.alloc(8, 64);
    a.writeU64(x, 7);
    a.persistAll();
    const auto snapA = a.snapshot();
    auto snapB = b.snapshot();
    (void)snapB;

    b.restore(snapA);
    EXPECT_EQ(b.readU64(x), 7u);
    EXPECT_TRUE(b.changedBlocks().empty());
    // snapA is now b's base: a store and a rewind touch one block.
    b.writeU64(x, 8);
    const std::uint64_t w = b.blockWork();
    b.restore(snapA);
    EXPECT_EQ(b.blockWork() - w, 2u);
    EXPECT_EQ(b.readU64(x), 7u);
}

TEST(PersistentMemoryTracking, UnconvergedBaseRebootsExactly)
{
    // A base taken with a persist in flight: its images disagree in a
    // block no mutation since has touched, so the reboot must find it
    // by walking the whole space.
    PersistentMemory pm(1 << 16);
    const Addr x = pm.alloc(8, 64);
    const Addr y = pm.alloc(8, 64);
    pm.writeU64(x, 1); // in flight: volatile 1, persisted 0
    const auto base = pm.snapshot();
    EXPECT_FALSE(pm.imagesAgree());
    pm.writeU64(y, 2);
    pm.crash(0);
    EXPECT_EQ(pm.readU64(x), 0u);
    EXPECT_EQ(pm.readU64(y), 0u);
    EXPECT_TRUE(pm.imagesAgree());
    // The reboot marked the block it changed, so the rewind restores
    // the in-flight value exactly.
    pm.restore(base);
    EXPECT_EQ(pm.readU64(x), 1u);
    EXPECT_EQ(pm.inFlightCount(), 1u);
    pm.persistAll();
    std::uint64_t durable;
    std::memcpy(&durable, pm.persistedImage() + x, sizeof(durable));
    EXPECT_EQ(durable, 1u);
}

TEST(PersistentMemoryTracking, UntrackedUntilTheFirstSnapshot)
{
    PersistentMemory pm(1 << 16);
    const Addr x = pm.alloc(8, 64);
    pm.writeU64(x, 1);
    pm.crash(1);
    EXPECT_TRUE(pm.changedBlocks().empty());
    EXPECT_EQ(pm.blockWork(), 0u);
}
