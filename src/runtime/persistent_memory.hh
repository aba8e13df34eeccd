/**
 * @file
 * Functional persistent-memory model.
 *
 * The runtime layer (undo log, FASE runtime, persistent data
 * structures) executes against this model. It keeps two images:
 *
 *  - the *volatile* image: what the running program reads and writes
 *    (caches + in-flight stores included);
 *  - the *persisted* image: what would survive a power failure.
 *
 * Stores are applied to the volatile image immediately and queued as
 * in-flight persists. Under PMEM-Spec's strict persistency the
 * in-flight queue drains to the persisted image *in store order*;
 * crash(k) models a power failure that cut the queue after its first
 * k entries -- exactly the failure model the paper's recovery
 * reasoning assumes (a prefix of the persist order is durable).
 *
 * Beyond the clean-prefix model, the media itself can misbehave
 * ("clean prefix + corrupted frontier"):
 *
 *  - crashTorn(k, mask) keeps the first k persists and then makes an
 *    arbitrary *subset of the 8-byte words* of persist k+1 durable --
 *    the device guarantees 8-byte atomicity but nothing wider, so a
 *    multi-word store caught by the outage can tear;
 *  - corruptWord() flips bits directly in the durable image beneath
 *    the persist queue (media bit rot / a misdirected write);
 *  - poisonWord() marks a word uncorrectable: any read overlapping it
 *    throws MediaError (the functional analogue of an Optane UE /
 *    machine-check on load). A full 8-byte overwrite of a poisoned
 *    word heals it, as a device remaps the line on a fresh write.
 *
 * An observer hook reports every access so the workload layer can
 * record logical traces while the program runs.
 *
 * Storage costs what the program touched, not the declared space: the
 * images are lazily zeroed pages, and a high-water mark bounds every
 * whole-image copy, compare and reboot (see `top` below).
 */

#ifndef PMEMSPEC_RUNTIME_PERSISTENT_MEMORY_HH
#define PMEMSPEC_RUNTIME_PERSISTENT_MEMORY_HH

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <deque>
#include <functional>
#include <set>
#include <vector>

#include "common/types.hh"

namespace pmemspec::runtime
{

/** Kind of access reported to the observer. */
enum class MemOp : std::uint8_t
{
    Read,
    /** A read whose value determines the next access (pointer
     *  chase); the timing core cannot run past it. */
    ReadDep,
    Write,
};

/**
 * Thrown by a read that touches an uncorrectable (poisoned) word:
 * the device returned a media error instead of data. Software must
 * treat the value as unavailable, never as zero or stale bytes.
 */
struct MediaError
{
    Addr addr; ///< first poisoned word the access overlapped
};

/** Byte-addressable persistent memory with crash semantics. */
class PersistentMemory
{
  public:
    using Observer = std::function<void(MemOp, Addr, std::uint32_t)>;

    /** Bytes below the first allocation: address 0 stays unmapped
     *  (null guard). An arena of n bytes needs a space of
     *  reservedBytes + n. */
    static constexpr std::size_t reservedBytes = 64;

    /** @param bytes Size of the PM address space. */
    explicit PersistentMemory(std::size_t bytes);

    /** A copy of the whole state; copies only the bytes below the
     *  high-water mark. */
    PersistentMemory(const PersistentMemory &o);
    PersistentMemory &operator=(const PersistentMemory &) = delete;

    /** Bump-allocate a region; never freed (arena style). */
    Addr alloc(std::size_t n, std::size_t align = 8);

    /** Bytes remaining in the arena. */
    std::size_t remaining() const { return size() - brk; }

    /** Total size of the address space. */
    std::size_t size() const { return volatileImg.size(); }

    /** Store: updates the volatile image, queues an in-flight
     *  persist, heals any fully-overwritten poisoned word, and
     *  notifies the observer. */
    void write(Addr a, const void *src, std::size_t n);

    /** Store carrying an ordering tag: like write(), but the queued
     *  persist is marked `ordered` -- the functional analogue of a
     *  persist the program publishes *after* a spec-barrier point
     *  (an undo log's validity-marker bump, a commit truncation).
     *  The reorder explorer treats an ordered persist as a full
     *  fence in the speculation window: nothing crosses it. */
    void writeOrdered(Addr a, const void *src, std::size_t n);
    void writeU64Ordered(Addr a, std::uint64_t v);

    /** Load from the volatile image; notifies the observer.
     *  @throws MediaError if the range overlaps a poisoned word. */
    void read(Addr a, void *dst, std::size_t n) const;

    /** Load that the caller marks as address-forming (pointer
     *  chase); recorded as MemOp::ReadDep. */
    void readDep(Addr a, void *dst, std::size_t n) const;

    /** Dependent 64-bit load (the common pointer fetch). */
    std::uint64_t readU64Dep(Addr a) const;

    std::uint64_t readU64(Addr a) const;
    void writeU64(Addr a, std::uint64_t v);
    std::uint32_t readU32(Addr a) const;
    void writeU32(Addr a, std::uint32_t v);

    /** Drain every in-flight persist (a durability barrier). */
    void persistAll();

    /** In-flight persists not yet durable. */
    std::size_t inFlightCount() const { return inFlight.size(); }

    /**
     * Power failure: the first keep_prefix in-flight persists reach
     * the persisted image (in order); the rest are lost; the machine
     * reboots, so the volatile image is re-read from PM.
     */
    void crash(std::size_t keep_prefix);

    /**
     * Power failure with a torn frontier: the first keep_prefix
     * in-flight persists are fully durable, and of persist
     * keep_prefix+1 (if one exists) only the 8-byte words selected
     * by `frontier_word_mask` reach the media -- bit i covers the
     * i-th machine word (8-byte-aligned, in address order) that the
     * persist overlaps. Words past bit 63 are treated as lost. A
     * zero mask degenerates to crash(keep_prefix); an all-ones mask
     * to crash(keep_prefix + 1). 8-byte atomicity is preserved;
     * block atomicity is not.
     */
    void crashTorn(std::size_t keep_prefix,
                   std::uint64_t frontier_word_mask);

    /** Number of 8-byte machine words in-flight persist `idx` spans
     *  (the mask width crashTorn() would tear over). */
    std::size_t pendingEntryWords(std::size_t idx) const;

    // ---- Media faults (uncorrectable errors and bit rot) ----

    /** Mark the 8-byte word containing `a` uncorrectable: reads
     *  overlapping it throw MediaError until it is healed by a full
     *  word overwrite or clearPoison(). */
    void poisonWord(Addr a);

    /** Explicitly heal a poisoned word (device remap / scrubbing).
     *  @return true if the word was poisoned. */
    bool clearPoison(Addr a);

    /** Is the word containing `a` poisoned? */
    bool isPoisoned(Addr a) const;

    /** Poisoned word base addresses overlapping [a, a+n). */
    std::vector<Addr> poisonedWordsIn(Addr a, std::size_t n) const;

    /** Total poisoned words in the space. */
    std::size_t poisonedWordCount() const { return poisoned.size(); }

    /**
     * Flip the bits of `xor_mask` in the 8-byte word containing `a`,
     * in *both* images, beneath the persist queue: silent media
     * corruption that no barrier ordered and no observer saw. Only
     * checksums can catch it.
     */
    void corruptWord(Addr a, std::uint64_t xor_mask);

    /** Register/replace the access observer (nullptr to disable). */
    void setObserver(Observer obs) { observer = std::move(obs); }

    /** One in-flight (not yet durable) persist. */
    struct Pending
    {
        Addr addr;
        std::vector<std::uint8_t> bytes;
        /** Monotonic store-order id, the functional analogue of the
         *  speculation ID the PMC's order check keys on: persist i
         *  precedes persist j in store order iff specId_i < specId_j. */
        SpecId specId = 0;
        /** Publication persist (spec-barrier analogue): may not be
         *  reordered with *any* other persist in the window. */
        bool ordered = false;
    };

    /** In-flight persist `idx` (0 = oldest). The reorder explorer
     *  captures the speculation window from these before a crash. */
    const Pending &pendingEntry(std::size_t idx) const;

    /**
     * Apply bytes directly to *both* images beneath the persist
     * queue, with no observer notification and no poison healing:
     * the reorder explorer uses this to materialize "persist j of
     * the crash window landed" states without perturbing the queue
     * it is enumerating. Unlike corruptWord() this is not a fault --
     * it writes data some store legitimately supplied.
     */
    void overlayDurable(Addr a, const void *src, std::size_t n);

    /**
     * A full copy of the PM state (both images, the in-flight queue,
     * the poison set and the arena cursor). The crash-point explorer
     * snapshots the state once per operation and rewinds between
     * crash(k) trials; the observer is not part of the state and
     * survives restore(). Opaque: only the PM that holds it as its
     * base may rewind to it by changed blocks (see the tracking
     * contract below), which needs its contents to be the ones that
     * snapshot() wrote. The images hold the bytes below the
     * high-water mark; every byte past them was zero.
     */
    class Snapshot
    {
        friend class PersistentMemory;
        /** Size of the PM space the snapshot was taken of. */
        std::size_t space = 0;
        std::vector<std::uint8_t> volatileImg;
        std::vector<std::uint8_t> persistedImg;
        std::deque<Pending> inFlight;
        std::set<Addr> poisoned;
        std::size_t brk = 0;
        SpecId nextSpec = 1;
        /** Process-unique identity of these contents (0 = empty). */
        std::uint64_t id = 0;
        /** volatileImg == persistedImg. */
        bool imagesAgree = true;
    };

    /**
     * The contents of a sorted set of 64-byte blocks, both images,
     * plus the in-flight queue, poison set, arena cursor and
     * store-order counter. The crash explorer keeps the post-crash
     * state and the reference run's committed image this way: what
     * an operation can change, not the whole space.
     */
    class BlockSnapshot
    {
        friend class PersistentMemory;
        std::vector<Addr> blocks; ///< sorted, distinct block bases
        std::vector<std::uint8_t> volatileBytes;
        std::vector<std::uint8_t> persistedBytes;
        std::deque<Pending> inFlight;
        std::set<Addr> poisoned;
        std::size_t brk = 0;
        SpecId nextSpec = 1;
    };

    /*
     * Block tracking. From the first snapshot() on, the PM records
     * which 64-byte blocks of either image every mutator (stores,
     * persists, crash reboots, overlayDurable, corruptWord,
     * restoreBlocks) touched since the *base*: the snapshot last
     * taken or restored. Rewinding to the base, rebooting, and the
     * oracle compares then cost O(changed blocks) instead of O(PM).
     * Anything else -- restoring another snapshot, or a base whose
     * two images differed -- takes the whole-image path, so every
     * result is exact regardless of how the caller uses it. The
     * whole-image path covers the bytes below the high-water mark
     * only: past it both images are zero.
     */

    /** Take a full snapshot; it becomes the base. */
    Snapshot snapshot();

    /** Re-take `into` in place. When `into` is the base, only the
     *  changed blocks are copied; otherwise the whole state is. */
    void snapshot(Snapshot &into);

    /** Rewind to `s`, which becomes the base: the changed blocks
     *  when `s` is already the base, the whole state otherwise. */
    void restore(const Snapshot &s);

    /** Block bases changed since the base, in first-change order
     *  (empty before the first snapshot). */
    const std::vector<Addr> &changedBlocks() const { return changed; }

    /** Capture `blocks` (sorted, distinct, block-aligned) into
     *  `into`, reusing its storage. */
    void snapshotBlocks(const std::vector<Addr> &blocks,
                        BlockSnapshot &into) const;

    /**
     * Write the captured blocks back into both images and restore
     * the queue, poison set, arena cursor and store-order counter.
     * Exact iff every byte that differs from the captured state lies
     * in the captured blocks; the crash explorer checks that claim
     * after every recovery (recovery may write only blocks the
     * operation's reference run changed).
     */
    void restoreBlocks(const BlockSnapshot &s);

    /** The volatile and persisted images are byte-identical. */
    bool imagesAgree() const;

    /** The persisted image equals `base`'s persisted image with
     *  `delta`'s persisted blocks laid over it. */
    bool persistedEquals(const Snapshot &base,
                         const BlockSnapshot &delta) const;

    /** 64-byte image blocks (per image) that snapshots, restores,
     *  reboots and the two compares above have copied or compared:
     *  a host-independent count of the state-management work. */
    std::uint64_t blockWork() const { return work; }

    /** Raw image access for invariant checkers. */
    const std::uint8_t *volatileImage() const { return volatileImg.data(); }
    const std::uint8_t *persistedImage() const { return persistedImg.data(); }

  private:
    void checkRange(Addr a, std::size_t n) const;
    void checkPoison(Addr a, std::size_t n) const;
    void applyPending(const Pending &p);
    void writeTagged(Addr a, const void *src, std::size_t n,
                     bool ordered);
    /** Reboot: the volatile image becomes a copy of the persisted
     *  one. */
    void reboot();
    /** Record a write to [a, a+n): raise the high-water mark over
     *  it and, when tracking, mark its blocks changed since the
     *  base. Every image mutator calls this. */
    void
    mark(Addr a, std::size_t n)
    {
        if (n == 0)
            return;
        top = std::max(top, blockEnd(a + n));
        if (!tracking)
            return;
        for (Addr b = a / blockBytes; b <= (a + n - 1) / blockBytes;
             ++b) {
            if (!marked[b]) {
                marked[b] = 1;
                changed.push_back(b * blockBytes);
            }
        }
    }
    /** Clear the marks: the state now equals the snapshot `id`. */
    void rebase(std::uint64_t id, bool agree);
    /** Bytes of block `b` inside the space (the last may be short). */
    std::size_t
    blockSpan(Addr b) const
    {
        return std::min<std::size_t>(blockBytes, volatileImg.size() - b);
    }
    /** `end` rounded up to a block boundary, capped at the space. */
    std::size_t
    blockEnd(std::size_t end) const
    {
        return std::min<std::size_t>(
            (end + blockBytes - 1) / blockBytes * blockBytes, size());
    }
    /** Blocks in [0, end). */
    static std::uint64_t
    blocksBelow(std::size_t end)
    {
        return (end + blockBytes - 1) / blockBytes;
    }
    /**
     * Zero-initialised bytes that cost memory only where written: an
     * anonymous private mapping, unmapped on destruction. Untouched
     * pages are never backed, however the allocator would have
     * served a vector of the same size.
     */
    class ZeroPages
    {
      public:
        explicit ZeroPages(std::size_t bytes);
        /** A copy of `o`'s first `prefix` bytes; the rest is zero. */
        ZeroPages(const ZeroPages &o, std::size_t prefix);
        ~ZeroPages();
        ZeroPages(const ZeroPages &) = delete;
        ZeroPages &operator=(const ZeroPages &) = delete;

        std::uint8_t *data() { return bytes; }
        const std::uint8_t *data() const { return bytes; }
        std::size_t size() const { return len; }

      private:
        std::uint8_t *bytes;
        std::size_t len;
    };

    ZeroPages volatileImg;
    ZeroPages persistedImg;
    /** High-water mark: the block-rounded end of the highest byte any
     *  mutator has written. Every byte at or past it is zero in both
     *  images, so whole-image work stops here. */
    std::size_t top = 0;
    std::deque<Pending> inFlight;
    /** Word-aligned base addresses of uncorrectable words. */
    std::set<Addr> poisoned;
    std::size_t brk = reservedBytes;
    /** Store-order id the next queued persist receives. */
    SpecId nextSpec = 1;
    Observer observer;

    // ---- Block tracking (off until the first snapshot) ----
    bool tracking = false;
    /** One mark per block: changed since the base. */
    std::vector<std::uint8_t> marked;
    /** The marked blocks' bases, in first-change order. */
    std::vector<Addr> changed;
    /** Identity of the base snapshot (0 = none). */
    std::uint64_t baseId = 0;
    /** The base's two images were byte-identical. */
    bool baseAgrees = false;
    /** See blockWork(). */
    mutable std::uint64_t work = 0;
};

} // namespace pmemspec::runtime

#endif // PMEMSPEC_RUNTIME_PERSISTENT_MEMORY_HH
