#include "persistent_memory.hh"

#include <atomic>

#include <sys/mman.h>

#include "common/logging.hh"

namespace pmemspec::runtime
{

namespace
{

constexpr Addr wordBytes = 8;

constexpr Addr
wordAlign(Addr a)
{
    return a & ~(wordBytes - 1);
}

/** What every byte past a snapshot's images holds. */
constexpr std::uint8_t zeroBlock[blockBytes] = {};

/** Snapshot identities are process-unique, so a snapshot of one PM
 *  restored into another can never pass for the receiver's base. */
std::uint64_t
freshSnapshotId()
{
    static std::atomic<std::uint64_t> next{1};
    return next.fetch_add(1, std::memory_order_relaxed);
}

} // namespace

PersistentMemory::ZeroPages::ZeroPages(std::size_t n) : len(n)
{
    void *p = mmap(nullptr, n, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    fatal_if(p == MAP_FAILED, "cannot map a %zu-byte PM image", n);
    bytes = static_cast<std::uint8_t *>(p);
}

PersistentMemory::ZeroPages::ZeroPages(const ZeroPages &o,
                                       std::size_t prefix)
    : ZeroPages(o.len)
{
    std::memcpy(bytes, o.bytes, prefix);
}

PersistentMemory::ZeroPages::~ZeroPages()
{
    munmap(bytes, len);
}

PersistentMemory::PersistentMemory(std::size_t bytes)
    : volatileImg(bytes), persistedImg(bytes)
{
    fatal_if(bytes < 1024, "PM space of %zu bytes is too small", bytes);
}

PersistentMemory::PersistentMemory(const PersistentMemory &o)
    : volatileImg(o.volatileImg, o.top),
      persistedImg(o.persistedImg, o.top), top(o.top),
      inFlight(o.inFlight), poisoned(o.poisoned), brk(o.brk),
      nextSpec(o.nextSpec), observer(o.observer), tracking(o.tracking),
      marked(o.marked), changed(o.changed), baseId(o.baseId),
      baseAgrees(o.baseAgrees), work(o.work)
{
}

void
PersistentMemory::checkRange(Addr a, std::size_t n) const
{
    panic_if(a == 0, "null PM access");
    panic_if(a + n > volatileImg.size(),
             "PM access out of range: [%#llx, +%zu) in %zu-byte space",
             static_cast<unsigned long long>(a), n, volatileImg.size());
}

void
PersistentMemory::checkPoison(Addr a, std::size_t n) const
{
    if (poisoned.empty() || n == 0)
        return;
    // The set is ordered: the first poisoned word at or after the
    // range's first word decides.
    auto it = poisoned.lower_bound(wordAlign(a));
    if (it != poisoned.end() && *it < a + n)
        throw MediaError{*it};
}

Addr
PersistentMemory::alloc(std::size_t n, std::size_t align)
{
    panic_if(align == 0 || (align & (align - 1)) != 0,
             "alloc alignment must be a power of two");
    std::size_t base = (brk + align - 1) & ~(align - 1);
    fatal_if(base + n > volatileImg.size(),
             "PM arena exhausted: need %zu at %zu of %zu", n, base,
             volatileImg.size());
    brk = base + n;
    return static_cast<Addr>(base);
}

void
PersistentMemory::writeTagged(Addr a, const void *src, std::size_t n,
                              bool ordered)
{
    checkRange(a, n);
    std::memcpy(volatileImg.data() + a, src, n);
    mark(a, n);
    // A full 8-byte overwrite of a poisoned word heals it (the
    // device remaps the line when fresh data arrives); a partial
    // overwrite leaves the word uncorrectable.
    if (!poisoned.empty()) {
        for (Addr w = wordAlign(a); w < a + n; w += wordBytes) {
            if (w >= a && w + wordBytes <= a + n)
                poisoned.erase(w);
        }
    }
    Pending p;
    p.addr = a;
    p.bytes.assign(static_cast<const std::uint8_t *>(src),
                   static_cast<const std::uint8_t *>(src) + n);
    p.specId = nextSpec++;
    p.ordered = ordered;
    inFlight.push_back(std::move(p));
    if (observer)
        observer(MemOp::Write, a, static_cast<std::uint32_t>(n));
}

void
PersistentMemory::write(Addr a, const void *src, std::size_t n)
{
    writeTagged(a, src, n, false);
}

void
PersistentMemory::writeOrdered(Addr a, const void *src, std::size_t n)
{
    writeTagged(a, src, n, true);
}

void
PersistentMemory::writeU64Ordered(Addr a, std::uint64_t v)
{
    writeOrdered(a, &v, sizeof(v));
}

void
PersistentMemory::read(Addr a, void *dst, std::size_t n) const
{
    checkRange(a, n);
    checkPoison(a, n);
    std::memcpy(dst, volatileImg.data() + a, n);
    if (observer)
        observer(MemOp::Read, a, static_cast<std::uint32_t>(n));
}

void
PersistentMemory::readDep(Addr a, void *dst, std::size_t n) const
{
    checkRange(a, n);
    checkPoison(a, n);
    std::memcpy(dst, volatileImg.data() + a, n);
    if (observer)
        observer(MemOp::ReadDep, a, static_cast<std::uint32_t>(n));
}

std::uint64_t
PersistentMemory::readU64Dep(Addr a) const
{
    std::uint64_t v;
    readDep(a, &v, sizeof(v));
    return v;
}

std::uint64_t
PersistentMemory::readU64(Addr a) const
{
    std::uint64_t v;
    read(a, &v, sizeof(v));
    return v;
}

void
PersistentMemory::writeU64(Addr a, std::uint64_t v)
{
    write(a, &v, sizeof(v));
}

std::uint32_t
PersistentMemory::readU32(Addr a) const
{
    std::uint32_t v;
    read(a, &v, sizeof(v));
    return v;
}

void
PersistentMemory::writeU32(Addr a, std::uint32_t v)
{
    write(a, &v, sizeof(v));
}

void
PersistentMemory::applyPending(const Pending &p)
{
    std::memcpy(persistedImg.data() + p.addr, p.bytes.data(),
                p.bytes.size());
    mark(p.addr, p.bytes.size());
}

void
PersistentMemory::persistAll()
{
    for (const Pending &p : inFlight)
        applyPending(p);
    inFlight.clear();
}

void
PersistentMemory::rebase(std::uint64_t id, bool agree)
{
    for (Addr b : changed)
        marked[b / blockBytes] = 0;
    changed.clear();
    baseId = id;
    baseAgrees = agree;
}

PersistentMemory::Snapshot
PersistentMemory::snapshot()
{
    Snapshot s;
    snapshot(s);
    return s;
}

void
PersistentMemory::snapshot(Snapshot &into)
{
    if (tracking && into.id == baseId && into.space == size()) {
        // `into` holds the base: only the changed blocks moved, and
        // only they can have broken an agreement the base had. They
        // all lie below `top`; past the base's length it held zeros.
        into.volatileImg.resize(top);
        into.persistedImg.resize(top);
        for (Addr b : changed) {
            const std::size_t n = blockSpan(b);
            std::memcpy(into.volatileImg.data() + b,
                        volatileImg.data() + b, n);
            std::memcpy(into.persistedImg.data() + b,
                        persistedImg.data() + b, n);
        }
        work += 2 * changed.size();
    } else {
        into.volatileImg.assign(volatileImg.data(),
                                volatileImg.data() + top);
        into.persistedImg.assign(persistedImg.data(),
                                 persistedImg.data() + top);
        work += 2 * blocksBelow(top);
    }
    into.space = size();
    into.imagesAgree = imagesAgree();
    into.inFlight = inFlight;
    into.poisoned = poisoned;
    into.brk = brk;
    into.nextSpec = nextSpec;
    into.id = freshSnapshotId();
    if (!tracking) {
        tracking = true;
        marked.assign(blocksBelow(size()), 0);
    }
    rebase(into.id, into.imagesAgree);
}

void
PersistentMemory::restore(const Snapshot &s)
{
    panic_if(s.space != size(),
             "snapshot of a %zu-byte space restored into %zu bytes",
             s.space, size());
    const std::size_t len = s.volatileImg.size();
    if (tracking && s.id == baseId) {
        // A changed block past the base's length held zeros in it.
        for (Addr b : changed) {
            const std::size_t n = blockSpan(b);
            const bool inBase = b < len;
            std::memcpy(volatileImg.data() + b,
                        inBase ? s.volatileImg.data() + b : zeroBlock, n);
            std::memcpy(persistedImg.data() + b,
                        inBase ? s.persistedImg.data() + b : zeroBlock,
                        n);
        }
        work += 2 * changed.size();
    } else {
        if (len) {
            std::memcpy(volatileImg.data(), s.volatileImg.data(), len);
            std::memcpy(persistedImg.data(), s.persistedImg.data(), len);
        }
        if (top > len) {
            std::memset(volatileImg.data() + len, 0, top - len);
            std::memset(persistedImg.data() + len, 0, top - len);
        }
        work += 2 * blocksBelow(std::max(len, top));
    }
    // Past `len` both images are now zero.
    top = len;
    inFlight = s.inFlight;
    poisoned = s.poisoned;
    brk = s.brk;
    nextSpec = s.nextSpec;
    if (tracking)
        rebase(s.id, s.imagesAgree);
}

void
PersistentMemory::snapshotBlocks(const std::vector<Addr> &blocks,
                                 BlockSnapshot &into) const
{
    into.blocks = blocks;
    into.volatileBytes.resize(blocks.size() * blockBytes);
    into.persistedBytes.resize(blocks.size() * blockBytes);
    for (std::size_t i = 0; i < blocks.size(); ++i) {
        const Addr b = blocks[i];
        panic_if(b != blockAlign(b) || (i && b <= blocks[i - 1]) ||
                     b >= volatileImg.size(),
                 "snapshotBlocks wants sorted, distinct block bases "
                 "inside the space");
        std::memcpy(into.volatileBytes.data() + i * blockBytes,
                    volatileImg.data() + b, blockSpan(b));
        std::memcpy(into.persistedBytes.data() + i * blockBytes,
                    persistedImg.data() + b, blockSpan(b));
    }
    work += 2 * blocks.size();
    into.inFlight = inFlight;
    into.poisoned = poisoned;
    into.brk = brk;
    into.nextSpec = nextSpec;
}

void
PersistentMemory::restoreBlocks(const BlockSnapshot &s)
{
    for (std::size_t i = 0; i < s.blocks.size(); ++i) {
        const Addr b = s.blocks[i];
        const std::size_t n = blockSpan(b);
        std::memcpy(volatileImg.data() + b,
                    s.volatileBytes.data() + i * blockBytes, n);
        std::memcpy(persistedImg.data() + b,
                    s.persistedBytes.data() + i * blockBytes, n);
        mark(b, n);
    }
    work += 2 * s.blocks.size();
    inFlight = s.inFlight;
    poisoned = s.poisoned;
    brk = s.brk;
    nextSpec = s.nextSpec;
}

bool
PersistentMemory::imagesAgree() const
{
    if (tracking && baseAgrees) {
        // Unchanged blocks still hold the base, whose images agreed.
        work += changed.size();
        for (Addr b : changed) {
            if (std::memcmp(volatileImg.data() + b,
                            persistedImg.data() + b, blockSpan(b)) != 0)
                return false;
        }
        return true;
    }
    work += blocksBelow(top);
    return std::memcmp(volatileImg.data(), persistedImg.data(), top) == 0;
}

bool
PersistentMemory::persistedEquals(const Snapshot &base,
                                  const BlockSnapshot &delta) const
{
    panic_if(base.space != size(),
             "snapshot of a %zu-byte space compared with %zu bytes",
             base.space, size());
    work += delta.blocks.size();
    for (std::size_t i = 0; i < delta.blocks.size(); ++i) {
        const Addr b = delta.blocks[i];
        if (std::memcmp(persistedImg.data() + b,
                        delta.persistedBytes.data() + i * blockBytes,
                        blockSpan(b)) != 0)
            return false;
    }
    // Every other block must equal the base (zero past its length):
    // when `base` is the base, only the changed blocks can differ
    // from it.
    const std::size_t len = base.persistedImg.size();
    auto inDelta = [&](Addr b) {
        return std::binary_search(delta.blocks.begin(),
                                  delta.blocks.end(), b);
    };
    auto baseBlockEqual = [&](Addr b) {
        return inDelta(b) ||
               std::memcmp(persistedImg.data() + b,
                           b < len ? base.persistedImg.data() + b
                                   : zeroBlock,
                           blockSpan(b)) == 0;
    };
    if (tracking && base.id == baseId) {
        work += changed.size();
        return std::all_of(changed.begin(), changed.end(),
                           baseBlockEqual);
    }
    // Past both lengths the two images are zero.
    const std::size_t end = std::max(len, top);
    work += blocksBelow(end);
    for (Addr b = 0; b < end; b += blockBytes)
        if (!baseBlockEqual(b))
            return false;
    return true;
}

void
PersistentMemory::overlayDurable(Addr a, const void *src, std::size_t n)
{
    checkRange(a, n);
    std::memcpy(volatileImg.data() + a, src, n);
    std::memcpy(persistedImg.data() + a, src, n);
    mark(a, n);
}

void
PersistentMemory::reboot()
{
    if (!tracking) {
        std::memcpy(volatileImg.data(), persistedImg.data(), top);
        return;
    }
    if (baseAgrees) {
        // Unchanged blocks still hold the base, whose images agreed:
        // only changed blocks can differ.
        for (Addr b : changed)
            std::memcpy(volatileImg.data() + b, persistedImg.data() + b,
                        blockSpan(b));
        work += changed.size();
        return;
    }
    // The base disagreed somewhere unknown: walk every block below
    // `top` and mark every block the copy changes, so the tracking
    // stays exact.
    for (Addr b = 0; b < top; b += blockBytes) {
        const std::size_t n = blockSpan(b);
        if (std::memcmp(volatileImg.data() + b, persistedImg.data() + b,
                        n) != 0) {
            std::memcpy(volatileImg.data() + b, persistedImg.data() + b,
                        n);
            mark(b, n);
        }
    }
    work += blocksBelow(top);
}

void
PersistentMemory::crash(std::size_t keep_prefix)
{
    std::size_t applied = 0;
    for (const Pending &p : inFlight) {
        if (applied >= keep_prefix)
            break;
        applyPending(p);
        ++applied;
    }
    inFlight.clear();
    // Reboot: every volatile copy is gone; PM is the truth.
    reboot();
}

const PersistentMemory::Pending &
PersistentMemory::pendingEntry(std::size_t idx) const
{
    panic_if(idx >= inFlight.size(),
             "pendingEntry(%zu) of %zu in flight", idx,
             inFlight.size());
    return inFlight[idx];
}

std::size_t
PersistentMemory::pendingEntryWords(std::size_t idx) const
{
    if (idx >= inFlight.size())
        return 0;
    const Pending &p = inFlight[idx];
    if (p.bytes.empty())
        return 0;
    const Addr first = wordAlign(p.addr);
    const Addr last = wordAlign(p.addr + p.bytes.size() - 1);
    return static_cast<std::size_t>((last - first) / wordBytes) + 1;
}

void
PersistentMemory::crashTorn(std::size_t keep_prefix,
                            std::uint64_t frontier_word_mask)
{
    std::size_t applied = 0;
    for (const Pending &p : inFlight) {
        if (applied >= keep_prefix)
            break;
        applyPending(p);
        ++applied;
    }
    if (keep_prefix < inFlight.size()) {
        // The frontier persist: only the selected machine words reach
        // the media. Word i is the i-th 8-byte-aligned word the
        // persist overlaps; the copied span is the intersection of
        // that word with the persist's byte range (the device never
        // writes bytes the store did not supply).
        const Pending &p = inFlight[keep_prefix];
        const Addr end = p.addr + p.bytes.size();
        const Addr first = wordAlign(p.addr);
        for (std::size_t i = 0; i < 64; ++i) {
            const Addr w = first + i * wordBytes;
            if (w >= end)
                break;
            if (!(frontier_word_mask & (std::uint64_t{1} << i)))
                continue;
            const Addr lo = w > p.addr ? w : p.addr;
            const Addr hi = w + wordBytes < end ? w + wordBytes : end;
            std::memcpy(persistedImg.data() + lo,
                        p.bytes.data() + (lo - p.addr), hi - lo);
            mark(lo, hi - lo);
        }
    }
    inFlight.clear();
    reboot();
}

void
PersistentMemory::poisonWord(Addr a)
{
    checkRange(a, 1);
    poisoned.insert(wordAlign(a));
}

bool
PersistentMemory::clearPoison(Addr a)
{
    return poisoned.erase(wordAlign(a)) != 0;
}

bool
PersistentMemory::isPoisoned(Addr a) const
{
    return poisoned.count(wordAlign(a)) != 0;
}

std::vector<Addr>
PersistentMemory::poisonedWordsIn(Addr a, std::size_t n) const
{
    std::vector<Addr> out;
    for (auto it = poisoned.lower_bound(wordAlign(a));
         it != poisoned.end() && *it < a + n; ++it)
        out.push_back(*it);
    return out;
}

void
PersistentMemory::corruptWord(Addr a, std::uint64_t xor_mask)
{
    const Addr w = wordAlign(a);
    checkRange(w, wordBytes);
    for (unsigned b = 0; b < wordBytes; ++b) {
        const auto flip =
            static_cast<std::uint8_t>(xor_mask >> (8 * b));
        volatileImg.data()[w + b] ^= flip;
        persistedImg.data()[w + b] ^= flip;
    }
    mark(w, wordBytes);
}

} // namespace pmemspec::runtime
