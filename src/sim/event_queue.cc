#include "event_queue.hh"

#include <algorithm>

#include "common/logging.hh"

namespace pmemspec::sim
{

EventQueue::EventQueue()
    : buckets(kBuckets), bucketBits(kBuckets / 64, 0)
{
}

EventQueue::~EventQueue()
{
    // Destroy the callables still pending in the ring and the far heap.
    auto destroy = [this](std::uint32_t i) {
        Slot &s = slotAt(i);
        if (s.destroy)
            s.destroy(s.buf);
        return s.next;
    };
    for (const Bucket &bk : buckets) {
        for (std::uint32_t i = bk.head; i != kNil;)
            i = destroy(i);
    }
    for (std::uint32_t i : farHeap)
        destroy(i);
}

void
EventQueue::checkNotPast(Tick when) const
{
    panic_if(when < curTick,
             "scheduling event in the past (when=%llu now=%llu)",
             static_cast<unsigned long long>(when),
             static_cast<unsigned long long>(curTick));
}

std::uint32_t
EventQueue::allocSlot()
{
    if (freeHead == kNil) {
        // Grow the arena by one chunk and chain it onto the free list.
        auto chunk = std::make_unique<Slot[]>(kChunkSlots);
        const auto base =
            static_cast<std::uint32_t>(chunks.size() << kChunkShift);
        for (std::uint32_t i = 0; i < kChunkSlots; ++i)
            chunk[i].next = (i + 1 < kChunkSlots) ? base + i + 1 : kNil;
        chunks.push_back(std::move(chunk));
        freeHead = base;
    }
    const std::uint32_t idx = freeHead;
    freeHead = slotAt(idx).next;
    return idx;
}

void
EventQueue::setBit(std::uint32_t bucket)
{
    bucketBits[bucket >> 6] |= std::uint64_t{1} << (bucket & 63);
}

void
EventQueue::clearBit(std::uint32_t bucket)
{
    bucketBits[bucket >> 6] &= ~(std::uint64_t{1} << (bucket & 63));
}

void
EventQueue::link(std::uint32_t idx, Slot &s)
{
    // when >= now and baseDay <= day(now), so this cannot underflow.
    const std::uint64_t day = s.when >> kDayShift;
    ++numPending;
    if (day - baseDay < kBuckets) {
        ringInsert(idx, s);
    } else {
        farHeap.push_back(idx);
        std::push_heap(farHeap.begin(), farHeap.end(), farOrder());
    }
}

void
EventQueue::ringInsert(std::uint32_t idx, Slot &s)
{
    const std::uint32_t b =
        static_cast<std::uint32_t>(s.when >> kDayShift) & kBucketMask;
    Bucket &bk = buckets[b];
    if (bk.head == kNil) {
        bk.head = bk.tail = idx;
        s.next = kNil;
        setBit(b);
        return;
    }
    // Fast path: sequence numbers grow monotonically, so an insert
    // belongs at the tail unless it undercuts the tail's tick.
    Slot &tail = slotAt(bk.tail);
    if (before(tail, s)) {
        tail.next = idx;
        s.next = kNil;
        bk.tail = idx;
        return;
    }
    // Walk the (short) chain for the first entry ordered after s.
    std::uint32_t prev = kNil;
    std::uint32_t cur = bk.head;
    while (cur != kNil) {
        const Slot &c = slotAt(cur);
        if (before(s, c))
            break;
        prev = cur;
        cur = c.next;
    }
    s.next = cur;
    if (prev == kNil)
        bk.head = idx;
    else
        slotAt(prev).next = idx;
    if (cur == kNil)
        bk.tail = idx;
}

std::uint32_t
EventQueue::findRingMin() const
{
    // All ring events have day in [baseDay, baseDay + kBuckets), and
    // each day in that window maps to a distinct bucket -- so the
    // first non-empty bucket, scanning from baseDay's and wrapping,
    // holds the earliest day, and its sorted chain head is the
    // earliest (when, seq).
    const std::uint32_t start =
        static_cast<std::uint32_t>(baseDay) & kBucketMask;
    std::uint32_t word = start >> 6;
    std::uint64_t bits = bucketBits[word] &
                         (~std::uint64_t{0} << (start & 63));
    for (std::size_t scanned = 0; scanned <= bucketBits.size();
         ++scanned) {
        if (bits) {
            const std::uint32_t b =
                (word << 6) +
                static_cast<std::uint32_t>(__builtin_ctzll(bits));
            return buckets[b].head;
        }
        word = (word + 1) & ((kBuckets >> 6) - 1);
        bits = bucketBits[word];
    }
    panic("ring bitmap empty with %zu events pending", numPending);
}

std::uint32_t
EventQueue::peekMin() const
{
    if (farHeap.empty())
        return findRingMin();
    const std::uint32_t far = farHeap.front();
    if (farHeap.size() == numPending)
        return far;
    const std::uint32_t ring = findRingMin();
    return before(slotAt(far), slotAt(ring)) ? far : ring;
}

void
EventQueue::fire(std::uint32_t idx)
{
    Slot &s = slotAt(idx);
    panic_if(s.when < curTick,
             "event order broken (when=%llu now=%llu)",
             static_cast<unsigned long long>(s.when),
             static_cast<unsigned long long>(curTick));
    if (!farHeap.empty() && farHeap.front() == idx) {
        std::pop_heap(farHeap.begin(), farHeap.end(), farOrder());
        farHeap.pop_back();
    } else {
        // A ring minimum heads the chain of its day's bucket.
        const std::uint32_t b =
            static_cast<std::uint32_t>(s.when >> kDayShift) & kBucketMask;
        Bucket &bk = buckets[b];
        bk.head = s.next;
        if (bk.head == kNil) {
            bk.tail = kNil;
            clearBit(b);
        }
    }
    // s is the global minimum, so anchoring the window on its day
    // keeps every pending event inside [baseDay, ...).
    baseDay = s.when >> kDayShift;
    curTick = s.when;
    --numPending;
    ++numExecuted;
    // Arena growth by a callback leaves existing slots in place, and s
    // stays off the free list until the callback has returned.
    s.invoke(s.buf);
    if (s.destroy)
        s.destroy(s.buf);
    s.next = freeHead;
    freeHead = idx;
}

bool
EventQueue::step()
{
    if (numPending == 0)
        return false;
    fire(peekMin());
    return true;
}

void
EventQueue::runUntil(Tick t)
{
    while (numPending != 0) {
        const std::uint32_t idx = peekMin();
        if (slotAt(idx).when > t)
            break;
        fire(idx);
    }
    if (curTick < t)
        curTick = t;
}

void
EventQueue::run()
{
    while (step()) {
    }
}

bool
EventQueue::run(std::uint64_t max_events)
{
    for (std::uint64_t i = 0; i < max_events; ++i) {
        if (!step())
            return true;
    }
    return numPending == 0;
}

} // namespace pmemspec::sim
