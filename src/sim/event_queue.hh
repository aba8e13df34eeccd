/**
 * @file
 * Discrete-event simulation kernel.
 *
 * The entire timing model is driven by one EventQueue per simulated
 * machine. Components schedule callables at absolute ticks or relative
 * to now (the unified schedule() overload set below); events at equal
 * ticks execute in insertion order (a stable tie-break keeps the
 * simulation deterministic).
 *
 * The implementation is built for throughput -- the event kernel is
 * the hot loop of every sweep, crash exploration and service run:
 *
 *  - Event records live in a chunked slot arena (stable addresses, no
 *    per-event allocation) with a free list. Callables up to
 *    kInlineBytes are stored inline in the record (small-buffer
 *    optimization); larger ones fall back to one heap box.
 *  - Pending events are organised as a calendar queue: a ring of
 *    power-of-two buckets, each covering one 2^kDayShift-tick "day",
 *    plus a far-future binary heap for events beyond the ring horizon.
 *    A bitmap over the buckets makes "find the next non-empty day" a
 *    couple of word scans. The ring window starts at baseDay, which
 *    never passes the day of now(), so every pending event lies at or
 *    after it.
 *
 * Execution order is the total order (when, seq): identical to the
 * binary-heap kernel this replaces, so simulation results are
 * bit-for-bit unchanged.
 */

#ifndef PMEMSPEC_SIM_EVENT_QUEUE_HH
#define PMEMSPEC_SIM_EVENT_QUEUE_HH

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/types.hh"

namespace pmemspec::sim
{

/**
 * Relative-delay operand of the unified schedule() overload set:
 * schedule(After{d}, f) runs f at now() + d. A distinct type (rather
 * than a second method name) keeps one spelling for "make this happen"
 * and lets call sites switch between absolute and relative scheduling
 * without renaming.
 */
struct After
{
    Tick delta;
};

/** Tick-ordered calendar queue of callables; the heart of the
 *  simulator. */
class EventQueue
{
  public:
    /** Inline storage per event record; callables larger than this are
     *  boxed on the heap. Sized for the memory system's hot closures
     *  (this + core + block + one MemorySystem::Done continuation);
     *  with the 48-byte header a record is 112 bytes. */
    static constexpr std::size_t kInlineBytes = 64;

    /** True when a callable of type F is stored inline (never boxed);
     *  hot call sites static_assert it. */
    template <typename F>
    static constexpr bool storesInline =
        sizeof(std::decay_t<F>) <= kInlineBytes &&
        alignof(std::decay_t<F>) <= alignof(std::max_align_t);

    EventQueue();
    ~EventQueue();

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return curTick; }

    /** Schedule a callable at an absolute tick (>= now). */
    template <typename F>
    void
    schedule(Tick when, F &&f)
    {
        emplace(when, std::forward<F>(f));
    }

    /** Schedule a callable delta ticks from now. */
    template <typename F>
    void
    schedule(After d, F &&f)
    {
        emplace(curTick + d.delta, std::forward<F>(f));
    }

    /** @return true when no events remain. */
    bool empty() const { return numPending == 0; }

    /** Number of pending events. */
    std::size_t pending() const { return numPending; }

    /** Execute the earliest event. @return false if queue was empty. */
    bool step();

    /** Run every event at or before the given tick. */
    void runUntil(Tick t);

    /** Run until the queue drains. */
    void run();

    /** Run until the queue drains or the event budget is exhausted.
     *  @return true if the queue drained. */
    bool run(std::uint64_t max_events);

    /** Total events executed so far. */
    std::uint64_t executed() const { return numExecuted; }

  private:
    static constexpr std::uint32_t kNil = 0xffffffffu;

    /** Calendar geometry: a "day" is 2^kDayShift ticks (~0.25ns), the
     *  ring spans kBuckets days (~1us). Nearly every latency in the
     *  machine (cache hits, device reads, persist paths, speculation
     *  windows) lands inside the ring; only coarse timers (service
     *  arrival processes, fault schedules) take the far heap. Narrow
     *  days keep the sorted per-bucket chains short -- chain walks in
     *  ringInsert dominate the kernel's profile when many same-day
     *  events share a bucket. */
    static constexpr unsigned kDayShift = 8;
    static constexpr std::uint32_t kBuckets = 4096;
    static constexpr std::uint32_t kBucketMask = kBuckets - 1;

    /** Arena chunking: slot i lives at chunks[i >> kChunkShift]. */
    static constexpr unsigned kChunkShift = 8;
    static constexpr std::uint32_t kChunkSlots = 1u << kChunkShift;
    static constexpr std::uint32_t kChunkMask = kChunkSlots - 1;

    /** One arena-resident event record. */
    struct Slot
    {
        Tick when;
        std::uint64_t seq;
        std::uint32_t next; ///< bucket chain link / free-list link
        /** Invoke the stored callable. */
        void (*invoke)(void *);
        /** Destroy the stored callable (null for trivial types). */
        void (*destroy)(void *);
        alignas(std::max_align_t) unsigned char buf[kInlineBytes];
    };

    struct Bucket
    {
        std::uint32_t head = kNil;
        std::uint32_t tail = kNil;
    };

    // --- callable storage -------------------------------------------

    template <typename F>
    static void
    invokeInline(void *p)
    {
        (*static_cast<F *>(p))();
    }

    template <typename F>
    static void
    destroyInline(void *p)
    {
        static_cast<F *>(p)->~F();
    }

    template <typename F>
    static void
    invokeBoxed(void *p)
    {
        F *boxed;
        std::memcpy(&boxed, p, sizeof(boxed));
        (*boxed)();
    }

    template <typename F>
    static void
    destroyBoxed(void *p)
    {
        F *boxed;
        std::memcpy(&boxed, p, sizeof(boxed));
        delete boxed;
    }

    template <typename F>
    void
    emplace(Tick when, F &&f)
    {
        using Fn = std::decay_t<F>;
        checkNotPast(when);
        const std::uint32_t idx = allocSlot();
        Slot &s = slotAt(idx);
        s.when = when;
        s.seq = nextSeq++;
        if constexpr (storesInline<Fn>) {
            ::new (static_cast<void *>(s.buf)) Fn(std::forward<F>(f));
            s.invoke = &invokeInline<Fn>;
            s.destroy = std::is_trivially_destructible_v<Fn>
                            ? nullptr
                            : &destroyInline<Fn>;
        } else {
            Fn *boxed = new Fn(std::forward<F>(f));
            std::memcpy(s.buf, &boxed, sizeof(boxed));
            s.invoke = &invokeBoxed<Fn>;
            s.destroy = &destroyBoxed<Fn>;
        }
        link(idx, s);
    }

    // --- out-of-line machinery (event_queue.cc) ---------------------

    /** panic() unless when >= now (events never fire in the past). */
    void checkNotPast(Tick when) const;

    Slot &slotAt(std::uint32_t i) { return chunks[i >> kChunkShift][i & kChunkMask]; }
    const Slot &slotAt(std::uint32_t i) const
    {
        return chunks[i >> kChunkShift][i & kChunkMask];
    }

    /** Pop a slot off the free list, growing the arena if needed. */
    std::uint32_t allocSlot();

    /** File a freshly initialised slot into the ring or the far heap. */
    void link(std::uint32_t idx, Slot &s);

    /** Sorted insertion into the ring bucket for s.when. */
    void ringInsert(std::uint32_t idx, Slot &s);

    /** Index of the earliest ring event; ring must be non-empty. */
    std::uint32_t findRingMin() const;

    /** Index of the globally earliest pending event; numPending must
     *  be non-zero. */
    std::uint32_t peekMin() const;

    /** Run the pending event idx (the peekMin() result): detach it,
     *  advance now() to its tick, invoke, destroy and free it. */
    void fire(std::uint32_t idx);

    /** The execution order: (when, seq), unique per event. */
    static bool
    before(const Slot &a, const Slot &b)
    {
        return a.when != b.when ? a.when < b.when : a.seq < b.seq;
    }

    /** std heap comparator that keeps the earliest far event at
     *  farHeap.front(). */
    auto
    farOrder() const
    {
        return [this](std::uint32_t a, std::uint32_t b) {
            return before(slotAt(b), slotAt(a));
        };
    }

    void setBit(std::uint32_t bucket);
    void clearBit(std::uint32_t bucket);

    // --- state ------------------------------------------------------

    std::vector<std::unique_ptr<Slot[]>> chunks;
    std::uint32_t freeHead = kNil;

    std::vector<Bucket> buckets;
    /** One bit per bucket: set while the bucket chain is non-empty. */
    std::vector<std::uint64_t> bucketBits;
    /** All ring events have day in [baseDay, baseDay + kBuckets);
     *  baseDay <= day(now) <= the day of every pending event. Only
     *  fire() moves it, to the day of the event it runs. */
    std::uint64_t baseDay = 0;

    /** Far-future events (day >= baseDay + kBuckets at insert time),
     *  as a std heap of slot indices with the (when, seq) minimum at
     *  the front. They run straight from the heap; every other pending
     *  event is in the ring. */
    std::vector<std::uint32_t> farHeap;

    Tick curTick = 0;
    std::uint64_t nextSeq = 0;
    std::uint64_t numExecuted = 0;
    std::size_t numPending = 0;
};

} // namespace pmemspec::sim

namespace pmemspec
{
using sim::After; // as fundamental to components as Tick itself
} // namespace pmemspec

#endif // PMEMSPEC_SIM_EVENT_QUEUE_HH
