/**
 * @file
 * Allocation bound on the timing engine's hot path.
 *
 * Counts global operator new calls made inside cpu::Machine::run and
 * asserts that they do not grow with run length: the event loop,
 * continuations, MSHRs, waiter lists and queues must recycle their
 * storage, so going from 50 to 200 FASEs per thread adds millions of
 * events but only a handful of one-off growth steps (tables that
 * double while the working set is still warming up). Allocation
 * counts are exact and host-independent, so the bound is too.
 *
 * Sanitizer runtimes replace operator new themselves; the test is
 * skipped there.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "core/experiment.hh"
#include "cpu/machine.hh"
#include "persistency/lowering.hh"
#include "workloads/workload.hh"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PMEMSPEC_NEW_REPLACED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define PMEMSPEC_NEW_REPLACED 1
#endif
#endif

namespace
{

std::atomic<bool> counting{false};
std::atomic<std::uint64_t> allocations{0};

} // namespace

#ifndef PMEMSPEC_NEW_REPLACED

namespace
{

void *
countedAlloc(std::size_t n)
{
    if (counting.load(std::memory_order_relaxed))
        allocations.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(n ? n : 1);
}

void *
countedAlignedAlloc(std::size_t n, std::align_val_t al)
{
    if (counting.load(std::memory_order_relaxed))
        allocations.fetch_add(1, std::memory_order_relaxed);
    // aligned_alloc wants a non-zero multiple of the alignment.
    const auto a = static_cast<std::size_t>(al);
    return std::aligned_alloc(a, n ? (n + a - 1) / a * a : a);
}

} // namespace

void *
operator new(std::size_t n)
{
    if (void *p = countedAlloc(n))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    return operator new(n);
}

void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    return countedAlloc(n);
}

void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    return countedAlloc(n);
}

void *
operator new(std::size_t n, std::align_val_t al)
{
    if (void *p = countedAlignedAlloc(n, al))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n, std::align_val_t al)
{
    return operator new(n, al);
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

#endif // PMEMSPEC_NEW_REPLACED

using namespace pmemspec;
using persistency::Design;

namespace
{

/**
 * Extra allocations a 200-FASE/thread run may make over a 50-FASE
 * one. The only growth left on the hot path is amortised doubling of
 * tables whose live set is still warming up (block automata, sharer
 * directory, lock state, recycled waiter pools); anything per event
 * or per FASE would add thousands.
 */
constexpr std::int64_t kMaxExtraAllocations = 64;

struct RunCount
{
    std::uint64_t allocations = 0;
    std::uint64_t events = 0;
};

/** One Figure 9 TPCC point (Table 3 machine, 8 cores). */
[[maybe_unused]] RunCount
countRun(Design d, std::uint64_t ops_per_thread)
{
    cpu::MachineConfig mc = core::defaultMachineConfig(8);
    mc.design = d;
    mc.mem.l1ToLlcExtra = d == Design::HOPS ? nsToTicks(1.0) : 0;
    workloads::WorkloadParams params;
    params.numThreads = 8;
    params.opsPerThread = ops_per_thread;
    std::vector<cpu::Trace> traces;
    for (const auto &lt :
         workloads::generateTraces(workloads::BenchId::Tpcc, params))
        traces.push_back(persistency::lower(lt, d));

    cpu::Machine m(mc);
    m.setTraces(std::move(traces));
    allocations.store(0);
    counting.store(true);
    const cpu::RunResult r = m.run();
    counting.store(false);
    return RunCount{allocations.load(), r.events};
}

} // namespace

TEST(HotPathAlloc, RunAllocationsDoNotGrowWithRunLength)
{
#ifdef PMEMSPEC_NEW_REPLACED
    GTEST_SKIP() << "sanitizer runtime replaces operator new";
#else
    for (Design d : {Design::IntelX86, Design::DPO, Design::HOPS,
                     Design::PmemSpec}) {
        SCOPED_TRACE(persistency::designName(d));
        const RunCount shortRun = countRun(d, 50);
        const RunCount longRun = countRun(d, 200);
        const auto extra = static_cast<std::int64_t>(longRun.allocations) -
                           static_cast<std::int64_t>(shortRun.allocations);
        const auto extraEvents = static_cast<std::int64_t>(longRun.events) -
                                 static_cast<std::int64_t>(shortRun.events);
        std::printf("%-9s allocs %llu -> %llu, events %llu -> %llu\n",
                    persistency::designName(d).c_str(),
                    static_cast<unsigned long long>(shortRun.allocations),
                    static_cast<unsigned long long>(longRun.allocations),
                    static_cast<unsigned long long>(shortRun.events),
                    static_cast<unsigned long long>(longRun.events));
        EXPECT_GT(extraEvents, 100 * kMaxExtraAllocations);
        EXPECT_LT(extra, kMaxExtraAllocations);
    }
#endif
}

TEST(HotPathAlloc, CounterSeesAllocations)
{
#ifdef PMEMSPEC_NEW_REPLACED
    GTEST_SKIP() << "sanitizer runtime replaces operator new";
#else
    // Guards the harness itself: a counter that never fires would
    // make the bound above vacuous.
    allocations.store(0);
    counting.store(true);
    void *p = ::operator new(32);
    counting.store(false);
    ::operator delete(p);
    EXPECT_EQ(allocations.load(), 1u);
#endif
}
