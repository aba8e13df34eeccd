/**
 * @file
 * Tests for the exhaustive crash-point explorer: every persistent
 * data structure survives a power cut at *every* durable persist
 * prefix of every operation, and the oracles actually catch a
 * structure that breaks the failure-atomicity contract.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "faultinject/crash_explorer.hh"
#include "faultinject/pmds_workloads.hh"

using namespace pmemspec;
using faultinject::CrashWorkload;
using faultinject::ExploreOptions;
using faultinject::ExploreResult;
using faultinject::exploreCrashPoints;
using faultinject::exploreCrashPointsParallel;
using faultinject::makeStandardWorkloads;
using faultinject::workloadFactory;
using runtime::Transaction;

namespace
{

/** Every field of the two results must match -- the parallel
 *  explorer's contract is bit-equality with the sequential one, not
 *  just the same verdict. */
void
expectSameResult(const ExploreResult &seq, const ExploreResult &par)
{
    EXPECT_EQ(par.workload, seq.workload);
    EXPECT_EQ(par.ops, seq.ops);
    EXPECT_EQ(par.crashPoints, seq.crashPoints);
    EXPECT_EQ(par.tornTrials, seq.tornTrials);
    EXPECT_EQ(par.corruptionReported, seq.corruptionReported);
    EXPECT_EQ(par.failures, seq.failures);
    EXPECT_EQ(par.messages, seq.messages);
    EXPECT_EQ(par.messagesSuppressed, seq.messagesSuppressed);
    EXPECT_EQ(par.reorderWindows, seq.reorderWindows);
    EXPECT_EQ(par.naiveStates, seq.naiveStates);
    EXPECT_EQ(par.reorderStatesExplored, seq.reorderStatesExplored);
    EXPECT_EQ(par.reorderStatesDeduped, seq.reorderStatesDeduped);
    EXPECT_EQ(par.elidedPersists, seq.elidedPersists);
    EXPECT_EQ(par.orderingsCollapsed, seq.orderingsCollapsed);
    EXPECT_EQ(par.imageBlocks, seq.imageBlocks);
}

} // namespace

TEST(CrashExplorer, AllStandardWorkloadsSurviveEveryCrashPoint)
{
    for (const auto &wl : makeStandardWorkloads()) {
        const auto res = exploreCrashPoints(*wl);
        EXPECT_TRUE(res.passed())
            << res.workload << " failed "
            << res.failures << " oracle check(s); first: "
            << (res.messages.empty() ? "?" : res.messages.front());
        EXPECT_EQ(res.ops, wl->numOps()) << res.workload;
        // Every op has at least the log writes plus a data write, so
        // exhaustive enumeration must visit many more crash points
        // than operations.
        EXPECT_GT(res.crashPoints, 4 * res.ops) << res.workload;
    }
}

// Acceptance oracle of the media-fault work: with torn-write mode on,
// every structure still recovers *or* explicitly reports corruption
// at every crash point x torn-frontier-subset combination. Under the
// checksummed undo log no torn frontier is ever mistaken for valid
// state, so in practice all torn trials recover cleanly and no
// corruption verdict fires.
TEST(CrashExplorer, TornWriteModePassesNoSilentCorruptionOracle)
{
    ExploreOptions opts;
    opts.tornWrites = true;
    for (const auto &wl : makeStandardWorkloads()) {
        const auto res = exploreCrashPoints(*wl, opts);
        EXPECT_TRUE(res.passed())
            << res.workload << " failed " << res.failures
            << " oracle check(s); first: "
            << (res.messages.empty() ? "?" : res.messages.front());
        // Multi-word persists exist in every workload (the 64-byte
        // log payloads at minimum), so torn trials must have run.
        EXPECT_GT(res.tornTrials, res.ops) << res.workload;
        EXPECT_EQ(res.corruptionReported, 0u)
            << res.workload
            << ": a pure torn write is always detectable from the "
               "tombstoned frontier and must not trip the fail-safe";
    }
}

namespace
{

/** A deliberately broken structure: one of its two cells is updated
 *  with a raw PM write that bypasses the undo log, so a crash in the
 *  window where that write is durable but the FASE is not violates
 *  all-or-nothing recovery. The explorer must catch it. */
class BuggyWorkload : public faultinject::CrashWorkload
{
  public:
    const char *name() const override { return "buggy_unlogged"; }

    void
    setup(runtime::PersistentMemory &pm_,
          runtime::FaseRuntime &rt) override
    {
        (void)rt;
        pm = &pm_;
        logged = pm->alloc(8, 64);
        unlogged = pm->alloc(8, 64);
        pm->writeU64(logged, 1);
        pm->writeU64(unlogged, 1);
        pm->persistAll();
        modelLogged = modelUnlogged = 1;
    }

    std::size_t numOps() const override { return 1; }

    void
    runOp(Transaction &tx, std::size_t) override
    {
        tx.writeU64(logged, 2);
        pm->writeU64(unlogged, 2); // BUG: bypasses the undo log
    }

    void
    applyToModel(std::size_t) override
    {
        modelLogged = modelUnlogged = 2;
    }

    bool
    matchesModel() const override
    {
        return pm->readU64(logged) == modelLogged &&
               pm->readU64(unlogged) == modelUnlogged;
    }

    bool checkInvariants() const override { return true; }

  private:
    runtime::PersistentMemory *pm = nullptr;
    Addr logged = 0;
    Addr unlogged = 0;
    std::uint64_t modelLogged = 0;
    std::uint64_t modelUnlogged = 0;
};

} // namespace

TEST(CrashExplorer, CatchesUnloggedWrites)
{
    BuggyWorkload wl;
    const auto res = exploreCrashPoints(wl);
    EXPECT_FALSE(res.passed());
    EXPECT_GT(res.failures, 0u);
    ASSERT_FALSE(res.messages.empty());
    EXPECT_NE(res.messages.front().find("atomicity"), std::string::npos);
}

namespace
{

/** Breaks the explorer's dirty-set claim: each run of the op writes
 *  a different block (a FASE that is not deterministic given the PM
 *  state), so trials change blocks the reference run never touched.
 *  The block rewind and the digest would silently go wrong; the
 *  explorer must report it instead. */
class DriftingWorkload : public faultinject::CrashWorkload
{
  public:
    const char *name() const override { return "drifting"; }

    void
    setup(runtime::PersistentMemory &pm,
          runtime::FaseRuntime &rt) override
    {
        (void)rt;
        slots = pm.alloc(64 * slotCount, 64);
        pm.persistAll();
    }

    std::size_t numOps() const override { return 1; }

    void
    runOp(Transaction &tx, std::size_t) override
    {
        const std::uint64_t run = runs++;
        tx.writeU64(slots + 64 * (run % slotCount), run + 1);
    }

    void applyToModel(std::size_t) override {}
    bool matchesModel() const override { return true; }
    bool checkInvariants() const override { return true; }

  private:
    static constexpr std::size_t slotCount = 64;
    Addr slots = 0;
    std::uint64_t runs = 0;
};

} // namespace

TEST(CrashExplorer, ReportsTrialsOutsideTheReferenceDirtySet)
{
    for (const bool reorder : {false, true}) {
        SCOPED_TRACE(reorder);
        DriftingWorkload wl;
        ExploreOptions opts;
        opts.reorderings = reorder;
        const auto res = exploreCrashPoints(wl, opts);
        EXPECT_FALSE(res.passed());
        ASSERT_FALSE(res.messages.empty());
        EXPECT_NE(res.messages.front().find(
                      "outside the operation's dirty set"),
                  std::string::npos)
            << res.messages.front();
    }
}

TEST(CrashExplorer, ExplorationWorkIsProportionalToTheWorkingSet)
{
    // No crash state pays for the whole 2 MiB space: the per-state
    // block work stays far below one image's 32768 blocks.
    ExploreOptions opts;
    opts.reorderings = true;
    opts.tornWrites = true;
    for (const char *name : {"pm_array", "kv_store"}) {
        auto wl = workloadFactory(name)();
        const auto res = exploreCrashPoints(*wl, opts);
        ASSERT_TRUE(res.passed()) << name;
        const std::uint64_t space = wl->pmBytes() / blockBytes;
        EXPECT_GT(res.imageBlocks, 0u) << name;
        EXPECT_LT(res.imageBlocks, space * res.ops) << name;
        EXPECT_LT(res.imageBlocks / res.statesVisited(), 64u) << name;
    }
}

TEST(CrashExplorer, ParallelMatchesSequentialOnPassingWorkloads)
{
    // Per-op domain parallelism with reorder + torn exploration on:
    // every counter and message of the merged result must equal the
    // sequential explorer's, at any thread count, on every crash
    // workload (each replica builds its own PM storage).
    ExploreOptions opts;
    opts.reorderings = true;
    opts.windowDepth = 4;
    opts.tornWrites = true;
    for (const auto &w : faultinject::makeAllWorkloads()) {
        const std::string name = w->name();
        const auto factory = workloadFactory(name);
        ASSERT_TRUE(factory) << name;
        auto wl = factory();
        const ExploreResult seq = exploreCrashPoints(*wl, opts);
        for (unsigned threads : {2u, 4u}) {
            const ExploreResult par =
                exploreCrashPointsParallel(factory, opts, threads);
            SCOPED_TRACE(name + " threads=" + std::to_string(threads));
            expectSameResult(seq, par);
            EXPECT_TRUE(par.passed());
        }
    }
}

TEST(CrashExplorer, ParallelMatchesSequentialOnAFailingWorkload)
{
    // The seeded misordered-undo bug: the parallel explorer must
    // find exactly the same violations (count AND messages) as the
    // sequential one -- the regression that would hide if per-op
    // replicas diverged from the committed-run state.
    ExploreOptions opts;
    opts.reorderings = true;
    opts.windowDepth = 4;
    const auto factory = workloadFactory("misordered_undo");
    ASSERT_TRUE(factory);
    auto wl = factory();
    const ExploreResult seq = exploreCrashPoints(*wl, opts);
    ASSERT_FALSE(seq.passed());
    const ExploreResult par =
        exploreCrashPointsParallel(factory, opts, 4);
    expectSameResult(seq, par);
    EXPECT_FALSE(par.passed());
}

TEST(CrashExplorer, ParallelSingleThreadFallsBackToSequential)
{
    const auto factory = workloadFactory("kv_store");
    ASSERT_TRUE(factory);
    auto wl = factory();
    const ExploreResult seq = exploreCrashPoints(*wl);
    const ExploreResult par =
        exploreCrashPointsParallel(factory, {}, 1);
    expectSameResult(seq, par);
}

TEST(CrashExplorer, WorkloadFactoryKnowsEveryName)
{
    for (const auto &wl : faultinject::makeAllWorkloads()) {
        const auto factory = workloadFactory(wl->name());
        ASSERT_TRUE(factory) << wl->name();
        auto fresh = factory();
        EXPECT_STREQ(fresh->name(), wl->name());
        EXPECT_EQ(fresh->numOps(), wl->numOps());
    }
    EXPECT_FALSE(workloadFactory("no_such_workload"));
}
