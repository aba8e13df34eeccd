/**
 * @file
 * Unit tests for the TPC-C subset and the NEW_ORDER transaction.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "pmds/tpcc.hh"
#include "runtime/fase_runtime.hh"
#include "runtime/virtual_os.hh"

using namespace pmemspec;
using pmds::OrderLineReq;
using pmds::TpccConfig;
using pmds::TpccDb;
using runtime::FaseRuntime;
using runtime::PersistentMemory;
using runtime::RecoveryPolicy;
using runtime::Transaction;
using runtime::VirtualOs;

namespace
{

struct Harness
{
    PersistentMemory pm{1 << 25};
    VirtualOs os;
    TpccConfig cfg;
    TpccDb db;
    FaseRuntime rt{pm, os, 1, RecoveryPolicy::Lazy, 1 << 17};

    Harness() : cfg(makeCfg()), db(pm, cfg) {}

    static TpccConfig
    makeCfg()
    {
        TpccConfig c;
        c.districts = 10;
        c.customersPerDistrict = 16;
        c.items = 128;
        c.maxOrders = 1 << 14;
        return c;
    }

    std::uint64_t
    newOrder(unsigned d, unsigned c,
             const std::vector<OrderLineReq> &lines)
    {
        std::uint64_t o_id = 0;
        rt.runFase(0, [&](Transaction &tx) {
            o_id = db.newOrder(tx, d, c, lines);
        });
        return o_id;
    }
};

std::vector<OrderLineReq>
lines(std::initializer_list<std::pair<unsigned, unsigned>> reqs)
{
    std::vector<OrderLineReq> out;
    for (auto [item, qty] : reqs)
        out.push_back(OrderLineReq{item, qty});
    return out;
}

} // namespace

TEST(Tpcc, FreshDatabaseIsConsistent)
{
    Harness h;
    EXPECT_EQ(h.db.ordersPlaced(), 0u);
    EXPECT_EQ(h.db.nextOrderId(0), 1u);
    EXPECT_TRUE(h.db.checkInvariants());
}

TEST(Tpcc, NewOrderAssignsSequentialIds)
{
    Harness h;
    auto l = lines({{1, 2}, {2, 1}, {3, 1}, {4, 1}, {5, 1}});
    EXPECT_EQ(h.newOrder(0, 0, l), 1u);
    EXPECT_EQ(h.newOrder(0, 0, l), 2u);
    EXPECT_EQ(h.newOrder(1, 0, l), 1u); // districts are independent
    EXPECT_EQ(h.db.ordersPlaced(), 3u);
    EXPECT_TRUE(h.db.checkInvariants());
}

TEST(Tpcc, StockDecreasesByOrderedQuantity)
{
    Harness h;
    const auto before = h.db.totalStock();
    h.newOrder(0, 0, lines({{1, 3}, {2, 4}, {3, 1}, {4, 1}, {5, 1}}));
    EXPECT_EQ(h.db.totalStock(), before - 10);
}

TEST(Tpcc, StockReplenishesNearZero)
{
    // TPC-C: when quantity would drop below 10, add 91.
    Harness h;
    auto l = lines({{7, 9}, {1, 1}, {2, 1}, {3, 1}, {4, 1}});
    // Item 7 starts at 10000; order 9 units 1110 times to approach 10.
    for (int i = 0; i < 1110; ++i)
        h.newOrder(0, 0, l);
    EXPECT_TRUE(h.db.checkInvariants());
    // Total stock stays positive thanks to replenishment.
    EXPECT_GT(h.db.totalStock(), 0u);
}

TEST(Tpcc, AbortedNewOrderRollsBackEverything)
{
    Harness h;
    const auto stock = h.db.totalStock();
    int runs = 0;
    h.rt.runFase(0, [&](Transaction &tx) {
        if (++runs == 1) {
            h.db.newOrder(tx, 2, 3,
                          {{1, 2}, {2, 2}, {3, 2}, {4, 2}, {5, 2}});
            h.os.raiseMisspecInterrupt(1);
        }
    });
    EXPECT_EQ(h.db.ordersPlaced(), 0u);
    EXPECT_EQ(h.db.nextOrderId(2), 1u);
    EXPECT_EQ(h.db.totalStock(), stock);
    EXPECT_TRUE(h.db.checkInvariants());
}

TEST(Tpcc, RandomLinesAreWellFormed)
{
    Harness h;
    Rng rng(37);
    for (int i = 0; i < 100; ++i) {
        auto l = h.db.randomLines(rng);
        ASSERT_GE(l.size(), 5u);
        ASSERT_LE(l.size(), 15u);
        for (const auto &req : l) {
            ASSERT_LT(req.itemId, h.cfg.items);
            ASSERT_GE(req.quantity, 1u);
            ASSERT_LE(req.quantity, 10u);
        }
    }
}

TEST(Tpcc, ManyRandomOrdersKeepInvariants)
{
    Harness h;
    Rng rng(41);
    for (int i = 0; i < 300; ++i) {
        const auto d = static_cast<unsigned>(rng.below(10));
        const auto c = static_cast<unsigned>(rng.below(16));
        h.newOrder(d, c, h.db.randomLines(rng));
    }
    EXPECT_EQ(h.db.ordersPlaced(), 300u);
    EXPECT_TRUE(h.db.checkInvariants());
}

TEST(Tpcc, BytesForSizesTheArenaExactly)
{
    // The 7,000-FASE/thread configuration genTpcc builds for 8
    // threads: 10 districts, 64 orders of headroom per district.
    TpccConfig cfg;
    cfg.districts = 10;
    cfg.maxOrders = cfg.districts * (7000 + 64);
    const std::size_t need = TpccDb::bytesFor(cfg);

    // An arena of exactly bytesFor(cfg) holds the database...
    PersistentMemory pm(PersistentMemory::reservedBytes + need);
    TpccDb db(pm, cfg);
    EXPECT_EQ(pm.remaining(), 0u);
    EXPECT_TRUE(db.checkInvariants());
    // ...and one byte less does not.
    EXPECT_DEATH(
        {
            PersistentMemory small(PersistentMemory::reservedBytes +
                                   need - 1);
            TpccDb tooBig(small, cfg);
        },
        "PM arena exhausted");

    // The sizing bytesFor replaced, maxOrders x 384 B + 48 MiB for
    // the database and 8 threads' 64 KiB undo logs, falls short.
    EXPECT_DEATH(
        {
            PersistentMemory old(std::size_t{cfg.maxOrders} * 384 +
                                 (48u << 20));
            VirtualOs os;
            FaseRuntime rt(old, os, 8, RecoveryPolicy::Lazy, 1 << 16);
            TpccDb tooBig(old, cfg);
        },
        "PM arena exhausted");
}
