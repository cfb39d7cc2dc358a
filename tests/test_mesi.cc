/** Integration tests: MESI end-to-end flows through a full System. */

#include <gtest/gtest.h>

#include "protocol/mesi/mesi_dir.hh"
#include "protocol/mesi/mesi_l1.hh"
#include "script_workload.hh"
#include "system/system.hh"

namespace wastesim
{

namespace
{

SimParams
smallParams()
{
    return SimParams::scaled();
}

const MesiL1 &
mesiL1Of(System &sys, CoreId c)
{
    return dynamic_cast<const MesiL1 &>(sys.l1(c));
}

} // namespace

TEST(Mesi, ColdLoadFetchesFromMemory)
{
    ScriptWorkload wl;
    const Addr a = wl.alloc(4096);
    wl.load(0, a);
    wl.finish();

    System sys(ProtocolName::MESI, wl, smallParams());
    const RunResult r = sys.run();
    EXPECT_EQ(r.dramReads, 1u);
    EXPECT_EQ(mesiL1Of(sys, 0).loadMisses(), 1u);
    // Fresh line with no sharers: E grant.
    const MesiL1Line *cl = mesiL1Of(sys, 0).array().find(lineAddr(a));
    ASSERT_NE(cl, nullptr);
    EXPECT_EQ(cl->mesi, MesiState::E);
    // GetS + response + unblock appear in traffic.
    EXPECT_GT(r.traffic.ldReqCtl, 0.0);
    EXPECT_GT(r.traffic.ohUnblock, 0.0);
}

TEST(Mesi, SecondReaderHitsInL2)
{
    ScriptWorkload wl;
    const Addr a = wl.alloc(4096);
    wl.load(0, a); // E grant
    wl.barrierAll({});
    wl.load(1, a); // served by owner forward; downgrades to S
    wl.barrierAll({});
    wl.load(2, a); // no owner anymore: served from the L2
    wl.finish();

    System sys(ProtocolName::MESI, wl, smallParams());
    const RunResult r = sys.run();
    EXPECT_EQ(r.dramReads, 1u); // one memory fetch total
    // The third reader was served by the L2 -> L2 reuse (Used).
    EXPECT_GT(r.l2Waste[WasteCat::Used], 0.0);
}

TEST(Mesi, LoadHitAfterFill)
{
    ScriptWorkload wl;
    const Addr a = wl.alloc(4096);
    wl.load(0, a);
    wl.load(0, a + 4);
    wl.finish();

    System sys(ProtocolName::MESI, wl, smallParams());
    sys.run();
    EXPECT_EQ(mesiL1Of(sys, 0).loadMisses(), 1u);
    EXPECT_EQ(mesiL1Of(sys, 0).loadHits(), 1u);
}

TEST(Mesi, StoreMissFetchesLine)
{
    // MESI is fetch-on-write: a cold store still reads memory.
    ScriptWorkload wl;
    const Addr a = wl.alloc(4096);
    wl.store(0, a);
    wl.finish();

    System sys(ProtocolName::MESI, wl, smallParams());
    const RunResult r = sys.run();
    EXPECT_EQ(r.dramReads, 1u);
    const MesiL1Line *cl = mesiL1Of(sys, 0).array().find(lineAddr(a));
    ASSERT_NE(cl, nullptr);
    EXPECT_EQ(cl->mesi, MesiState::M);
    // The overwritten word is Write waste at the L1.
    EXPECT_EQ(r.l1Waste[WasteCat::Write], 1.0);
}

TEST(Mesi, UpgradeInvalidatesSharers)
{
    ScriptWorkload wl;
    const Addr a = wl.alloc(4096);
    wl.load(0, a);
    wl.load(1, a);
    wl.barrierAll({});
    wl.store(0, a); // S -> M upgrade, invalidating core 1
    wl.finish();

    System sys(ProtocolName::MESI, wl, smallParams());
    const RunResult r = sys.run();
    EXPECT_GT(r.traffic.ohInv, 0.0);
    EXPECT_GT(r.traffic.ohAck, 0.0);
    const MesiL1Line *c1 = mesiL1Of(sys, 1).array().find(lineAddr(a));
    EXPECT_TRUE(!c1 || !c1->valid || c1->mesi == MesiState::I);
    // Core 1's fetched words were invalidated before reuse.
    EXPECT_GT(r.l1Waste[WasteCat::Invalidate], 0.0);
}

TEST(Mesi, OwnerForwardServesDirtyData)
{
    ScriptWorkload wl;
    const Addr a = wl.alloc(4096);
    wl.store(0, a);
    wl.barrierAll({});
    wl.load(1, a);
    wl.finish();

    System sys(ProtocolName::MESI, wl, smallParams());
    const RunResult r = sys.run();
    // Exactly one memory fetch (core 0's); core 1 is served by the
    // owner forward.
    EXPECT_EQ(r.dramReads, 1u);
    const MesiL1Line *c0 = mesiL1Of(sys, 0).array().find(lineAddr(a));
    ASSERT_NE(c0, nullptr);
    EXPECT_EQ(c0->mesi, MesiState::S); // downgraded
    const MesiL1Line *c1 = mesiL1Of(sys, 1).array().find(lineAddr(a));
    ASSERT_NE(c1, nullptr);
    EXPECT_EQ(c1->mesi, MesiState::S);
    sys.checkInvariants();
}

TEST(Mesi, FwdGetXTransfersOwnership)
{
    ScriptWorkload wl;
    const Addr a = wl.alloc(4096);
    wl.store(0, a);
    wl.barrierAll({});
    wl.store(1, a + 4);
    wl.finish();

    System sys(ProtocolName::MESI, wl, smallParams());
    sys.run();
    const MesiL1Line *c1 = mesiL1Of(sys, 1).array().find(lineAddr(a));
    ASSERT_NE(c1, nullptr);
    EXPECT_EQ(c1->mesi, MesiState::M);
    // Core 0's copy must be gone (single-owner invariant).
    sys.checkInvariants();
}

TEST(MesiDeath, OwnerWithSharersFailsInvariant)
{
    // The directory clears a line's sharer bits whenever it records an
    // owner, so an owned line with a sharer bit is corrupt.
    ScriptWorkload wl;
    const Addr a = wl.alloc(4096);
    wl.store(0, a);
    wl.finish();

    const SimParams params = smallParams();
    System sys(ProtocolName::MESI, wl, params);
    sys.run();
    const Addr la = lineAddr(a);
    const MesiDirLine *cl =
        sys.mesiDir(params.topo.homeSlice(la))->array().find(la);
    ASSERT_NE(cl, nullptr);
    ASSERT_EQ(cl->owner, 0u);
    ASSERT_TRUE(cl->sharers.none());
    sys.checkInvariants(); // the uncorrupted line passes

    const_cast<MesiDirLine *>(cl)->sharers.set(1);
    EXPECT_DEATH(sys.checkInvariants(), "has owner 0 and sharers");
}

TEST(Mesi, CapacityEvictionWritesBack)
{
    // Dirty lines pushed out of the 4 KB L1 produce PutX traffic and
    // clean ones PutS overhead.
    ScriptWorkload wl;
    const Addr a = wl.alloc(64 * 1024);
    for (unsigned i = 0; i < 128; ++i)
        wl.store(0, a + i * bytesPerLine);
    wl.finish();

    System sys(ProtocolName::MESI, wl, smallParams());
    const RunResult r = sys.run();
    EXPECT_GT(r.traffic.wbControl, 0.0);
    EXPECT_GT(r.traffic.wbL2Used, 0.0);  // the stored words
    EXPECT_GT(r.traffic.wbL2Waste, 0.0); // their 15 clean neighbors
}

TEST(Mesi, L2EvictionRecallsAndWritesToMemory)
{
    // Blow out the 512 KB L2 with dirty lines: recalls + MemWrites.
    ScriptWorkload wl;
    const Addr a = wl.alloc(2 * 1024 * 1024);
    for (unsigned i = 0; i < 2 * 1024 * 1024 / bytesPerLine; i += 1)
        wl.store(0, a + static_cast<Addr>(i) * bytesPerLine);
    wl.finish();

    System sys(ProtocolName::MESI, wl, smallParams());
    const RunResult r = sys.run();
    EXPECT_GT(r.dramWrites, 0u);
    EXPECT_GT(r.traffic.wbMemUsed, 0.0);
    EXPECT_GT(r.traffic.wbMemWaste, 0.0); // full-line WBs
}

TEST(Mesi, MMemL1SkipsStoreDataToL2)
{
    auto run_store_heavy = [](ProtocolName p) {
        ScriptWorkload wl;
        const Addr a = wl.alloc(256 * 1024);
        for (unsigned i = 0; i < 1024; ++i)
            wl.store(0, a + static_cast<Addr>(i) * bytesPerLine);
        wl.finish();
        System sys(p, wl, smallParams());
        return sys.run();
    };
    const RunResult base = run_store_heavy(ProtocolName::MESI);
    const RunResult opt = run_store_heavy(ProtocolName::MMemL1);
    // "Resp L2" store data exists in MESI, eliminated in MMemL1
    // (Section 5.2.2, 16.9% average saving).
    EXPECT_GT(base.traffic.stRespL2Used + base.traffic.stRespL2Waste,
              0.0);
    EXPECT_DOUBLE_EQ(
        opt.traffic.stRespL2Used + opt.traffic.stRespL2Waste, 0.0);
    EXPECT_LT(opt.traffic.store(), base.traffic.store());
}

TEST(Mesi, MMemL1TurnsUnblocksIntoLoadTraffic)
{
    auto run_load_heavy = [](ProtocolName p) {
        ScriptWorkload wl;
        const Addr a = wl.alloc(256 * 1024);
        for (unsigned i = 0; i < 1024; ++i)
            wl.load(0, a + static_cast<Addr>(i) * bytesPerLine);
        wl.finish();
        System sys(p, wl, smallParams());
        return sys.run();
    };
    const RunResult base = run_load_heavy(ProtocolName::MESI);
    const RunResult opt = run_load_heavy(ProtocolName::MMemL1);
    // Unblock+data replaces plain unblocks: less overhead.
    EXPECT_LT(opt.traffic.ohUnblock, base.traffic.ohUnblock);
    // And the memory hit latency shrinks.
    EXPECT_LT(opt.time.total(), base.time.total());
}

TEST(Mesi, OverheadCompositionShape)
{
    // Section 5.2.4: unblocks dominate MESI overhead.
    auto wl = makeRandomWorkload(7);
    System sys(ProtocolName::MESI, *wl, smallParams());
    const RunResult r = sys.run();
    EXPECT_GT(r.traffic.overhead(), 0.0);
    EXPECT_GT(r.traffic.ohUnblock, r.traffic.ohInv);
    EXPECT_GT(r.traffic.ohUnblock, r.traffic.ohAck);
}

} // namespace wastesim
