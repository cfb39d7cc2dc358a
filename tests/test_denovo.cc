/** Integration tests: DeNovo end-to-end flows through a full System. */

#include <gtest/gtest.h>

#include "protocol/denovo/denovo_l1.hh"
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

const DenovoL1 &
dnL1Of(System &sys, CoreId c)
{
    return dynamic_cast<const DenovoL1 &>(sys.l1(c));
}

RunResult
runWl(ProtocolName p, const Workload &wl)
{
    System sys(p, wl, smallParams());
    return sys.run();
}

} // namespace

TEST(DeNovo, WriteValidateStoresDoNotFetchAtL1)
{
    // A cold store allocates locally; only the L2's fetch-on-write
    // (baseline) touches memory, and the L1 never receives data.
    ScriptWorkload wl;
    const Addr a = wl.alloc(4096);
    wl.store(0, a);
    wl.finish();

    const RunResult r = runWl(ProtocolName::DeNovo, wl);
    EXPECT_DOUBLE_EQ(r.traffic.stRespL1Used + r.traffic.stRespL1Waste,
                     0.0);
    EXPECT_EQ(r.l1Waste.total(), 0.0); // nothing fetched into the L1
    // Baseline L2 fetch-on-write: one memory read, profiled as
    // store-class L2 data.
    EXPECT_EQ(r.dramReads, 1u);
    EXPECT_GT(r.traffic.stRespL2Used + r.traffic.stRespL2Waste, 0.0);
}

TEST(DeNovo, L2WriteValidateEliminatesFetchOnWrite)
{
    ScriptWorkload wl;
    const Addr a = wl.alloc(4096);
    wl.store(0, a);
    wl.finish();

    const RunResult r = runWl(ProtocolName::DValidateL2, wl);
    EXPECT_EQ(r.dramReads, 0u); // no fetch at all
    EXPECT_DOUBLE_EQ(r.traffic.stRespL2Used + r.traffic.stRespL2Waste,
                     0.0);
}

TEST(DeNovo, RegistrationTraffic)
{
    ScriptWorkload wl;
    const Addr a = wl.alloc(4096);
    wl.store(0, a);
    wl.finish();

    const RunResult r = runWl(ProtocolName::DValidateL2, wl);
    // One registration request + ack, both control-sized.
    EXPECT_GT(r.traffic.stReqCtl, 0.0);
    EXPECT_GT(r.traffic.stRespCtl, 0.0);
    // DeNovo overhead is (near) zero: no unblocks, invs, acks.
    EXPECT_DOUBLE_EQ(r.traffic.ohUnblock, 0.0);
    EXPECT_DOUBLE_EQ(r.traffic.ohInv, 0.0);
}

TEST(DeNovo, WriteCombiningBatchesLineRegistrations)
{
    // 16 stores to one line: one combined registration message.
    ScriptWorkload wl;
    const Addr a = wl.alloc(4096);
    for (unsigned w = 0; w < wordsPerLine; ++w)
        wl.store(0, a + w * bytesPerWord);
    wl.finish();

    ScriptWorkload wl2;
    const Addr b = wl2.alloc(4096);
    for (unsigned i = 0; i < wordsPerLine; ++i)
        wl2.store(0, b + i * bytesPerLine); // 16 different lines
    wl2.finish();

    const RunResult combined = runWl(ProtocolName::DValidateL2, wl);
    const RunResult scattered = runWl(ProtocolName::DValidateL2, wl2);
    EXPECT_LT(combined.traffic.stReqCtl, scattered.traffic.stReqCtl);
}

TEST(DeNovo, ReaderGetsForwardFromRegistrant)
{
    ScriptWorkload wl;
    const Addr a = wl.alloc(4096);
    wl.store(0, a);
    wl.barrierAll({});
    wl.load(1, a);
    wl.finish();

    const RunResult r = runWl(ProtocolName::DValidateL2, wl);
    // The registered word comes from core 0's copy; only the other
    // 15 words of the line are fetched from memory (the MC's dirty
    // filter excludes the registered one).
    EXPECT_EQ(r.wordsFromMemory, 15u);
    EXPECT_GT(r.traffic.ldRespL1Used, 0.0);
}

TEST(DeNovo, SelfInvalidationDropsPhaseData)
{
    ScriptWorkload wl;
    const Addr a = wl.alloc(4096);
    Region reg;
    reg.name = "shared";
    reg.base = a;
    reg.size = 4096;
    const RegionId rid = wl.regionTable().add(reg);

    wl.load(1, a); // core 1 caches the word
    wl.barrierAll({rid});
    wl.finish();

    System sys(ProtocolName::DValidateL2, wl, smallParams());
    const RunResult r = sys.run();
    EXPECT_GT(r.selfInvalidations, 0u);
    // Core 1's copy is gone after the barrier.
    const DenovoL1Line *cl = dnL1Of(sys, 1).array().find(lineAddr(a));
    EXPECT_TRUE(!cl || !cl->valid ||
                !cl->validWords.test(wordIndex(a)));
    EXPECT_GT(r.l1Waste[WasteCat::Invalidate] +
                  r.l1Waste[WasteCat::Used],
              0.0);
}

TEST(DeNovo, RegistrationStealsStaleCopy)
{
    // Cross-phase write to a word another core registered earlier.
    ScriptWorkload wl;
    const Addr a = wl.alloc(4096);
    wl.store(0, a);
    wl.barrierAll({});
    wl.store(1, a);
    wl.finish();

    System sys(ProtocolName::DValidateL2, wl, smallParams());
    sys.run();
    sys.checkInvariants(); // word registered to exactly one L1
    const DenovoL1Line *c0 = dnL1Of(sys, 0).array().find(lineAddr(a));
    EXPECT_TRUE(!c0 || !c0->regWords.test(wordIndex(a)));
}

TEST(DeNovo, EvictionWritesBackDirtyWordsOnly)
{
    // Dirty evictions carry only written words (no clean filler).
    ScriptWorkload wl;
    const Addr a = wl.alloc(64 * 1024);
    for (unsigned i = 0; i < 128; ++i)
        wl.store(0, a + static_cast<Addr>(i) * bytesPerLine); // 1 word
    wl.finish();

    const RunResult r = runWl(ProtocolName::DValidateL2, wl);
    EXPECT_GT(r.traffic.wbL2Used, 0.0);
    EXPECT_DOUBLE_EQ(r.traffic.wbL2Waste, 0.0);
}

TEST(DeNovo, DirtyWordsOnlyMemWriteback)
{
    // Push dirty words through the L2 to memory; with DValidateL2 the
    // memory writeback carries no unmodified words.
    ScriptWorkload wl;
    const Addr a = wl.alloc(2 * 1024 * 1024);
    for (Addr off = 0; off < 2 * 1024 * 1024; off += bytesPerLine)
        wl.store(0, a + off);
    wl.finish();

    const RunResult base = runWl(ProtocolName::DeNovo, wl);
    const RunResult opt = runWl(ProtocolName::DValidateL2, wl);
    EXPECT_GT(base.traffic.wbMemWaste, 0.0); // full-line WBs
    EXPECT_DOUBLE_EQ(opt.traffic.wbMemWaste, 0.0);
}

TEST(DeNovo, FlexFetchesOnlyUsedFields)
{
    auto build = [](ScriptWorkload &wl, bool flex) {
        const Addr a = wl.alloc(64 * 1024);
        Region r;
        r.name = "structs";
        r.base = a;
        r.size = 64 * 1024;
        if (flex) {
            r.flex = true;
            r.strideWords = 16;
            r.usedFields = {0, 1, 2, 3}; // 4 of 16 words used
        }
        wl.regionTable().add(r);
        for (unsigned s = 0; s < 64; ++s)
            for (unsigned f = 0; f < 4; ++f)
                wl.load(0, a + (s * 16 + f) * bytesPerWord);
        wl.finish();
    };

    ScriptWorkload plain, flexed;
    build(plain, false);
    build(flexed, true);
    const RunResult base = runWl(ProtocolName::DeNovo, plain);
    const RunResult flex = runWl(ProtocolName::DFlexL1, flexed);
    // Flex avoids moving the 12 unused words of each struct on chip.
    EXPECT_LT(flex.traffic.ldRespL1Used + flex.traffic.ldRespL1Waste,
              base.traffic.ldRespL1Used + base.traffic.ldRespL1Waste);
    EXPECT_LT(flex.l1Waste[WasteCat::Evict] +
                  flex.l1Waste[WasteCat::Unevicted],
              base.l1Waste[WasteCat::Evict] +
                  base.l1Waste[WasteCat::Unevicted]);
}

TEST(DeNovo, ResponseBypassKeepsDataOutOfL2)
{
    auto build = [](ScriptWorkload &wl, bool bypass) {
        const Addr a = wl.alloc(256 * 1024);
        Region r;
        r.name = "stream";
        r.base = a;
        r.size = 256 * 1024;
        r.bypass = bypass;
        wl.regionTable().add(r);
        // Stream it once.
        for (Addr off = 0; off < 256 * 1024; off += bytesPerWord)
            wl.load(0, a + off);
        wl.finish();
    };

    ScriptWorkload cached, bypassed;
    build(cached, false);
    build(bypassed, true);
    const RunResult base = runWl(ProtocolName::DFlexL2, cached);
    const RunResult byp = runWl(ProtocolName::DBypL2, bypassed);
    // Bypassed streams leave (almost) nothing in the L2.
    EXPECT_LT(byp.l2Waste.total(), base.l2Waste.total() * 0.2);
}

TEST(DeNovo, RequestBypassGoesStraightToMemory)
{
    ScriptWorkload wl;
    const Addr a = wl.alloc(256 * 1024);
    Region r;
    r.name = "stream";
    r.base = a;
    r.size = 256 * 1024;
    r.bypass = true;
    wl.regionTable().add(r);
    for (Addr off = 0; off < 256 * 1024; off += bytesPerWord)
        wl.load(0, a + off);
    wl.finish();

    System sys(ProtocolName::DBypFull, wl, smallParams());
    const RunResult r2 = sys.run();
    EXPECT_GT(r2.bypassDirect, 0u);
    EXPECT_GT(r2.traffic.ohBloom, 0.0); // filter copy traffic
    // Direct requests save load request flit-hops vs. DBypL2.
    System sys2(ProtocolName::DBypL2, wl, smallParams());
    const RunResult base = sys2.run();
    EXPECT_LT(r2.traffic.ldReqCtl, base.traffic.ldReqCtl);
}

TEST(DeNovo, WriteCombineTimersDoNotAccumulate)
{
    // A write-combining entry that leaves before its timeout cancels
    // its timer, so the event arena's high water stays within one
    // timer per table entry plus the run's in-flight events, not one
    // record per entry created in the last timeout window.
    const SimParams params = smallParams();
    auto wl = makeBenchmark(BenchmarkName::FFT, 1, params.topo);
    const std::size_t bound =
        std::size_t(params.topo.numTiles()) * params.writeBufferEntries;
    for (ProtocolName p : {ProtocolName::DeNovo, ProtocolName::DBypFull}) {
        System sys(p, *wl, params);
        sys.run();
        EXPECT_LE(sys.eventQueue().pooledEntries(), bound)
            << protocolName(p);
    }
}

TEST(DeNovo, BloomStorageOnlyWithRequestBypass)
{
    // Only DBypFull reads the Bloom filters; every other DeNovo-family
    // protocol allocates none, at the L2 slices or the L1 shadows.
    ScriptWorkload wl;
    wl.load(0, wl.alloc(64));
    wl.finish();
    const SimParams params = smallParams();
    ASSERT_GT(params.bloomFilters, 0u);
    for (ProtocolName p :
         {ProtocolName::DeNovo, ProtocolName::DFlexL1,
          ProtocolName::DValidateL2, ProtocolName::DMemL1,
          ProtocolName::DFlexL2, ProtocolName::DBypL2,
          ProtocolName::DBypFull}) {
        System sys(p, wl, params);
        const unsigned want =
            p == ProtocolName::DBypFull ? params.bloomFilters : 0;
        for (NodeId s = 0; s < params.topo.numTiles(); ++s)
            ASSERT_EQ(sys.denovoL2(s)->bloom().numFilters(), want)
                << protocolName(p) << " slice " << s;
        for (CoreId c = 0; c < params.topo.numTiles(); ++c)
            ASSERT_EQ(dnL1Of(sys, c).bloom().numFilters(), want)
                << protocolName(p) << " L1 " << c;
    }
}

TEST(DeNovo, RequestBypassSafety)
{
    // A line with dirty data on-chip must NOT be fetched from memory
    // even in a bypass region: the Bloom filter routes it via the L2.
    ScriptWorkload wl;
    const Addr a = wl.alloc(4096);
    Region r;
    r.name = "byp";
    r.base = a;
    r.size = 4096;
    r.bypass = true;
    wl.regionTable().add(r);

    wl.store(0, a);
    wl.barrierAll({});
    wl.load(1, a); // must see core 0's registered copy
    wl.finish();

    System sys(ProtocolName::DBypFull, wl, smallParams());
    const RunResult res = sys.run();
    // The registered word itself must come from the registrant's
    // copy, never from memory: the Bloom filter forces the request
    // through the L2, whose dirty filter excludes the word.
    EXPECT_LE(res.wordsFromMemory, 15u);
    EXPECT_GT(res.traffic.ldRespL1Used, 0.0);
}

TEST(DeNovo, BarnesStyleFlexSavesTraffic)
{
    // Cross-check the whole stack on the actual barnes workload.
    auto wl = makeBenchmark(BenchmarkName::Barnes);
    const RunResult base = runWl(ProtocolName::DeNovo, *wl);
    const RunResult flex = runWl(ProtocolName::DFlexL1, *wl);
    EXPECT_LT(flex.traffic.load(), base.traffic.load());
}

} // namespace wastesim
