/** Unit tests: SyntheticWorkload generator (src/trace/synthetic.*). */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <unordered_set>
#include <utility>

#include "system/runner.hh"
#include "trace/synthetic.hh"

namespace wastesim
{

namespace
{

bool
tracesIdentical(const Workload &a, const Workload &b)
{
    // The trace encoding is canonical: equal bytes mean equal ops.
    return materialize(a).traces == materialize(b).traces;
}

} // namespace

class SynthPatterns
    : public ::testing::TestWithParam<SynthParams::Pattern>
{
};

TEST_P(SynthPatterns, DeterministicForFixedSeed)
{
    SynthParams p;
    p.pattern = GetParam();
    p.seed = 1234;
    p.opsPerCore = 2000;
    auto a = makeSynthetic(p);
    auto b = makeSynthetic(p);
    EXPECT_TRUE(tracesIdentical(*a, *b));
    EXPECT_EQ(a->name(), b->name());
}

TEST_P(SynthPatterns, DifferentSeedsDiffer)
{
    SynthParams p;
    p.pattern = GetParam();
    p.opsPerCore = 2000;
    p.seed = 1;
    auto a = makeSynthetic(p);
    p.seed = 2;
    auto b = makeSynthetic(p);
    EXPECT_FALSE(tracesIdentical(*a, *b));
}

TEST_P(SynthPatterns, WellFormed)
{
    SynthParams p;
    p.pattern = GetParam();
    p.opsPerCore = 1000;
    auto wl = makeSynthetic(p);
    const WholeTraces whole = materialize(*wl);

    ASSERT_EQ(whole.traces.size(), numTiles);

    // Same barrier sequence on every core; exactly one epoch.
    std::vector<std::uint32_t> seq0;
    for (const auto &op : whole.traces[0])
        if (op.type == Op::Type::Barrier)
            seq0.push_back(op.arg);
    EXPECT_EQ(seq0.size(), 1 + p.phases); // warm-up + per-phase
    for (CoreId c = 0; c < numTiles; ++c) {
        std::vector<std::uint32_t> seq;
        unsigned epochs = 0;
        for (const auto &op : whole.traces[c]) {
            if (op.type == Op::Type::Barrier)
                seq.push_back(op.arg);
            epochs += op.type == Op::Type::Epoch;
        }
        EXPECT_EQ(seq, seq0) << "core " << c;
        EXPECT_EQ(epochs, 1u) << "core " << c;
    }

    // Every access is word aligned and inside a declared region.
    for (const auto &t : whole.traces) {
        for (const auto &op : t) {
            if (op.type != Op::Type::Load &&
                op.type != Op::Type::Store)
                continue;
            EXPECT_EQ(op.addr % bytesPerWord, 0u);
            EXPECT_NE(wl->regions().regionOf(op.addr), nullptr);
        }
    }

    // Barrier self-invalidation references real regions.
    for (const auto &b : whole.barriers)
        for (RegionId id : b.selfInvalidate)
            EXPECT_LT(id, wl->regions().numRegions());
}

INSTANTIATE_TEST_SUITE_P(
    AllPatterns, SynthPatterns,
    ::testing::Values(SynthParams::Pattern::Stride,
                      SynthParams::Pattern::Random,
                      SynthParams::Pattern::HotSet),
    [](const auto &info) {
        return std::string(SynthParams::patternName(info.param));
    });

TEST(Synthetic, ReadFractionShapesTheMix)
{
    SynthParams p;
    p.opsPerCore = 4000;
    p.readFraction = 0.9;
    auto reads = makeSynthetic(p);
    p.readFraction = 0.1;
    auto writes = makeSynthetic(p);

    auto count = [](const Workload &wl, Op::Type t) {
        std::size_t n = 0;
        for (const auto &tr : materialize(wl).traces)
            for (const auto &op : tr)
                n += op.type == t;
        return n;
    };

    // Warm-up loads are common to both; the measured mix dominates.
    EXPECT_GT(count(*reads, Op::Type::Load),
              count(*writes, Op::Type::Load));
    EXPECT_LT(count(*reads, Op::Type::Store),
              count(*writes, Op::Type::Store));
}

TEST(Synthetic, SharingDegreePartitionsRegions)
{
    // With degree 4 there are 4 clusters; cores of different clusters
    // must touch disjoint shared regions (8 regions, 2 per cluster).
    SynthParams p;
    p.sharingDegree = 4;
    p.sharedRegions = 8;
    p.opsPerCore = 2000;
    p.sharedFraction = 1.0;
    auto wl = makeSynthetic(p);
    const WholeTraces whole = materialize(*wl);

    std::vector<std::set<RegionId>> touched(numTiles);
    bool past_epoch[numTiles] = {};
    for (CoreId c = 0; c < numTiles; ++c) {
        for (const auto &op : whole.traces[c]) {
            if (op.type == Op::Type::Epoch)
                past_epoch[c] = true;
            if (!past_epoch[c])
                continue;
            if (op.type != Op::Type::Load &&
                op.type != Op::Type::Store)
                continue;
            const Region *r = wl->regions().regionOf(op.addr);
            ASSERT_NE(r, nullptr);
            if (r->name.rfind("synth.shared.", 0) == 0)
                touched[c].insert(r->id);
        }
    }

    // Cores 0..3 form cluster 0, 4..7 cluster 1, etc.
    for (unsigned cluster = 0; cluster < 4; ++cluster)
        for (unsigned other = cluster + 1; other < 4; ++other)
            for (RegionId id : touched[cluster * 4])
                EXPECT_EQ(touched[other * 4].count(id), 0u)
                    << "cluster " << cluster << " vs " << other;
}

TEST(Synthetic, HotSetConcentratesAccesses)
{
    SynthParams p;
    p.pattern = SynthParams::Pattern::HotSet;
    p.hotFraction = 0.1;
    p.hotProbability = 0.9;
    p.sharedFraction = 1.0;
    p.sharedRegions = 1;
    p.sharingDegree = numTiles;
    p.opsPerCore = 4000;
    auto wl = makeSynthetic(p);

    // Find the shared region and count accesses to its first 10%.
    const Region *shared = nullptr;
    for (std::size_t i = 0; i < wl->regions().numRegions(); ++i) {
        const Region &r =
            wl->regions().region(static_cast<RegionId>(i));
        if (r.name == "synth.shared.0")
            shared = &r;
    }
    ASSERT_NE(shared, nullptr);

    std::size_t hot = 0, total = 0;
    bool past_epoch = false;
    const WholeTraces whole = materialize(*wl);
    for (const auto &op : whole.traces[0]) {
        if (op.type == Op::Type::Epoch)
            past_epoch = true;
        if (!past_epoch || (op.type != Op::Type::Load &&
                            op.type != Op::Type::Store))
            continue;
        if (!shared->contains(op.addr))
            continue;
        ++total;
        hot += op.addr < shared->base + shared->size / 10;
    }
    ASSERT_GT(total, 100u);
    // ~90% hot + ~10% uniform spillover: well above 80%.
    EXPECT_GT(static_cast<double>(hot) / total, 0.8);
}

TEST(Synthetic, BypassFlagPropagates)
{
    SynthParams p;
    p.bypassShared = true;
    p.opsPerCore = 500;
    auto wl = makeSynthetic(p);
    bool any_bypass = false;
    for (std::size_t i = 0; i < wl->regions().numRegions(); ++i)
        any_bypass |=
            wl->regions().region(static_cast<RegionId>(i)).bypass;
    EXPECT_TRUE(any_bypass);
}

TEST(Synthetic, PatternNamesRoundTrip)
{
    for (SynthParams::Pattern p :
         {SynthParams::Pattern::Stride, SynthParams::Pattern::Random,
          SynthParams::Pattern::HotSet}) {
        SynthParams::Pattern back;
        ASSERT_TRUE(SynthParams::patternFromName(
            SynthParams::patternName(p), back));
        EXPECT_EQ(static_cast<int>(back), static_cast<int>(p));
    }
    SynthParams::Pattern dummy;
    EXPECT_FALSE(SynthParams::patternFromName("zipfian", dummy));
}

TEST(SynthPresets, EveryPresetBuildsDeterministically)
{
    for (const std::string &name : synthPresetNames()) {
        SCOPED_TRACE(name);
        SynthParams pa, pb;
        Topology ta, tb;
        ASSERT_TRUE(synthPresetFromName(name, pa, ta));
        ASSERT_TRUE(synthPresetFromName(name, pb, tb));
        EXPECT_EQ(ta, tb);

        auto a = makeSynthetic(pa, ta);
        auto b = makeSynthetic(pb, tb);
        EXPECT_TRUE(tracesIdentical(*a, *b));
        EXPECT_EQ(a->name(), b->name());
        EXPECT_GT(a->totalOps(), 0u);
        EXPECT_EQ(a->numCores(), ta.numTiles());
    }
}

TEST(SynthPresets, CuratedShapesMatchTheirStories)
{
    SynthParams sp;
    Topology topo;

    // hotset64 targets 64 cores, all in one sharing cluster.
    ASSERT_TRUE(synthPresetFromName("hotset64", sp, topo));
    EXPECT_EQ(topo.numTiles(), 64u);
    EXPECT_EQ(sp.sharingDegree, 64u);
    EXPECT_EQ(static_cast<int>(sp.pattern),
              static_cast<int>(SynthParams::Pattern::HotSet));

    // all2all makes every core share every region.
    ASSERT_TRUE(synthPresetFromName("all2all", sp, topo));
    EXPECT_EQ(sp.sharingDegree, topo.numTiles());

    // mc-corner funnels all memory traffic into corner tile 0.
    ASSERT_TRUE(synthPresetFromName("mc-corner", sp, topo));
    EXPECT_EQ(topo.numMemCtrls(), 1u);
    EXPECT_EQ(topo.memCtrlTiles().front(), 0u);

    EXPECT_FALSE(synthPresetFromName("no-such-preset", sp, topo));
}

class SynthPresetMeshes
    : public ::testing::TestWithParam<std::pair<unsigned, unsigned>>
{
};

TEST_P(SynthPresetMeshes, ParametersDeriveFromTheTopology)
{
    const auto [x, y] = GetParam();
    const Topology topo(x, y);
    const unsigned tiles = topo.numTiles();

    SynthParams hot;
    ASSERT_TRUE(synthPresetFor("hotset64", topo, hot));
    // Everybody shares one cluster; the working set grows with the
    // tile count so the hot subset stays contended at any mesh size.
    EXPECT_EQ(hot.sharingDegree, tiles);
    EXPECT_EQ(hot.regionBytes, std::max(bytesPerLine, 512 * tiles));
    EXPECT_EQ(static_cast<int>(hot.pattern),
              static_cast<int>(SynthParams::Pattern::HotSet));

    SynthParams a2a;
    ASSERT_TRUE(synthPresetFor("all2all", topo, a2a));
    // One region per core over a fixed total working set.
    EXPECT_EQ(a2a.sharedRegions, tiles);
    EXPECT_EQ(a2a.sharingDegree, tiles);
    EXPECT_EQ(a2a.regionBytes,
              std::max(bytesPerLine, 128 * 1024 / tiles));

    SynthParams mc;
    ASSERT_TRUE(synthPresetFor("mc-corner", topo, mc));
    EXPECT_EQ(mc.sharingDegree, std::min(4u, tiles));

    // Every derived parameter set builds a valid workload of the
    // right shape (trimmed op counts keep the 16x16 case fast).
    for (SynthParams p : {hot, a2a, mc}) {
        p.opsPerCore = 64;
        auto wl = makeSynthetic(p, topo);
        EXPECT_EQ(wl->numCores(), tiles);
        EXPECT_GT(wl->totalOps(), 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Meshes, SynthPresetMeshes,
    ::testing::Values(std::make_pair(2u, 2u), std::make_pair(8u, 8u),
                      std::make_pair(16u, 16u)),
    [](const auto &info) {
        return std::to_string(info.param.first) + "x" +
               std::to_string(info.param.second);
    });

TEST(SynthPresets, DerivedParametersMatchCuratedAtHomeTopology)
{
    // At each preset's curated topology the topology-derived
    // parameters must equal the historical fixed ones, so existing
    // traces and CI smokes reproduce unchanged.
    SynthParams fixed, derived;
    Topology topo;
    for (const std::string &name : synthPresetNames()) {
        SCOPED_TRACE(name);
        ASSERT_TRUE(synthPresetFromName(name, fixed, topo));
        ASSERT_TRUE(synthPresetFor(name, topo, derived));
        auto a = makeSynthetic(fixed, topo);
        auto b = makeSynthetic(derived, topo);
        EXPECT_TRUE(tracesIdentical(*a, *b));
    }
    // The historical hotset64 parameters specifically.
    ASSERT_TRUE(synthPresetFromName("hotset64", fixed, topo));
    EXPECT_EQ(topo.numTiles(), 64u);
    EXPECT_EQ(fixed.regionBytes, 32u * 1024);
    EXPECT_EQ(fixed.sharingDegree, 64u);
}

TEST(SynthPresets, HotsetNamesGeneralize)
{
    SynthParams sp;
    Topology topo;
    // hotsetN curates an NxN-tile mesh for any square tile count.
    ASSERT_TRUE(synthPresetFromName("hotset16", sp, topo));
    EXPECT_EQ(topo.numTiles(), 16u);
    EXPECT_EQ(sp.sharingDegree, 16u);
    ASSERT_TRUE(synthPresetFromName("hotset256", sp, topo));
    EXPECT_EQ(topo.numTiles(), 256u);
    EXPECT_EQ(sp.sharingDegree, 256u);
    // Non-square or out-of-range counts are rejected.
    EXPECT_FALSE(synthPresetFromName("hotset12", sp, topo));
    EXPECT_FALSE(synthPresetFromName("hotset1024", sp, topo));
    EXPECT_FALSE(synthPresetFromName("hotset", sp, topo));
}

TEST(SynthPresets, McCornerConcentratesLinkLoad)
{
    // The scenario exists to stress one corner of the mesh: compared
    // to the same traffic spread over four controllers, the hottest
    // link must carry measurably more flits.
    SynthParams sp;
    Topology corner;
    ASSERT_TRUE(synthPresetFromName("mc-corner", sp, corner));
    sp.opsPerCore = 1024; // trim for test time; shape is unchanged

    SimParams params = SimParams::scaled();
    params.topo = corner;
    auto wl = makeSynthetic(sp, corner);
    const RunResult one_mc =
        runOne(ProtocolName::MESI, *wl, params);

    const Topology spread(4, 4); // paper default: four corner MCs
    SimParams params4 = SimParams::scaled();
    params4.topo = spread;
    auto wl4 = makeSynthetic(sp, spread);
    const RunResult four_mc =
        runOne(ProtocolName::MESI, *wl4, params4);

    EXPECT_GT(one_mc.maxLinkFlits, four_mc.maxLinkFlits);
}

} // namespace wastesim
