/** Unit tests: benchmark trace generators (Table 4.2 properties). */

#include <gtest/gtest.h>

#include <unordered_set>

#include "trace/synthetic.hh"
#include "workload/workload.hh"

namespace wastesim
{

namespace
{

struct TraceStats
{
    std::size_t loads = 0, stores = 0, barriers = 0, epochs = 0;
    std::size_t workCycles = 0;
};

TraceStats
statsOf(const Workload &wl)
{
    TraceStats s;
    for (const auto &t : wl.traces()) {
        for (const auto &op : t) {
            switch (op.type) {
              case Op::Type::Load: ++s.loads; break;
              case Op::Type::Store: ++s.stores; break;
              case Op::Type::Barrier: ++s.barriers; break;
              case Op::Type::Epoch: ++s.epochs; break;
              case Op::Type::Work: s.workCycles += op.arg; break;
            }
        }
    }
    return s;
}

} // namespace

class AllBenchmarks : public ::testing::TestWithParam<BenchmarkName>
{
};

TEST_P(AllBenchmarks, WellFormed)
{
    auto wl = makeBenchmark(GetParam());
    ASSERT_EQ(wl->traces().size(), numTiles);

    // Every core has the same barrier sequence (no barrier skew).
    std::vector<std::vector<std::uint32_t>> barrier_seq(numTiles);
    for (CoreId c = 0; c < numTiles; ++c)
        for (const auto &op : wl->traces()[c])
            if (op.type == Op::Type::Barrier)
                barrier_seq[c].push_back(op.arg);
    for (CoreId c = 1; c < numTiles; ++c)
        EXPECT_EQ(barrier_seq[c], barrier_seq[0]) << "core " << c;

    // Exactly one epoch marker per core.
    for (CoreId c = 0; c < numTiles; ++c) {
        unsigned epochs = 0;
        for (const auto &op : wl->traces()[c])
            epochs += op.type == Op::Type::Epoch;
        EXPECT_EQ(epochs, 1u) << "core " << c;
    }

    // Barrier args reference real BarrierInfo entries.
    for (const auto &seq : barrier_seq)
        for (auto idx : seq)
            EXPECT_LT(idx, wl->barriers().size());

    // All accessed addresses fall inside declared regions (so the
    // DeNovo self-invalidation and Flex logic can reason about them)
    // or at least inside the allocated arena.
    const TraceStats s = statsOf(*wl);
    EXPECT_GT(s.loads, 0u);
    EXPECT_GT(s.stores, 0u);
    EXPECT_GT(s.barriers, 0u);
}

TEST_P(AllBenchmarks, AddressesAreWordAlignedAndRegionCovered)
{
    auto wl = makeBenchmark(GetParam());
    std::size_t uncovered = 0, total = 0;
    for (const auto &t : wl->traces()) {
        for (const auto &op : t) {
            if (op.type != Op::Type::Load && op.type != Op::Type::Store)
                continue;
            EXPECT_EQ(op.addr % bytesPerWord, 0u);
            ++total;
            if (!wl->regions().regionOf(op.addr))
                ++uncovered;
        }
    }
    // Every access lies in a declared region.
    EXPECT_EQ(uncovered, 0u) << "of " << total;
}

TEST_P(AllBenchmarks, DeterministicGeneration)
{
    auto a = makeBenchmark(GetParam());
    auto b = makeBenchmark(GetParam());
    ASSERT_EQ(a->totalOps(), b->totalOps());
    for (CoreId c = 0; c < numTiles; ++c) {
        ASSERT_EQ(a->traces()[c].size(), b->traces()[c].size());
        EXPECT_TRUE(a->traces()[c] == b->traces()[c]) << "core " << c;
    }
}

TEST_P(AllBenchmarks, TraceSizeIsSweepable)
{
    auto wl = makeBenchmark(GetParam());
    // Keep the 54-run sweep tractable.
    EXPECT_LT(wl->totalOps(), 1'500'000u) << wl->name();
    EXPECT_GT(wl->totalOps(), 10'000u) << wl->name();
}

INSTANTIATE_TEST_SUITE_P(
    Table42, AllBenchmarks,
    ::testing::Values(BenchmarkName::Fluidanimate, BenchmarkName::LU,
                      BenchmarkName::FFT, BenchmarkName::Radix,
                      BenchmarkName::Barnes, BenchmarkName::KdTree),
    [](const auto &info) {
        std::string n = benchmarkName(info.param);
        for (auto &ch : n)
            if (!isalnum(static_cast<unsigned char>(ch)))
                ch = '_';
        return n;
    });

TEST(Workload, TraceBytesPerOp)
{
    // Generated traces hold at most 4 bytes per op; a vector of
    // 16-byte Ops held 16 plus its growth slack.
    auto check = [](const Workload &wl, const std::string &what) {
        ASSERT_GT(wl.totalOps(), 0u) << what;
        EXPECT_LE(wl.traceBytes(), 4 * wl.totalOps())
            << what << ": "
            << static_cast<double>(wl.traceBytes()) / wl.totalOps()
            << " B/op";
    };
    for (BenchmarkName b : allBenchmarks)
        check(*makeBenchmark(b), benchmarkName(b));
    check(*makeBenchmark(BenchmarkName::FFT, 4, Topology(8, 8)),
          "FFT scale 4 on 8x8");

    SynthParams sp;
    Topology topo;
    ASSERT_TRUE(synthPresetFromName("hotset64", sp, topo));
    check(*makeSynthetic(sp, topo), "hotset64");

    // One new line per access over 16 private 256 KiB regions.
    SynthParams stride;
    stride.pattern = SynthParams::Pattern::Stride;
    stride.strideWords = wordsPerLine;
    stride.sharingDegree = 1;
    stride.sharedRegions = numTiles;
    stride.regionBytes = 256 * 1024;
    stride.sharedFraction = 0.9;
    stride.readFraction = 0.8;
    stride.opsPerCore = 32768;
    check(*makeSynthetic(stride), "stride stream");
}

TEST(Workloads, FlexRegionsWhereThePaperSaysSo)
{
    // Flex applies to barnes and kD-tree only (Section 5.2.1).
    for (BenchmarkName b : allBenchmarks) {
        auto wl = makeBenchmark(b);
        bool any_flex = false;
        for (std::size_t i = 0; i < wl->regions().numRegions(); ++i)
            any_flex |= wl->regions().region(
                static_cast<RegionId>(i)).flex;
        const bool expect_flex = b == BenchmarkName::Barnes ||
                                 b == BenchmarkName::KdTree;
        EXPECT_EQ(any_flex, expect_flex) << wl->name();
    }
}

TEST(Workloads, BypassRegionsWhereThePaperSaysSo)
{
    // Bypass applies to fluidanimate, FFT, radix, kD-tree.
    for (BenchmarkName b : allBenchmarks) {
        auto wl = makeBenchmark(b);
        bool any_bypass = false;
        for (std::size_t i = 0; i < wl->regions().numRegions(); ++i)
            any_bypass |= wl->regions().region(
                static_cast<RegionId>(i)).bypass;
        const bool expect = b == BenchmarkName::Fluidanimate ||
                            b == BenchmarkName::FFT ||
                            b == BenchmarkName::Radix ||
                            b == BenchmarkName::KdTree;
        EXPECT_EQ(any_bypass, expect) << wl->name();
    }
}

TEST(Workloads, RadixPermutationScattersWidely)
{
    auto wl = makeBenchmark(BenchmarkName::Radix);
    // Post-epoch stores from one core must touch far more distinct
    // lines than an L1 holds (the paper's 1024-bucket pathology).
    bool past_epoch = false;
    std::unordered_set<Addr> lines;
    for (const auto &op : wl->traces()[0]) {
        if (op.type == Op::Type::Epoch)
            past_epoch = true;
        if (past_epoch && op.type == Op::Type::Store)
            lines.insert(lineAddr(op.addr));
    }
    EXPECT_GT(lines.size(), 256u); // scaled L1 = 64 lines
}

TEST(Workloads, BarnesStructsStraddleLines)
{
    auto wl = makeBenchmark(BenchmarkName::Barnes);
    const Region *bodies = nullptr;
    for (std::size_t i = 0; i < wl->regions().numRegions(); ++i) {
        const Region &r =
            wl->regions().region(static_cast<RegionId>(i));
        if (r.name == "barnes.bodies")
            bodies = &r;
    }
    ASSERT_NE(bodies, nullptr);
    // 28-word stride: not a multiple of the 16-word line.
    EXPECT_NE(bodies->strideWords % wordsPerLine, 0u);
}

TEST(Workloads, ScaleGrowsInputs)
{
    auto s1 = makeBenchmark(BenchmarkName::FFT, 1);
    auto s2 = makeBenchmark(BenchmarkName::FFT, 2);
    EXPECT_GT(s2->totalOps(), s1->totalOps());
}

} // namespace wastesim
