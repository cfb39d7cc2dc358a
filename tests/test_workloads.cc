/** Unit tests: benchmark trace generators (Table 4.2 properties). */

#include <gtest/gtest.h>

#include <thread>
#include <unordered_set>
#include <utility>

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
    for (const auto &t : materialize(wl).traces) {
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

/** One new line per access over 16 private 256 KiB regions. */
SynthParams
strideStream()
{
    SynthParams p;
    p.pattern = SynthParams::Pattern::Stride;
    p.strideWords = wordsPerLine;
    p.sharingDegree = 1;
    p.sharedRegions = numTiles;
    p.regionBytes = 256 * 1024;
    p.sharedFraction = 0.9;
    p.readFraction = 0.8;
    p.opsPerCore = 32768;
    return p;
}

} // namespace

class AllBenchmarks : public ::testing::TestWithParam<BenchmarkName>
{
};

TEST_P(AllBenchmarks, WellFormed)
{
    auto wl = makeBenchmark(GetParam());
    const WholeTraces whole = materialize(*wl);
    ASSERT_EQ(whole.traces.size(), numTiles);

    // Every core has the same barrier sequence (no barrier skew).
    std::vector<std::vector<std::uint32_t>> barrier_seq(numTiles);
    for (CoreId c = 0; c < numTiles; ++c)
        for (const auto &op : whole.traces[c])
            if (op.type == Op::Type::Barrier)
                barrier_seq[c].push_back(op.arg);
    for (CoreId c = 1; c < numTiles; ++c)
        EXPECT_EQ(barrier_seq[c], barrier_seq[0]) << "core " << c;

    // Exactly one epoch marker per core.
    for (CoreId c = 0; c < numTiles; ++c) {
        unsigned epochs = 0;
        for (const auto &op : whole.traces[c])
            epochs += op.type == Op::Type::Epoch;
        EXPECT_EQ(epochs, 1u) << "core " << c;
    }

    // Barrier args reference real BarrierInfo entries.
    for (const auto &seq : barrier_seq)
        for (auto idx : seq)
            EXPECT_LT(idx, whole.barriers.size());

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
    for (const auto &t : materialize(*wl).traces) {
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
    const WholeTraces wa = materialize(*a), wb = materialize(*b);
    for (CoreId c = 0; c < numTiles; ++c) {
        ASSERT_EQ(wa.traces[c].size(), wb.traces[c].size());
        EXPECT_TRUE(wa.traces[c] == wb.traces[c]) << "core " << c;
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
        const WholeTraces whole = materialize(wl);
        ASSERT_GT(whole.totalOps(), 0u) << what;
        EXPECT_LE(whole.bytes(), 4 * whole.totalOps())
            << what << ": "
            << static_cast<double>(whole.bytes()) / whole.totalOps()
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

    check(*makeSynthetic(strideStream()), "stride stream");
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
    const WholeTraces whole = materialize(*wl);
    for (const auto &op : whole.traces[0]) {
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


// --- windowed generation -----------------------------------------------------

namespace
{

/** FNV-1a over every core's decoded ops, then every barrier's
 *  self-invalidation list. */
std::uint64_t
digestOf(const WholeTraces &w)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    auto add = [&h](std::uint64_t v, unsigned bytes) {
        for (unsigned i = 0; i < bytes; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    };
    for (const Trace &t : w.traces) {
        add(t.size(), 8);
        for (const Op op : t) {
            add(static_cast<unsigned>(op.type), 1);
            add(op.addr, 8);
            add(op.arg, 4);
        }
    }
    add(w.barriers.size(), 8);
    for (const BarrierInfo &b : w.barriers) {
        add(b.selfInvalidate.size(), 8);
        for (RegionId r : b.selfInvalidate)
            add(r, 4);
    }
    return h;
}

} // namespace

TEST(WorkloadStream, DrainEqualsWholeTraceGenerators)
{
    // Digests of the traces the generators built whole, before they
    // stopped at each barrier.  Draining the windowed stream must
    // give the same ops and barriers, byte for byte.
    struct Case
    {
        BenchmarkName bench;
        unsigned dim, scale;
        std::uint64_t digest;
    };
    const Case cases[] = {
    // Fluidanimate
    {BenchmarkName::Fluidanimate, 2, 1, 0x92afd865d4619912ULL},
    {BenchmarkName::Fluidanimate, 2, 2, 0x1e7cfdd7db4b6cb8ULL},
    {BenchmarkName::Fluidanimate, 4, 1, 0xf7c43949f47eb50dULL},
    {BenchmarkName::Fluidanimate, 4, 2, 0x7f785845cfb0785eULL},
    {BenchmarkName::Fluidanimate, 8, 1, 0x3869668447c3e295ULL},
    {BenchmarkName::Fluidanimate, 8, 2, 0x579f815a4e128902ULL},
    {BenchmarkName::Fluidanimate, 16, 1, 0x29da3203c149bc06ULL},
    {BenchmarkName::Fluidanimate, 16, 2, 0x2f66aac6c4c7be89ULL},
    // LU
    {BenchmarkName::LU, 2, 1, 0xbb0320ad618f82f0ULL},
    {BenchmarkName::LU, 2, 2, 0x8e34ff7f9041a60aULL},
    {BenchmarkName::LU, 4, 1, 0xc1b99243845f1664ULL},
    {BenchmarkName::LU, 4, 2, 0xbbfdb9fcb2ac7cbcULL},
    {BenchmarkName::LU, 8, 1, 0x507a6e2907cde6b8ULL},
    {BenchmarkName::LU, 8, 2, 0x145b8982d4107932ULL},
    {BenchmarkName::LU, 16, 1, 0xc337a96b0ab945b8ULL},
    {BenchmarkName::LU, 16, 2, 0x0e7c81640e5566bcULL},
    // FFT
    {BenchmarkName::FFT, 2, 1, 0x4445534c196a68c0ULL},
    {BenchmarkName::FFT, 2, 2, 0x2c1fc09c44d77288ULL},
    {BenchmarkName::FFT, 4, 1, 0xc08083b6141c3e10ULL},
    {BenchmarkName::FFT, 4, 2, 0x024d2b864fbf30c9ULL},
    {BenchmarkName::FFT, 8, 1, 0x9004361f40736d20ULL},
    {BenchmarkName::FFT, 8, 2, 0x3b00ba9f7f7a9e00ULL},
    {BenchmarkName::FFT, 16, 1, 0x8330f75d1aa810a0ULL},
    {BenchmarkName::FFT, 16, 2, 0x5f16e2d7974a5740ULL},
    // Radix
    {BenchmarkName::Radix, 2, 1, 0x6abc136243bc1df8ULL},
    {BenchmarkName::Radix, 2, 2, 0x1734e44ee4fd18e2ULL},
    {BenchmarkName::Radix, 4, 1, 0xe39394e7182e6664ULL},
    {BenchmarkName::Radix, 4, 2, 0xa34da46c0d97db7aULL},
    {BenchmarkName::Radix, 8, 1, 0x77c71485b7516f8aULL},
    {BenchmarkName::Radix, 8, 2, 0x1985882af3d4137eULL},
    {BenchmarkName::Radix, 16, 1, 0x33bbe47bb7eab03eULL},
    {BenchmarkName::Radix, 16, 2, 0x1b533964ce754e0cULL},
    // Barnes
    {BenchmarkName::Barnes, 2, 1, 0x692f8ee9c6a6533bULL},
    {BenchmarkName::Barnes, 2, 2, 0x06122f3d4ddfdd12ULL},
    {BenchmarkName::Barnes, 4, 1, 0x3c357d0ae0d3298fULL},
    {BenchmarkName::Barnes, 4, 2, 0xab910e14057de536ULL},
    {BenchmarkName::Barnes, 8, 1, 0xe48080c4c0924837ULL},
    {BenchmarkName::Barnes, 8, 2, 0xc9aec243f0f5ae1bULL},
    {BenchmarkName::Barnes, 16, 1, 0x53f694244062d80fULL},
    {BenchmarkName::Barnes, 16, 2, 0xe3d2929f6bb83713ULL},
    // KdTree
    {BenchmarkName::KdTree, 2, 1, 0x1034a1f465d96949ULL},
    {BenchmarkName::KdTree, 2, 2, 0xacb53ac3520bd4e6ULL},
    {BenchmarkName::KdTree, 4, 1, 0xb9a13116711dc4e8ULL},
    {BenchmarkName::KdTree, 4, 2, 0xe23520552973d17fULL},
    {BenchmarkName::KdTree, 8, 1, 0xd5c8d1a696c397daULL},
    {BenchmarkName::KdTree, 8, 2, 0xbc2e250fe1f4e667ULL},
    {BenchmarkName::KdTree, 16, 1, 0xb1dacc7beb0bea53ULL},
    {BenchmarkName::KdTree, 16, 2, 0x65284cbe6fa3eb4dULL},
    };
    for (const Case &c : cases) {
        const auto wl =
            makeBenchmark(c.bench, c.scale, Topology(c.dim, c.dim));
        EXPECT_EQ(digestOf(materialize(*wl)), c.digest)
            << wl->name() << " scale " << c.scale << " on " << c.dim
            << "x" << c.dim;
    }

    const std::pair<const char *, std::uint64_t> presets[] = {
        {"hotset64", 0x2a418c76c0ee36eaULL},
        {"all2all", 0xb59c6332e901a393ULL},
        {"mc-corner", 0x1219544f24f4ff4dULL},
    };
    for (const auto &[name, digest] : presets) {
        SynthParams sp;
        Topology topo;
        ASSERT_TRUE(synthPresetFromName(name, sp, topo));
        EXPECT_EQ(digestOf(materialize(*makeSynthetic(sp, topo))), digest)
            << name;
    }
    EXPECT_EQ(digestOf(materialize(*makeSynthetic(strideStream()))),
              0x02860597113b326dULL);
}

namespace
{

/** Each core's ops, read window by window the way cores read them. */
std::vector<std::vector<Op>>
streamOps(const Workload &wl)
{
    std::vector<std::vector<Op>> ops(wl.numCores());
    TraceSource src(wl);
    bool more = true;
    while (more) {
        more = false;
        for (CoreId c = 0; c < wl.numCores(); ++c) {
            if (!src.advance(c))
                continue;
            more = true;
            for (Trace::Cursor &cur = src.cursor(c); !cur.done();)
                ops[c].push_back(cur.next());
        }
    }
    return ops;
}

} // namespace

TEST(WorkloadStream, ThreadsStreamOneConstWorkload)
{
    // A Workload is shared by concurrent sweep cells: every stream
    // keeps its own generator state.
    const auto wl = makeBenchmark(BenchmarkName::Radix, 1, Topology(4, 4));
    std::vector<std::vector<Op>> a, b;
    std::thread ta([&] { a = streamOps(*wl); });
    std::thread tb([&] { b = streamOps(*wl); });
    ta.join();
    tb.join();
    ASSERT_EQ(a.size(), numTiles);
    EXPECT_TRUE(a == b);

    const WholeTraces whole = materialize(*wl);
    for (CoreId c = 0; c < numTiles; ++c) {
        std::vector<Op> want;
        for (const Op op : whole.traces[c])
            want.push_back(op);
        EXPECT_TRUE(a[c] == want) << "core " << c;
    }
}

TEST(WorkloadStreamDeathTest, NextWindowWhileACoreHoldsOps)
{
    const auto wl = makeBenchmark(BenchmarkName::FFT, 1, Topology(2, 2));
    EXPECT_DEATH(
        {
            TraceSource src(*wl);
            (void)src.advance(0);
            (void)src.advance(0); // core 0 has read none of window 1
        },
        "core 0 asked for trace window 2 while core 0 still holds");
}

TEST(WorkloadStream, SourceHoldsOneBarrierPhase)
{
    // FFT scale 4 on 16x16 is 4.21 MB of trace held whole; its
    // largest barrier phase is 1.51 MB, and each core's buffer
    // doubles as it grows (2.39 MB measured).  The buffers are
    // realloc'd, so the source reports its own high-water mark.
    const auto wl = makeBenchmark(BenchmarkName::FFT, 4, Topology(16, 16));
    TraceSource src(*wl);
    std::size_t ops = 0;
    while (src.next())
        for (CoreId c = 0; c < wl->numCores(); ++c)
            ops += src.window(c).size();
    EXPECT_EQ(ops, wl->totalOps());
    EXPECT_EQ(src.windows(), 5u); // four barrier phases, then the end
    EXPECT_LE(src.peakBytes(), 2'600'000u);
}

TEST(WorkloadStream, OpCountsMatchTheMaterializedTraces)
{
    for (BenchmarkName b : allBenchmarks) {
        const auto wl = makeBenchmark(b, 1, Topology(4, 4));
        const TraceStats s = statsOf(*wl);
        const OpCounts &n = wl->opCounts();
        EXPECT_EQ(n.loads, s.loads) << wl->name();
        EXPECT_EQ(n.stores, s.stores) << wl->name();
        EXPECT_EQ(n.ops, materialize(*wl).totalOps()) << wl->name();
        EXPECT_EQ(&wl->opCounts(), &n) << "counted once";
    }
}

} // namespace wastesim
