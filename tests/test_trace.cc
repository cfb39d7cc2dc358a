/** Unit tests: trace capture/replay (src/trace/). */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "system/runner.hh"
#include "trace/synthetic.hh"
#include "trace/trace_io.hh"
#include "trace/trace_workload.hh"
#include "workload/workload.hh"

namespace wastesim
{

namespace
{

/** Unique-ish temp path inside the build dir; removed on scope exit. */
class TempFile
{
  public:
    explicit TempFile(const std::string &tag)
        : path_("trace_test_" + tag + ".trc")
    {
    }
    ~TempFile() { std::remove(path_.c_str()); }

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

void
expectWorkloadsEqual(const Workload &a, const Workload &b)
{
    // Regions.
    ASSERT_EQ(a.regions().numRegions(), b.regions().numRegions());
    for (std::size_t i = 0; i < a.regions().numRegions(); ++i) {
        const Region &ra = a.regions().region(static_cast<RegionId>(i));
        const Region &rb = b.regions().region(static_cast<RegionId>(i));
        EXPECT_EQ(ra.id, rb.id);
        EXPECT_EQ(ra.name, rb.name);
        EXPECT_EQ(ra.base, rb.base);
        EXPECT_EQ(ra.size, rb.size);
        EXPECT_EQ(ra.flex, rb.flex);
        EXPECT_EQ(ra.strideWords, rb.strideWords);
        EXPECT_EQ(ra.usedFields, rb.usedFields);
        EXPECT_EQ(ra.bypass, rb.bypass);
        EXPECT_EQ(ra.stream, rb.stream);
    }

    // Barriers.
    const WholeTraces wa = materialize(a), wb = materialize(b);
    ASSERT_EQ(wa.barriers.size(), wb.barriers.size());
    for (std::size_t i = 0; i < wa.barriers.size(); ++i)
        EXPECT_EQ(wa.barriers[i].selfInvalidate,
                  wb.barriers[i].selfInvalidate);

    // Per-core op streams, bit-identical.
    ASSERT_EQ(wa.traces.size(), wb.traces.size());
    for (CoreId c = 0; c < wa.traces.size(); ++c) {
        const Trace &ta = wa.traces[c];
        const Trace &tb = wb.traces[c];
        ASSERT_EQ(ta.size(), tb.size()) << "core " << c;
        std::size_t i = 0;
        for (auto ia = ta.begin(), ib = tb.begin(); ia != ta.end();
             ++ia, ++ib, ++i) {
            const Op oa = *ia, ob = *ib;
            EXPECT_EQ(static_cast<int>(oa.type), static_cast<int>(ob.type))
                << "core " << c << " op " << i;
            EXPECT_EQ(oa.addr, ob.addr) << "core " << c << " op " << i;
            EXPECT_EQ(oa.arg, ob.arg) << "core " << c << " op " << i;
        }
    }
}

void
expectResultsEqual(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.traffic.total(), b.traffic.total());
    EXPECT_EQ(a.traffic.load(), b.traffic.load());
    EXPECT_EQ(a.traffic.store(), b.traffic.store());
    EXPECT_EQ(a.traffic.writeback(), b.traffic.writeback());
    EXPECT_EQ(a.messages, b.messages);
    EXPECT_EQ(a.l1Accesses, b.l1Accesses);
    EXPECT_EQ(a.l2Accesses, b.l2Accesses);
    EXPECT_EQ(a.dramReads, b.dramReads);
    EXPECT_EQ(a.dramWrites, b.dramWrites);
    EXPECT_EQ(a.nacks, b.nacks);
    EXPECT_EQ(a.selfInvalidations, b.selfInvalidations);
    EXPECT_EQ(a.wordsFromMemory, b.wordsFromMemory);
    for (std::size_t i = 0; i < a.l1Waste.byCat.size(); ++i) {
        EXPECT_EQ(a.l1Waste.byCat[i], b.l1Waste.byCat[i]);
        EXPECT_EQ(a.l2Waste.byCat[i], b.l2Waste.byCat[i]);
        EXPECT_EQ(a.memWaste.byCat[i], b.memWaste.byCat[i]);
    }
}

} // namespace

TEST(TraceIo, RoundTripIsBitIdentical)
{
    // Barnes exercises every region feature: flex, stream, bypass.
    auto src = makeBenchmark(BenchmarkName::Barnes);

    TempFile tmp("roundtrip");
    TraceRecorder rec(tmp.path());
    ASSERT_TRUE(rec.record(*src)) << rec.error();

    std::string err;
    auto loaded = TraceWorkload::load(tmp.path(), &err);
    ASSERT_NE(loaded, nullptr) << err;

    EXPECT_EQ(loaded->name(), src->name());
    EXPECT_EQ(loaded->inputDesc(), src->inputDesc());
    expectWorkloadsEqual(*src, *loaded);
}

TEST(TraceIo, SyntheticRoundTrip)
{
    SynthParams p;
    p.seed = 99;
    p.pattern = SynthParams::Pattern::HotSet;
    p.opsPerCore = 2000;
    p.bypassShared = true;
    auto src = makeSynthetic(p);

    TempFile tmp("synth");
    TraceRecorder rec(tmp.path());
    ASSERT_TRUE(rec.record(*src)) << rec.error();

    std::string err;
    auto loaded = TraceWorkload::load(tmp.path(), &err);
    ASSERT_NE(loaded, nullptr) << err;
    expectWorkloadsEqual(*src, *loaded);
}

TEST(TraceIo, LoadRejectsMissingFile)
{
    std::string err;
    auto wl = TraceWorkload::load("nonexistent_dir/nope.trc", &err);
    EXPECT_EQ(wl, nullptr);
    EXPECT_FALSE(err.empty());
}

TEST(TraceIo, LoadRejectsBadMagic)
{
    TempFile tmp("badmagic");
    {
        std::ofstream os(tmp.path(), std::ios::binary);
        os << "this is not a trace file at all";
    }
    std::string err;
    auto wl = TraceWorkload::load(tmp.path(), &err);
    EXPECT_EQ(wl, nullptr);
    EXPECT_NE(err.find("magic"), std::string::npos) << err;
}

TEST(TraceIo, LoadRejectsTruncatedFile)
{
    auto src = makeBenchmark(BenchmarkName::LU);
    TempFile tmp("trunc");
    TraceRecorder rec(tmp.path());
    ASSERT_TRUE(rec.record(*src)) << rec.error();

    // Chop off the trailer and some op bytes.
    std::ifstream is(tmp.path(), std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(is)),
                      std::istreambuf_iterator<char>());
    is.close();
    ASSERT_GT(bytes.size(), 100u);
    bytes.resize(bytes.size() - 64);
    std::ofstream os(tmp.path(),
                     std::ios::binary | std::ios::trunc);
    os.write(bytes.data(),
             static_cast<std::streamsize>(bytes.size()));
    os.close();

    std::string err;
    auto wl = TraceWorkload::load(tmp.path(), &err);
    EXPECT_EQ(wl, nullptr);
    EXPECT_FALSE(err.empty());
}

/**
 * The acceptance property: replaying a recorded trace through a
 * protocol reproduces the source workload's RunResult exactly.  The
 * simulation is a pure function of ops, regions and barriers.
 */
TEST(TraceReplay, ReproducesRunResultExactly)
{
    auto src = makeBenchmark(BenchmarkName::LU);

    TempFile tmp("replay");
    TraceRecorder rec(tmp.path());
    ASSERT_TRUE(rec.record(*src)) << rec.error();

    std::string err;
    auto replay = TraceWorkload::load(tmp.path(), &err);
    ASSERT_NE(replay, nullptr) << err;

    const SimParams params = SimParams::scaled();
    for (ProtocolName p :
         {ProtocolName::MESI, ProtocolName::DBypFull}) {
        const RunResult a = runOne(p, *src, params);
        const RunResult b = runOne(p, *replay, params);
        SCOPED_TRACE(protocolName(p));
        expectResultsEqual(a, b);
    }
}

TEST(TraceIo, V2HeaderRoundTripsFullGeometry)
{
    // Record on a non-default topology: 4x2 mesh, MCs on tiles 1/6.
    const Topology topo(4, 2, std::vector<NodeId>{1, 6});
    SynthParams p;
    p.seed = 17;
    p.opsPerCore = 200;
    p.sharingDegree = 2;
    auto src = makeSynthetic(p, topo);

    TempFile tmp("v2geom");
    TraceRecorder rec(tmp.path());
    ASSERT_TRUE(rec.record(*src)) << rec.error();

    // The header itself carries the current version + geometry.
    {
        std::ifstream is(tmp.path(), std::ios::binary);
        TraceReader r(is);
        TraceHeader h;
        ASSERT_TRUE(r.readHeader(h)) << r.error();
        EXPECT_EQ(h.version, traceFormatVersion);
        EXPECT_EQ(h.meshX, 4u);
        EXPECT_EQ(h.meshY, 2u);
        EXPECT_EQ(h.mcTiles, (std::vector<std::uint32_t>{1, 6}));
    }

    // Matching topology: loads, with the geometry visible pre-load.
    std::string err;
    auto any = TraceWorkload::loadAnyTopology(tmp.path(), &err);
    ASSERT_NE(any, nullptr) << err;
    EXPECT_EQ(any->topo(), topo);

    auto loaded = TraceWorkload::load(tmp.path(), topo, &err);
    ASSERT_NE(loaded, nullptr) << err;
    expectWorkloadsEqual(*src, *loaded);

    // Same core count, different mesh shape: rejected.
    auto wrong_mesh =
        TraceWorkload::load(tmp.path(), Topology(2, 4), &err);
    EXPECT_EQ(wrong_mesh, nullptr);
    EXPECT_NE(err.find("recorded on"), std::string::npos) << err;

    // Same mesh, different MC placement: also rejected.
    auto wrong_mcs = TraceWorkload::load(
        tmp.path(), Topology(4, 2, std::vector<NodeId>{0, 7}), &err);
    EXPECT_EQ(wrong_mcs, nullptr);
    EXPECT_NE(err.find("recorded on"), std::string::npos) << err;
}

TEST(TraceIo, RejectsV1Traces)
{
    // Version 1 headers carried no geometry; that format is no longer
    // read, whatever follows the version field.
    auto src = makeSynthetic([] {
        SynthParams p;
        p.seed = 23;
        p.opsPerCore = 150;
        return p;
    }());
    TempFile tmp("v1");
    TraceRecorder rec(tmp.path());
    ASSERT_TRUE(rec.record(*src)) << rec.error();
    {
        // Patch the version field, just past the 8-byte magic.
        std::fstream f(tmp.path(),
                       std::ios::in | std::ios::out | std::ios::binary);
        f.seekp(8);
        f.put(1);
        ASSERT_TRUE(f.good());
    }

    std::string err;
    EXPECT_EQ(TraceWorkload::loadAnyTopology(tmp.path(), &err), nullptr);
    EXPECT_NE(err.find("unsupported trace version 1"), std::string::npos)
        << err;
}

TEST(TraceIo, RejectsCorruptV2Geometry)
{
    auto write_header = [](const std::string &path, std::uint32_t mx,
                           std::uint32_t my,
                           std::vector<std::uint32_t> mcs) {
        std::ofstream os(path, std::ios::binary);
        TraceWriter w(os);
        TraceHeader h;
        h.numCores = mx * my;
        h.meshX = mx;
        h.meshY = my;
        h.mcTiles = std::move(mcs);
        h.name = "x";
        w.writeHeader(h);
        w.writeTrailer(); // content never reached; header must fail
    };

    TempFile tmp("v2corrupt");
    std::string err;

    write_header(tmp.path(), 70, 1, {0}); // beyond Topology::maxDim
    EXPECT_EQ(TraceWorkload::loadAnyTopology(tmp.path(), &err),
              nullptr);
    EXPECT_NE(err.find("mesh"), std::string::npos) << err;

    // Dims individually legal but the product beyond maxTiles: must
    // be a loader error, not a fatal() when the Topology rebuilds.
    write_header(tmp.path(), 64, 64, {0});
    EXPECT_EQ(TraceWorkload::loadAnyTopology(tmp.path(), &err),
              nullptr);
    EXPECT_NE(err.find("mesh"), std::string::npos) << err;

    write_header(tmp.path(), 2, 2, {9}); // MC outside the mesh
    EXPECT_EQ(TraceWorkload::loadAnyTopology(tmp.path(), &err),
              nullptr);

    write_header(tmp.path(), 2, 2, {1, 1}); // duplicate MC tile
    EXPECT_EQ(TraceWorkload::loadAnyTopology(tmp.path(), &err),
              nullptr);
}

TEST(TraceReplay, SyntheticReproducesRunResultExactly)
{
    SynthParams p;
    p.seed = 5;
    p.pattern = SynthParams::Pattern::Random;
    p.opsPerCore = 1500;
    auto src = makeSynthetic(p);

    TempFile tmp("synthreplay");
    TraceRecorder rec(tmp.path());
    ASSERT_TRUE(rec.record(*src)) << rec.error();

    std::string err;
    auto replay = TraceWorkload::load(tmp.path(), &err);
    ASSERT_NE(replay, nullptr) << err;

    const SimParams params = SimParams::scaled();
    const RunResult a = runOne(ProtocolName::DeNovo, *src, params);
    const RunResult b = runOne(ProtocolName::DeNovo, *replay, params);
    expectResultsEqual(a, b);
}

// --- in-memory trace encoding ------------------------------------------------

namespace
{

/** Decode @p t both ways (range-for and Cursor) against @p ref. */
void
expectDecodesTo(const Trace &t, const std::vector<Op> &ref)
{
    ASSERT_EQ(t.size(), ref.size());
    std::size_t i = 0;
    for (const Op op : t) {
        ASSERT_LT(i, ref.size());
        ASSERT_TRUE(op == ref[i])
            << "op " << i << ": type " << static_cast<int>(op.type)
            << " addr " << op.addr << " arg " << op.arg << ", expected type "
            << static_cast<int>(ref[i].type) << " addr " << ref[i].addr
            << " arg " << ref[i].arg;
        ++i;
    }
    EXPECT_EQ(i, ref.size());

    Trace::Cursor cur = t.cursor();
    for (i = 0; i < ref.size(); ++i) {
        ASSERT_FALSE(cur.done());
        ASSERT_TRUE(cur.next() == ref[i]) << "cursor op " << i;
    }
    EXPECT_TRUE(cur.done());
}

} // namespace

TEST(TraceEncoding, SeededRoundTripMatchesVectorReference)
{
    constexpr Addr maxAddr = ~Addr(0);
    constexpr std::uint32_t maxArg =
        std::numeric_limits<std::uint32_t>::max();
    std::vector<Op> ref;
    Trace t;
    auto add = [&](Op::Type type, Addr a, std::uint32_t arg) {
        // Load and Store carry no arg; the others carry no address.
        const bool access = type == Op::Type::Load || type == Op::Type::Store;
        const Op op{type, access ? a : 0, access ? 0 : arg};
        ref.push_back(op);
        t.push_back(op);
    };

    // Extreme and unaligned addresses, every non-access type with
    // arg 0 and UINT32_MAX.
    add(Op::Type::Load, 0, 0);
    add(Op::Type::Store, maxAddr, 0);
    add(Op::Type::Load, 0, 0);
    add(Op::Type::Store, 1, 0);
    add(Op::Type::Load, 0x1003, 0);
    add(Op::Type::Load, Addr(1) << 63, 0);
    add(Op::Type::Store, (Addr(1) << 63) - 1, 0);
    for (Op::Type type :
         {Op::Type::Work, Op::Type::Barrier, Op::Type::Epoch}) {
        add(type, 0, 0);
        add(type, 0, maxArg);
    }
    // Alternating huge positive and negative deltas.
    for (Addr i = 0; i < 64; ++i)
        add(i % 2 ? Op::Type::Store : Op::Type::Load,
            i % 2 ? maxAddr - i * 8 : i * 3, 0);

    // A seeded mix: small strides, unaligned offsets, random 64-bit
    // jumps, interleaved with non-access ops that must not disturb
    // the address delta chain.
    Rng rng(20261017);
    Addr a = 1u << 20;
    for (int i = 0; i < 50000; ++i) {
        const auto type = static_cast<Op::Type>(rng.below(5));
        switch (rng.below(4)) {
          case 0: a += bytesPerWord * rng.below(32); break;
          case 1: a -= rng.below(1u << 20); break;
          case 2: a = rng.next(); break;
          default: a += rng.below(7); break;
        }
        const std::uint64_t r = rng.below(8);
        const std::uint32_t arg = r == 0   ? 0
                                  : r == 1 ? maxArg
                                           : static_cast<std::uint32_t>(
                                                 rng.next() >> (r * 4));
        add(type, a, arg);
    }

    expectDecodesTo(t, ref);

    // Trimming keeps the ops and drops the growth slack; no op takes
    // more than maxOpBytes.
    Trace trimmed = t;
    trimmed.trim();
    EXPECT_LE(trimmed.bytes(), t.bytes());
    EXPECT_LE(trimmed.bytes(), Trace::maxOpBytes * ref.size());
    expectDecodesTo(trimmed, ref);
}

TEST(TraceEncoding, EmptyTrace)
{
    Trace t;
    EXPECT_EQ(t.size(), 0u);
    EXPECT_EQ(t.bytes(), 0u);
    EXPECT_TRUE(t.begin() == t.end());
    EXPECT_TRUE(t.cursor().done());
    t.trim();
    EXPECT_EQ(t.bytes(), 0u);
    EXPECT_TRUE(t == Trace{});
    const Trace copy = t;
    EXPECT_TRUE(copy == t);
    expectDecodesTo(copy, {});
}

TEST(TraceEncoding, CopyMoveAndEquality)
{
    std::vector<Op> ref = {Op{Op::Type::Load, 0x40, 0},
                           Op{Op::Type::Work, 0, 7},
                           Op{Op::Type::Store, 0x20, 0},
                           Op{Op::Type::Barrier, 0, 0}};
    Trace t;
    for (const Op &op : ref)
        t.push_back(op);

    // A copy is equal and keeps appending from the same address.
    Trace copy = t;
    EXPECT_TRUE(copy == t);
    const Op more{Op::Type::Load, 0x28, 0};
    copy.push_back(more);
    EXPECT_FALSE(copy == t);
    t.push_back(more);
    ref.push_back(more);
    EXPECT_TRUE(copy == t);
    expectDecodesTo(copy, ref);

    // Equality ignores capacity.
    Trace trimmed = t;
    trimmed.trim();
    EXPECT_TRUE(trimmed == t);

    // Move construction and assignment hand the stream over.
    Trace moved = std::move(copy);
    EXPECT_EQ(copy.size(), 0u);
    EXPECT_EQ(copy.bytes(), 0u);
    expectDecodesTo(moved, ref);
    Trace assigned;
    assigned = std::move(moved);
    expectDecodesTo(assigned, ref);
    Trace copied;
    copied = assigned;
    EXPECT_TRUE(copied == assigned);

    // Same ops in a different order, or a different arg, differ.
    Trace other;
    other.push_back(ref[1]);
    other.push_back(ref[0]);
    EXPECT_FALSE(other == t);
    Trace arg_differs;
    arg_differs.push_back(Op{Op::Type::Work, 0, 8});
    Trace arg_same;
    arg_same.push_back(Op{Op::Type::Work, 0, 7});
    EXPECT_FALSE(arg_differs == arg_same);
}

TEST(TraceEncoding, RecordsWhetherItHoldsAnEpoch)
{
    Trace t;
    t.push_back(Op{Op::Type::Load, 0x40, 0});
    t.push_back(Op{Op::Type::Barrier, 0, 0});
    EXPECT_FALSE(t.hasEpoch());
    t.push_back(Op{Op::Type::Epoch, 0, 0});
    EXPECT_TRUE(t.hasEpoch());

    // Copies, moves and assignments carry the flag with the stream.
    const Trace copy = t;
    EXPECT_TRUE(copy.hasEpoch());
    Trace moved = std::move(t);
    EXPECT_TRUE(moved.hasEpoch());
    EXPECT_FALSE(t.hasEpoch());
    Trace assigned;
    assigned = moved;
    EXPECT_TRUE(assigned.hasEpoch());
    assigned = Trace{};
    EXPECT_FALSE(assigned.hasEpoch());

    // Every generated benchmark marks its measurement window.
    const auto wl = makeBenchmark(BenchmarkName::LU, 1);
    for (const Trace &core : materialize(*wl).traces)
        EXPECT_TRUE(core.hasEpoch());
}

} // namespace wastesim
