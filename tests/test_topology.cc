/**
 * Runtime-topology tests: Topology construction and address maps,
 * trace/topology compatibility checking, and smoke runs of all nine
 * protocols on non-4x4 systems with flit-hop conservation.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "common/topology.hh"
#include "system/runner.hh"
#include "trace/synthetic.hh"
#include "trace/trace_workload.hh"

namespace wastesim
{

namespace
{

/** A small, fast synthetic scenario for smoke runs. */
SynthParams
smokeParams()
{
    SynthParams p;
    p.seed = 7;
    p.opsPerCore = 256;
    p.phases = 2;
    p.sharedRegions = 4;
    p.regionBytes = 4 * 1024;
    p.privateBytes = 1024;
    p.sharingDegree = 2;
    return p;
}

/** Self-deleting temp file path. */
class TempPath
{
  public:
    explicit TempPath(const std::string &name)
        : path_(::testing::TempDir() + name)
    {
    }
    ~TempPath() { std::remove(path_.c_str()); }
    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

} // namespace

TEST(Topology, DefaultIsThePaperSystem)
{
    const Topology topo;
    EXPECT_EQ(topo.meshX(), 4u);
    EXPECT_EQ(topo.meshY(), 4u);
    EXPECT_EQ(topo.numTiles(), numTiles);
    EXPECT_EQ(topo.numMemCtrls(), numMemCtrls);
    const std::vector<NodeId> corners = {0, 3, 12, 15};
    EXPECT_EQ(topo.memCtrlTiles(), corners);
    EXPECT_EQ(topo.describe(), "4x4");
    EXPECT_EQ(topo, Topology(4, 4));
}

TEST(Topology, DefaultMcPlacementIsCorners)
{
    const Topology t2x2(2, 2);
    EXPECT_EQ(t2x2.memCtrlTiles(), (std::vector<NodeId>{0, 1, 2, 3}));

    const Topology t8x2(8, 2);
    EXPECT_EQ(t8x2.memCtrlTiles(), (std::vector<NodeId>{0, 7, 8, 15}));

    const Topology t8x8(8, 8);
    EXPECT_EQ(t8x8.memCtrlTiles(), (std::vector<NodeId>{0, 7, 56, 63}));

    // A 1-row mesh has only two distinct corners.
    const Topology row(8, 1);
    EXPECT_EQ(row.memCtrlTiles(), (std::vector<NodeId>{0, 7}));
}

TEST(Topology, ExplicitMcCountAndPlacement)
{
    const Topology two(4, 4, 2);
    EXPECT_EQ(two.numMemCtrls(), 2u);
    EXPECT_EQ(two.memCtrlTiles(), (std::vector<NodeId>{0, 3}));

    const Topology eight(4, 4, 8);
    EXPECT_EQ(eight.numMemCtrls(), 8u);

    const Topology custom(4, 4, std::vector<NodeId>{5, 6, 9, 10});
    EXPECT_EQ(custom.memCtrlTile(0), 5u);
    EXPECT_EQ(custom.memCtrlTile(4), 5u); // channels wrap

    EXPECT_DEATH(Topology(2, 2, std::vector<NodeId>{0, 4}),
                 "outside");
    EXPECT_DEATH(Topology(2, 2, std::vector<NodeId>{1, 1}),
                 "duplicate");
    EXPECT_DEATH(Topology(4, 4, 17), "exceed");
}

TEST(Topology, AddressMapsCoverAllComponents)
{
    const Topology topo(8, 8, 6);
    const Addr base = 1u << 20;

    std::vector<bool> slice_seen(topo.numTiles(), false);
    std::vector<bool> ch_seen(topo.numMemCtrls(), false);
    for (Addr a = base; a < base + (1u << 18); a += bytesPerLine) {
        const NodeId s = topo.homeSlice(a);
        const unsigned c = topo.memChannel(a);
        ASSERT_LT(s, topo.numTiles());
        ASSERT_LT(c, topo.numMemCtrls());
        slice_seen[s] = true;
        ch_seen[c] = true;
    }
    for (bool b : slice_seen)
        EXPECT_TRUE(b);
    for (bool b : ch_seen)
        EXPECT_TRUE(b);

    // Slice interleave granularity is preserved at any size.
    EXPECT_EQ(topo.homeSlice(base),
              topo.homeSlice(base + (sliceInterleaveLines - 1) *
                                        bytesPerLine));
}

TEST(Topology, ParseMesh)
{
    unsigned x = 0, y = 0;
    EXPECT_TRUE(Topology::parseMesh("4x4", x, y));
    EXPECT_EQ(x, 4u);
    EXPECT_EQ(y, 4u);
    EXPECT_TRUE(Topology::parseMesh("8x2", x, y));
    EXPECT_EQ(x, 8u);
    EXPECT_EQ(y, 2u);
    EXPECT_FALSE(Topology::parseMesh("", x, y));
    EXPECT_FALSE(Topology::parseMesh("4", x, y));
    EXPECT_FALSE(Topology::parseMesh("x4", x, y));
    EXPECT_FALSE(Topology::parseMesh("4x", x, y));
    EXPECT_FALSE(Topology::parseMesh("0x4", x, y));
    EXPECT_FALSE(Topology::parseMesh("4x-2", x, y));
    EXPECT_FALSE(Topology::parseMesh("999x999", x, y));
}

TEST(Topology, DescribeDistinguishesConfigurations)
{
    EXPECT_EQ(Topology(8, 8).describe(), "8x8");
    EXPECT_NE(Topology(4, 4, 2).describe(), Topology(4, 4).describe());
    EXPECT_NE(Topology(4, 4, std::vector<NodeId>{1, 2}).describe(),
              Topology(4, 4, std::vector<NodeId>{2, 1}).describe());
}

TEST(Topology, WorkloadsSizeToTopology)
{
    for (const auto &topo :
         {Topology(2, 2), Topology(4, 4), Topology(8, 2)}) {
        const auto wl = makeSynthetic(smokeParams(), topo);
        EXPECT_EQ(wl->numCores(), topo.numTiles());
        EXPECT_EQ(materialize(*wl).traces.size(), topo.numTiles());
        for (BenchmarkName b : allBenchmarks) {
            const auto bench = makeBenchmark(b, 1, topo);
            EXPECT_EQ(bench->numCores(), topo.numTiles());
        }
    }
}

TEST(Topology, TraceReplayRejectsCoreCountMismatch)
{
    TempPath tmp("topo_trace_2x2.trc");
    const auto wl = makeSynthetic(smokeParams(), Topology(2, 2));
    TraceRecorder rec(tmp.path());
    ASSERT_TRUE(rec.record(*wl)) << rec.error();

    // Matching topology loads fine...
    std::string err;
    auto ok = TraceWorkload::load(tmp.path(), Topology(2, 2), &err);
    ASSERT_NE(ok, nullptr) << err;
    EXPECT_EQ(ok->numCores(), 4u);

    // ...the default 16-core topology is rejected with a clear error.
    auto bad = TraceWorkload::load(tmp.path(), &err);
    EXPECT_EQ(bad, nullptr);
    EXPECT_NE(err.find("4 cores"), std::string::npos) << err;
    EXPECT_NE(err.find("4x4"), std::string::npos) << err;

    // Inspection without a target topology still works.
    auto any = TraceWorkload::loadAnyTopology(tmp.path(), &err);
    ASSERT_NE(any, nullptr) << err;
    EXPECT_EQ(any->numCores(), 4u);
}

TEST(Topology, SystemRejectsMismatchedWorkload)
{
    const auto wl = makeSynthetic(smokeParams(), Topology(2, 2));
    SimParams params = SimParams::scaled(); // default 4x4 topology
    EXPECT_DEATH(System(ProtocolName::MESI, *wl, params),
                 "active topology");
}

/** All nine protocols complete and conserve flit-hops on @p topo. */
static void
smokeAllProtocols(const Topology &topo)
{
    SimParams params = SimParams::scaled();
    params.topo = topo;
    const auto wl = makeSynthetic(smokeParams(), topo);
    for (ProtocolName p : allProtocols) {
        SCOPED_TRACE(std::string(protocolName(p)) + " on " +
                     topo.describe());
        const RunResult r = runOne(p, *wl, params);
        EXPECT_GT(r.cycles, 0u);
        EXPECT_GT(r.rawFlitHops, 0.0);
        // Traffic conservation: attributed == injected flit-hops.
        EXPECT_NEAR(r.traffic.total(), r.rawFlitHops,
                    r.rawFlitHops * 1e-9 + 1e-6);
    }
}

TEST(Topology, NineProtocolSmoke2x2)
{
    smokeAllProtocols(Topology(2, 2));
}

TEST(Topology, NineProtocolSmoke8x8)
{
    smokeAllProtocols(Topology(8, 8));
}

TEST(Topology, NineProtocolSmoke8x2)
{
    smokeAllProtocols(Topology(8, 2));
}

TEST(Topology, BenchmarkGeneratorRunsOn2x2)
{
    SimParams params = SimParams::scaled();
    params.topo = Topology(2, 2);
    const auto wl = makeBenchmark(BenchmarkName::LU, 1, params.topo);
    const RunResult mesi = runOne(ProtocolName::MESI, *wl, params);
    const RunResult dn = runOne(ProtocolName::DeNovo, *wl, params);
    EXPECT_GT(mesi.cycles, 0u);
    EXPECT_GT(dn.cycles, 0u);
    EXPECT_NEAR(mesi.traffic.total(), mesi.rawFlitHops,
                mesi.rawFlitHops * 1e-9 + 1e-6);
    EXPECT_NEAR(dn.traffic.total(), dn.rawFlitHops,
                dn.rawFlitHops * 1e-9 + 1e-6);
}

} // namespace wastesim
