/** System-level tests: end-to-end runs, conservation, reports. */

#include <gtest/gtest.h>

#include "script_workload.hh"
#include "system/report.hh"
#include "system/runner.hh"
#include "system/system.hh"

namespace wastesim
{

TEST(System, TrafficConservation)
{
    // Every injected flit-hop is attributed to exactly one bucket
    // once the profilers resolve (no-epoch workload: nothing is
    // excluded as warm-up).
    auto wl = makeRandomWorkload(11);
    for (ProtocolName p :
         {ProtocolName::MESI, ProtocolName::DValidateL2}) {
        System sys(p, *wl, SimParams::scaled());
        const RunResult r = sys.run();
        EXPECT_NEAR(r.traffic.total(), r.rawFlitHops,
                    r.rawFlitHops * 1e-9 + 1e-6)
            << protocolName(p);
    }
}

TEST(System, ExecutionTimeBreakdownIsPositive)
{
    auto wl = makeRandomWorkload(12);
    System sys(ProtocolName::MESI, *wl, SimParams::scaled());
    const RunResult r = sys.run();
    EXPECT_GT(r.time.busy, 0.0);
    EXPECT_GT(r.time.total(), 0.0);
    EXPECT_GT(r.cycles, 0u);
}

TEST(System, EpochExcludesWarmup)
{
    // Identical bodies; with an epoch before the second, the measured
    // traffic roughly halves.
    auto build = [](bool with_epoch) {
        auto wl = std::make_unique<ScriptWorkload>();
        const Addr a = wl->alloc(64 * 1024);
        Region r;
        r.name = "data";
        r.base = a;
        r.size = 64 * 1024;
        const RegionId rid = wl->regionTable().add(r);
        auto phase = [&](bool writes) {
            for (unsigned i = 0; i < 256; ++i) {
                const Addr addr = a + i * bytesPerLine / 4;
                if (writes)
                    wl->store(i % numTiles, addr);
                else
                    wl->load(i % numTiles, addr);
            }
            wl->barrierAll({rid});
        };
        phase(false);
        if (with_epoch)
            wl->epochAll();
        // Stores force upgrades/registrations: measured traffic > 0
        // even with warm caches.
        phase(true);
        return wl;
    };

    auto whole = build(false);
    auto epoched = build(true);
    const RunResult all =
        runOne(ProtocolName::MESI, *whole, SimParams::scaled());
    const RunResult part =
        runOne(ProtocolName::MESI, *epoched, SimParams::scaled());
    EXPECT_LT(part.traffic.total(), all.traffic.total());
    EXPECT_GT(part.traffic.total(), 0.0);
}

TEST(System, AllProtocolsCompleteOnRandomWorkload)
{
    auto wl = makeRandomWorkload(13, 2, 150);
    for (ProtocolName p : allProtocols) {
        System sys(p, *wl, SimParams::scaled());
        const RunResult r = sys.run();
        EXPECT_TRUE(sys.coresDone()) << protocolName(p);
        EXPECT_GT(r.traffic.total(), 0.0) << protocolName(p);
        sys.checkInvariants();
    }
}

TEST(System, RunnerSweepShape)
{
    Sweep s = runSweep({BenchmarkName::Barnes},
                       {ProtocolName::MESI, ProtocolName::DValidateL2},
                       1, SimParams::scaled());
    ASSERT_EQ(s.benchNames.size(), 1u);
    ASSERT_EQ(s.protoNames.size(), 2u);
    ASSERT_EQ(s.results.size(), 1u);
    ASSERT_EQ(s.results[0].size(), 2u);
    EXPECT_EQ(s.results[0][0].protocol, "MESI");
    EXPECT_EQ(s.results[0][0].benchmark, "barnes");
}

TEST(System, ReportsRenderWithoutCrashing)
{
    Sweep s = runSweep({BenchmarkName::Barnes},
                       {ProtocolName::MESI, ProtocolName::MMemL1,
                        ProtocolName::DFlexL1, ProtocolName::DBypFull},
                       1, SimParams::scaled());
    for (const std::string &name : reportNames()) {
        Figure f;
        ASSERT_TRUE(buildReportByName(name, s, Topology{}, f)) << name;
        EXPECT_FALSE(renderFigure(f).empty()) << name;
    }
    // MESI normalizes to 100% of itself.
    const std::string fig = renderFigure(buildFig51a(s));
    EXPECT_NE(fig.find("100.0%"), std::string::npos);
}

TEST(System, DeadlockIsDetectedNotHung)
{
    // A workload whose barrier can never release (one core exits
    // early) must be caught by the drain check, not loop forever.
    auto wl = std::make_unique<ScriptWorkload>();
    const Addr a = wl->alloc(4096);
    // Cores 1..15 load and arrive at a barrier; core 0's trace is
    // empty, so it never arrives.  Deliberately malformed input.
    std::vector<CoreId> arriving;
    for (CoreId c = 1; c < numTiles; ++c) {
        wl->load(c, a);
        arriving.push_back(c);
    }
    wl->barrierFor(arriving);
    EXPECT_DEATH(
        {
            System sys(ProtocolName::MESI, *wl, SimParams::scaled());
            sys.run();
        },
        "deadlock");
}

namespace
{

/** A script whose stated epoch is fixed, whatever its ops hold. */
class StatedEpochWorkload : public ScriptWorkload
{
  public:
    explicit StatedEpochWorkload(bool stated) : stated_(stated) {}
    bool hasEpoch() const override { return stated_; }

  private:
    bool stated_;
};

} // namespace

TEST(System, StatedEpochMustMatchTheOps)
{
    // System decides whether the memory profiler waits for an epoch
    // before any op is generated; a workload that misstates it panics.
    StatedEpochWorkload none(false);
    const Addr a = none.alloc(4096);
    none.load(0, a);
    none.epochAll();
    none.finish();
    EXPECT_DEATH(
        {
            System sys(ProtocolName::MESI, none, SimParams::scaled());
            sys.run();
        },
        "states it has no Epoch op");

    StatedEpochWorkload some(true);
    some.load(0, some.alloc(4096));
    some.finish();
    EXPECT_DEATH(
        {
            System sys(ProtocolName::DeNovo, some, SimParams::scaled());
            sys.run();
        },
        "states it has an Epoch op");
}

namespace
{

/** Two barrier phases per core; generate() counts its calls. */
class CountedStream : public Workload
{
  public:
    CountedStream() : base_(alloc(4096)) {}
    std::string name() const override { return "counted"; }
    std::string inputDesc() const override { return "two phases"; }

    Phases
    generate(TraceSink &out) const override
    {
        ++generated;
        for (CoreId c = 0; c < numCores(); ++c) {
            out.load(c, base_ + c * bytesPerLine);
            out.store(c, base_ + c * bytesPerLine);
        }
        out.epochAll();
        co_await out.barrierAll();
        for (CoreId c = 0; c < numCores(); ++c)
            out.load(c, base_ + c * bytesPerLine + bytesPerWord);
    }

    mutable unsigned generated = 0;

  private:
    Addr base_;
};

} // namespace

TEST(System, FinishedRunKeepsItsOpCounts)
{
    // The invariant checks ask for op counts after a run; the run's
    // own stream already counted them, so they cost no second pass.
    CountedStream wl;
    System sys(ProtocolName::MESI, wl, SimParams::scaled());
    sys.run();
    EXPECT_EQ(wl.generated, 1u);
    const OpCounts &n = wl.opCounts();
    EXPECT_EQ(wl.generated, 1u) << "opCounts() streamed the workload again";
    const std::uint64_t cores = wl.numCores();
    EXPECT_EQ(n.loads, 2 * cores);
    EXPECT_EQ(n.stores, cores);
    EXPECT_EQ(n.ops, 5 * cores); // plus an Epoch and a Barrier each

    // A lent trace counts the same way as a generated one.
    ScriptWorkload script;
    const Addr a = script.alloc(4096);
    script.load(0, a);
    script.store(1, a);
    script.work(1, 7);
    script.load(1, a + bytesPerWord);
    script.finish();
    const OpCounts &m = script.opCounts();
    EXPECT_EQ(m.loads, 2u);
    EXPECT_EQ(m.stores, 1u);
    EXPECT_EQ(m.ops, 4u + script.numCores()); // finish(): a Barrier each
}

TEST(System, MemoryWordCountsMatchProfiler)
{
    auto wl = makeRandomWorkload(14, 2, 100);
    System sys(ProtocolName::MESI, *wl, SimParams::scaled());
    const RunResult r = sys.run();
    // Words sent from memory == memory profiler instances (no epoch).
    EXPECT_EQ(r.wordsFromMemory,
              static_cast<std::uint64_t>(
                  r.memWaste.total() - r.memWaste[WasteCat::Excess]));
}

} // namespace wastesim
