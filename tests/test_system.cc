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
