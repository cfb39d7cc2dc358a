/** Unit tests: the seeded scenario fuzzer (src/fuzz/) — generator
 *  determinism, the one-line codec, the invariant checker, the
 *  delta-debugging minimizer and the campaign driver (crash-isolated
 *  CLI workers, checked against the in-process checker). */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <string>

#include "common/rng.hh"
#include "fuzz/campaign.hh"
#include "fuzz/invariants.hh"
#include "fuzz/minimizer.hh"
#include "fuzz/plant_bug.hh"
#include "fuzz/scenario.hh"
#include "system/runner.hh"

namespace wastesim
{

namespace
{

/** Temp path unique to this test binary run. */
std::string
tmpPath(const std::string &stem)
{
    return testing::TempDir() + "wastesim_fuzz_" + stem + "_" +
           std::to_string(getpid());
}

} // namespace

// --- common/rng.hh pinned draw sequence --------------------------------

// Scenario derivation is a pure function of the Rng stream, so the
// stream itself is part of the reproducibility contract: if these
// pinned draws ever change, every committed scenario line and corpus
// verdict silently re-rolls.  Regenerate corpus + pins together, on
// purpose, or not at all.
TEST(RngPins, Xoshiro256StarStarStreamIsFrozen)
{
    Rng r(42);
    const std::uint64_t expect[] = {
        1546998764402558742ULL,  6990951692964543102ULL,
        12544586762248559009ULL, 17057574109182124193ULL,
        18295552978065317476ULL, 14199186830065750584ULL,
        13267978908934200754ULL, 15679888225317814407ULL,
    };
    for (std::uint64_t e : expect)
        EXPECT_EQ(r.next(), e);

    Rng b(42);
    EXPECT_EQ(b.below(100), expect[0] % 100);

    // Default seed draws differently from seed 42 (seed expansion
    // actually feeds the state).
    Rng d;
    EXPECT_NE(d.next(), expect[0]);
}

TEST(RngPins, ScenarioSeedMixesCampaignAndIndex)
{
    // Neighbouring indices and seeds must land far apart.
    std::set<std::uint64_t> seen;
    for (std::uint64_t s = 1; s <= 4; ++s)
        for (std::uint64_t i = 0; i < 64; ++i)
            seen.insert(scenarioSeed(s, i));
    EXPECT_EQ(seen.size(), 4u * 64u);
    EXPECT_EQ(scenarioSeed(7, 3), scenarioSeed(7, 3));
}

// --- scenario codec ----------------------------------------------------

TEST(Scenario, EncodeParseEncodeIsByteIdenticalOverManySeeds)
{
    // Satellite: 1000 generated scenarios round-trip byte-identically
    // through the text codec.
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        const ScenarioGen gen(seed);
        for (std::uint64_t i = 0; i < 100; ++i) {
            const Scenario s = gen.at(i);
            ASSERT_TRUE(s.validate()) << s.encode();
            const std::string line = s.encode();
            Scenario back;
            std::string err;
            ASSERT_TRUE(Scenario::parse(line, back, &err))
                << line << "\n" << err;
            EXPECT_EQ(back.encode(), line);
            EXPECT_TRUE(back == s) << line;
        }
    }
}

TEST(Scenario, GeneratorIsAPureFunctionOfSeedAndIndex)
{
    const ScenarioGen a(123), b(123), c(124);
    EXPECT_TRUE(a.at(17) == b.at(17));
    // Draw order independence: at(17) after at(5) is still at(17).
    (void)a.at(5);
    EXPECT_TRUE(a.at(17) == b.at(17));
    EXPECT_FALSE(a.at(17) == c.at(17));
}

TEST(Scenario, GeneratorCoversTheSpace)
{
    const ScenarioGen gen(2026);
    std::set<std::string> protos;
    std::set<unsigned> meshes;
    bool saw_explicit_mc = false, saw_bypass = false;
    for (std::uint64_t i = 0; i < 200; ++i) {
        const Scenario s = gen.at(i);
        protos.insert(protocolName(s.protocol));
        meshes.insert(s.meshX * s.meshY);
        saw_explicit_mc = saw_explicit_mc || !s.mcTiles.empty();
        saw_bypass = saw_bypass || s.synth.bypassShared;
    }
    EXPECT_EQ(protos.size(), static_cast<std::size_t>(numProtocols));
    EXPECT_GE(meshes.size(), 8u);
    EXPECT_TRUE(saw_explicit_mc);
    EXPECT_TRUE(saw_bypass);
}

TEST(Scenario, ParseRejectsMalformedLines)
{
    Scenario s;
    std::string err;
    const std::string good = ScenarioGen(1).at(0).encode();

    EXPECT_FALSE(Scenario::parse("", s, &err));
    EXPECT_FALSE(Scenario::parse("wfz9 proto=MESI", s, &err));
    EXPECT_NE(err.find("scenario line"), std::string::npos);
    EXPECT_FALSE(Scenario::parse(good + " bogus=1", s, &err));
    EXPECT_FALSE(Scenario::parse(good + " mesh=4x4", s, &err));
    EXPECT_NE(err.find("duplicate"), std::string::npos);

    // Values are validated, not just parsed: an out-of-range MC tile
    // and a fraction above 1 both fail with "invalid scenario".
    Scenario bad = ScenarioGen(1).at(0);
    bad.synth.readFraction = 1.5;
    EXPECT_FALSE(Scenario::parse(bad.encode(), s, &err));
    EXPECT_NE(err.find("invalid scenario"), std::string::npos);

    bad = ScenarioGen(1).at(0);
    bad.mcTiles = {255}; // a real tile id, just not on this mesh
    bad.numMcs = 0;
    EXPECT_FALSE(Scenario::parse(bad.encode(), s, &err));
    EXPECT_NE(err.find("outside the mesh"), std::string::npos) << err;
}

// --- invariant checker -------------------------------------------------

TEST(Invariants, HealthyRunsSatisfyEveryLaw)
{
    // A couple of fixed scenarios across protocol families.
    const ScenarioGen gen(99);
    for (std::uint64_t i = 0; i < 3; ++i) {
        const Scenario s = gen.at(i);
        std::string crc;
        const InvariantReport rep = checkScenario(
            s, /*max_ticks=*/500'000'000ULL, /*check_replay=*/true,
            &crc);
        EXPECT_TRUE(rep.ok()) << s.encode() << "\n" << rep.describe();
        EXPECT_EQ(crc.size(), 8u);
    }
}

TEST(Invariants, ViolationsCarryPathExpectedActualDelta)
{
    InvariantReport rep;
    rep.add("dram.chan-sum", "dram.reads", 100, 93, "test");
    ASSERT_FALSE(rep.ok());
    const Violation &v = rep.violations[0];
    EXPECT_DOUBLE_EQ(v.delta(), -7.0);
    const std::string d = v.describe();
    EXPECT_NE(d.find("dram.chan-sum"), std::string::npos);
    EXPECT_NE(d.find("expected=100"), std::string::npos);
    EXPECT_NE(d.find("actual=93"), std::string::npos);
    EXPECT_NE(d.find("delta=-7"), std::string::npos);
}

TEST(Invariants, ReplayComparisonNamesTheDivergingField)
{
    const Scenario s = ScenarioGen(5).at(0);
    std::unique_ptr<Workload> wl = s.makeWorkload();
    const RunResult a = runOne(s.protocol, *wl, s.simParams());
    RunResult b = a;
    b.dramReads += 1;
    InvariantReport rep;
    compareResults(a, b, rep);
    ASSERT_FALSE(rep.ok());
    EXPECT_EQ(rep.violations[0].invariant, "replay.determinism");
    EXPECT_EQ(rep.violations[0].path, "dram.reads");
}

// --- minimizer ---------------------------------------------------------

TEST(Minimizer, ShrinksToPredicateBoundaryDeterministically)
{
    Scenario big = ScenarioGen(11).at(3);
    big.meshX = big.meshY = 8;
    big.synth.opsPerCore = 512;
    big.synth.phases = 5;
    big.synth.sharingDegree = 16;
    ASSERT_TRUE(big.validate());

    // Synthetic bug: reproduces whenever there are >= 16 tiles and
    // >= 32 ops per core.  The minimizer must stop exactly there.
    const auto repro = [](const Scenario &s) {
        return s.meshX * s.meshY >= 16 && s.synth.opsPerCore >= 32;
    };
    ASSERT_TRUE(repro(big));

    MinimizeStats stats;
    const Scenario min = minimizeScenario(big, repro, &stats);
    EXPECT_TRUE(repro(min));
    EXPECT_TRUE(min.validate());
    // Mesh and ops sit on the boundary; everything else shrank to
    // its floor.
    EXPECT_GE(stats.testsRun, 1u);
    EXPECT_GE(countSmallerAxes(big, min), 2u);
    EXPECT_LT(min.meshX * min.meshY, 8u * 8u);
    EXPECT_GE(min.meshX * min.meshY, 16u);
    EXPECT_EQ(min.synth.opsPerCore, 32u);
    EXPECT_EQ(min.synth.phases, 1u);

    // Determinism: the same inputs minimize to the same scenario.
    const Scenario again = minimizeScenario(big, repro);
    EXPECT_TRUE(again == min);
}

TEST(Minimizer, KeepsScenariosValidWhileShrinkingMesh)
{
    Scenario s = ScenarioGen(21).at(1);
    s.meshX = s.meshY = 8;
    s.mcTiles = {60, 61, 62};    // only valid on the big mesh
    s.synth.sharingDegree = 64;
    ASSERT_TRUE(s.validate());

    const auto always = [](const Scenario &) { return true; };
    const Scenario min = minimizeScenario(s, always);
    EXPECT_TRUE(min.validate());
    EXPECT_EQ(min.meshX * min.meshY, 4u);
    EXPECT_LE(min.synth.sharingDegree, 4u);
}

// --- campaign ----------------------------------------------------------

TEST(Campaign, InProcessCampaignIsDeterministicAndClean)
{
    FuzzOptions opts;
    opts.seed = 1234;
    opts.runs = 6;
    opts.program = WASTESIM_BINARY_DIR "/wastesim";
    const FuzzReport a = FuzzCampaign(opts).run();
    const FuzzReport b = FuzzCampaign(opts).run();
    EXPECT_EQ(a.outcomes.size(), 6u);
    EXPECT_TRUE(a.clean()) << a.toText();
    EXPECT_EQ(a.toText(), b.toText());
    for (const FuzzOutcome &o : a.outcomes)
        EXPECT_EQ(o.resultCrc.size(), 8u);
}

TEST(Campaign, IsolatedWorkersProduceTheSameVerdictsAsInProcess)
{
    FuzzOptions opts;
    opts.seed = 77;
    opts.runs = 4;
    opts.program = WASTESIM_BINARY_DIR "/wastesim";
    const FuzzReport iso = FuzzCampaign(opts).run();
    EXPECT_TRUE(iso.clean()) << iso.toText();
    ASSERT_EQ(iso.outcomes.size(), 4u);
    // Worker hand-off must not perturb anything: each worker's
    // verdict and result fingerprint equal the in-process checker's.
    const ScenarioGen gen(opts.seed);
    for (const FuzzOutcome &o : iso.outcomes) {
        const Scenario s = gen.at(o.index);
        EXPECT_EQ(o.line, s.encode());
        std::string crc;
        const InvariantReport rep =
            checkScenario(s, opts.maxTicks, opts.checkReplay, &crc);
        EXPECT_EQ(o.verdict, rep.ok() ? FuzzVerdict::Pass
                                      : FuzzVerdict::Violation);
        EXPECT_EQ(o.resultCrc, crc) << o.line;
    }
}

TEST(Campaign, CrashingWorkerIsCapturedNotFatal)
{
    FuzzOptions opts;
    opts.seed = 3;
    opts.runs = 2;
    // A worker binary that is not the CLI at all: exec succeeds,
    // output never appears, exit status is nonsense.
    opts.program = "/bin/false";
    const FuzzReport rep = FuzzCampaign(opts).run();
    ASSERT_EQ(rep.outcomes.size(), 2u);
    EXPECT_EQ(rep.crashes, 2u);
    for (const FuzzOutcome &o : rep.outcomes) {
        EXPECT_EQ(o.verdict, FuzzVerdict::Crash);
        EXPECT_FALSE(o.line.empty());
        EXPECT_FALSE(o.detail.empty());
    }
    // The campaign itself survived and reports the crashes.
    EXPECT_FALSE(rep.clean());
    EXPECT_NE(rep.toText().find("crashes 2"), std::string::npos);
}

TEST(Campaign, TimeBudgetStopsDrawingEarly)
{
    FuzzOptions opts;
    opts.seed = 5;
    opts.runs = 1000000;       // would run forever
    opts.timeBudgetSec = 0.2;
    opts.program = WASTESIM_BINARY_DIR "/wastesim";
    const FuzzReport rep = FuzzCampaign(opts).run();
    EXPECT_TRUE(rep.timeBudgetHit);
    EXPECT_LT(rep.outcomes.size(), 1000000u);
    EXPECT_NE(rep.toText().find("time-budget-hit"), std::string::npos);
}

// --- corpus files ------------------------------------------------------

TEST(Corpus, FilesRoundTripAndReplayVerifiesPins)
{
    const Scenario s = ScenarioGen(31).at(2);
    std::string crc;
    const InvariantReport rep =
        checkScenario(s, 500'000'000ULL, true, &crc);
    ASSERT_TRUE(rep.ok());

    CorpusEntry e;
    e.scenarioLine = s.encode();
    e.verdict = FuzzVerdict::Pass;
    e.resultCrc = crc;

    const std::string path = tmpPath("corpus") + ".scn";
    std::string err;
    ASSERT_TRUE(writeCorpusFile(path, e, &err)) << err;
    CorpusEntry back;
    ASSERT_TRUE(readCorpusFile(path, back, &err)) << err;
    EXPECT_EQ(back.scenarioLine, e.scenarioLine);
    EXPECT_EQ(back.verdict, e.verdict);
    EXPECT_EQ(back.resultCrc, e.resultCrc);

    EXPECT_TRUE(replayCorpusEntry(back, 500'000'000ULL, &err)) << err;

    // A wrong pin is a detected divergence, not a silent pass.
    back.resultCrc = "00000000";
    EXPECT_FALSE(replayCorpusEntry(back, 500'000'000ULL, &err));
    EXPECT_NE(err.find("CRC"), std::string::npos);
    std::remove(path.c_str());
}

// --- planted-bug self-test ---------------------------------------------

#ifdef WASTESIM_PLANT_BUG
// Compiled only in the -DWASTESIM_PLANT_BUG=ON self-test build: the
// deliberate NoC flit-accounting bug must be caught by the checker
// and shrunk by the minimizer.  This is the end-to-end proof that the
// fuzzer detects real conservation bugs.
TEST(PlantBug, CheckerCatchesAndMinimizerShrinksTheBug)
{
    setPlantBug(true);
    // Find a scenario that routes >= 2 hops (any mesh with a
    // diagonal); the generator's first draws include plenty.
    const ScenarioGen gen(42);
    Scenario failing;
    bool found = false;
    for (std::uint64_t i = 0; i < 10 && !found; ++i) {
        const Scenario s = gen.at(i);
        const InvariantReport rep =
            checkScenario(s, 500'000'000ULL, false);
        if (!rep.ok() &&
            rep.violations[0].invariant == "noc.link-conservation") {
            failing = s;
            found = true;
        }
    }
    ASSERT_TRUE(found);

    const auto repro = [](const Scenario &cand) {
        const InvariantReport r =
            checkScenario(cand, 500'000'000ULL, false);
        return !r.ok() &&
               r.violations[0].invariant == "noc.link-conservation";
    };
    MinimizeStats stats;
    const Scenario min = minimizeScenario(failing, repro, &stats, 64);
    EXPECT_TRUE(repro(min));
    // Acceptance: strictly smaller on at least two axes.
    EXPECT_GE(countSmallerAxes(failing, min), 2u)
        << failing.encode() << "\n -> " << min.encode();

    // Disarmed, the same scenario is healthy again.
    setPlantBug(false);
    EXPECT_TRUE(checkScenario(min, 500'000'000ULL, false).ok());
}
#else
TEST(PlantBug, DisabledBuildNeverTriggers)
{
    // In a normal build the hook constant-folds to "off".
    EXPECT_FALSE(plantBugEnabled());
}
#endif

} // namespace wastesim
