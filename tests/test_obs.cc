/**
 * Unit tests: the observability layer.
 *
 * Debug-flag parsing and tick-window gating, the windowed counter
 * sampler (delta vs. gauge semantics, JSON round-trip), the JSON
 * reader, Chrome trace-event output, and the two invariants the layer
 * must never break: an observed simulation produces the identical
 * serialized RunResult, and observation state never leaks between
 * runs.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "golden_util.hh"
#include "obs/debug.hh"
#include "obs/jsonv.hh"
#include "obs/observer.hh"
#include "obs/sampler.hh"
#include "obs/timeline.hh"
#include "system/report_obs.hh"
#include "system/runner.hh"
#include "system/sweep_engine.hh"

namespace wastesim
{

namespace
{

/** Restores the global debug + obs state a test mutates. */
class ObsStateGuard
{
  public:
    ~ObsStateGuard()
    {
        debug::clearFlags();
        debug::sink = nullptr;
        obsConfig() = ObsConfig{};
    }
};

/** Removes a test's observation output files on scope exit, so a
 *  failing EXPECT can never leave them in the working directory. */
class ObsFilesGuard
{
  public:
    explicit ObsFilesGuard(std::vector<std::string> paths)
        : paths_(std::move(paths))
    {
        removeAll();
    }
    ~ObsFilesGuard() { removeAll(); }
    const std::vector<std::string> &paths() const { return paths_; }

  private:
    void
    removeAll() const
    {
        for (const std::string &p : paths_)
            std::remove(p.c_str());
    }

    std::vector<std::string> paths_;
};

/** Every file @p pattern expands to over @p protos x @p benches. */
std::vector<std::string>
expandAll(const std::string &pattern,
          const std::vector<ProtocolName> &protos,
          const std::vector<BenchmarkName> &benches)
{
    std::vector<std::string> out;
    for (ProtocolName p : protos)
        for (BenchmarkName b : benches)
            out.push_back(
                expandObsPath(pattern, protocolName(p), benchmarkName(b)));
    return out;
}

/** A .now() source for DPRINTF without an EventQueue. */
struct FakeClock
{
    Tick t = 0;
    Tick now() const { return t; }
};

} // namespace

TEST(DebugFlags, SetFlagsEnablesExactlyTheListedOnes)
{
    ObsStateGuard guard;
    ASSERT_TRUE(debug::setFlags("mesi,dram"));
    EXPECT_TRUE(debug::Mesi.enabled);
    EXPECT_TRUE(debug::Dram.enabled);
    EXPECT_FALSE(debug::Noc.enabled);
    EXPECT_FALSE(debug::Sweep.enabled);

    // A second call replaces, not extends, the enabled set.
    ASSERT_TRUE(debug::setFlags("noc"));
    EXPECT_FALSE(debug::Mesi.enabled);
    EXPECT_TRUE(debug::Noc.enabled);

    ASSERT_TRUE(debug::setFlags("all"));
    for (const debug::Flag *f : debug::allFlags())
        EXPECT_TRUE(f->enabled) << f->name;

    // Empty disables everything.
    ASSERT_TRUE(debug::setFlags(""));
    for (const debug::Flag *f : debug::allFlags())
        EXPECT_FALSE(f->enabled) << f->name;
}

TEST(DebugFlags, UnknownFlagFailsAndListsTheValidOnes)
{
    ObsStateGuard guard;
    std::string err;
    EXPECT_FALSE(debug::setFlags("mesi,bogus", &err));
    EXPECT_NE(err.find("bogus"), std::string::npos);
    // The error names every valid flag so the user can self-serve.
    for (const debug::Flag *f : debug::allFlags())
        EXPECT_NE(err.find(f->name), std::string::npos) << f->name;
}

TEST(DebugFlags, TraceLinesAreTickWindowGated)
{
    ObsStateGuard guard;
    ASSERT_TRUE(debug::setFlags("mesi"));
    debug::windowStart = 100;
    debug::windowEnd = 200;

    std::vector<std::string> lines;
    debug::sink = [&](const std::string &l) { lines.push_back(l); };

    FakeClock clk;
    for (Tick t : {0, 99, 100, 150, 199, 200, 1000}) {
        clk.t = t;
        DPRINTF(Mesi, clk, "at %llu",
                static_cast<unsigned long long>(t));
    }
    ASSERT_EQ(lines.size(), 3u); // 100, 150, 199
    EXPECT_NE(lines[0].find("100"), std::string::npos);
    EXPECT_NE(lines[2].find("199"), std::string::npos);

    // A disabled flag emits nothing even inside the window.
    clk.t = 150;
    DPRINTF(Noc, clk, "never");
    EXPECT_EQ(lines.size(), 3u);

    // Tickless lines (wall-clock domains) ignore the window.
    DPRINTF_NT(Mesi, "tickless");
    ASSERT_EQ(lines.size(), 4u);
    EXPECT_NE(lines[3].find("tickless"), std::string::npos);
}

TEST(Sampler, CumulativeSeriesRecordDeltasGaugesRecordLevels)
{
    std::uint64_t counter = 0;
    double level = 0;

    Sampler s;
    s.add("test.counter", "count", MetricKind::U64, true,
          [&] { return static_cast<double>(counter); });
    s.add("test.gauge", "events", MetricKind::U64, false,
          [&] { return level; });

    counter = 1000; // pre-begin activity must not count
    s.setWindowTicks(100);
    s.begin(50);

    counter += 7;
    level = 3;
    s.sample(150);

    counter += 11;
    level = 2;
    s.sample(250);

    level = 9;
    s.sample(280); // short final window, no counter activity

    const SampleData &d = s.data();
    ASSERT_EQ(d.series.size(), 2u);
    ASSERT_EQ(d.windows.size(), 3u);
    EXPECT_EQ(d.windows[0].start, 50u);
    EXPECT_EQ(d.windows[0].end, 150u);
    EXPECT_EQ(d.windows[2].end, 280u);
    EXPECT_DOUBLE_EQ(d.windows[0].values[0], 7);
    EXPECT_DOUBLE_EQ(d.windows[1].values[0], 11);
    EXPECT_DOUBLE_EQ(d.windows[2].values[0], 0);
    EXPECT_DOUBLE_EQ(d.windows[0].values[1], 3);
    EXPECT_DOUBLE_EQ(d.windows[1].values[1], 2);
    EXPECT_DOUBLE_EQ(d.windows[2].values[1], 9);
}

TEST(Sampler, JsonRoundTripIsLossless)
{
    Sampler s;
    double v = 0.1; // not exactly representable: exercises the
                    // precision-17 round-trip
    s.add("noc.flits", "flits", MetricKind::U64, true,
          [&] { return v; });
    s.setWindowTicks(10);
    s.begin(0);
    v += 1.0 / 3.0;
    s.sample(10);
    v += 2.5e-17;
    s.sample(17);

    SampleData back;
    std::string err;
    ASSERT_TRUE(sampleDataFromJson(s.toJson(), back, &err)) << err;
    EXPECT_EQ(back.windowTicks, 10u);
    ASSERT_EQ(back.series.size(), 1u);
    EXPECT_EQ(back.series[0].path, "noc.flits");
    EXPECT_EQ(back.series[0].unit, "flits");
    EXPECT_TRUE(back.series[0].cumulative);
    ASSERT_EQ(back.windows.size(), 2u);
    for (std::size_t w = 0; w < 2; ++w) {
        EXPECT_EQ(back.windows[w].start, s.data().windows[w].start);
        EXPECT_EQ(back.windows[w].end, s.data().windows[w].end);
        EXPECT_EQ(back.windows[w].values[0],
                  s.data().windows[w].values[0]); // bit-exact
    }

    // And the figure built from the parsed data has the right shape.
    const Figure f = buildTimelineFigure(back);
    ASSERT_EQ(f.tables.size(), 1u);
    EXPECT_EQ(f.tables[0].valueCols.size(), 1u);
    EXPECT_EQ(f.tables[0].rows.size(), 2u);

    // Malformed and wrong-schema documents are rejected, not crashed.
    EXPECT_FALSE(sampleDataFromJson("{", back, &err));
    EXPECT_FALSE(sampleDataFromJson("{\"a\": 1}", back, &err));
}

TEST(JsonParse, ParsesNestedDocumentsAndReportsErrors)
{
    JsonValue v;
    std::string err;
    ASSERT_TRUE(jsonParse(
        "{\"a\": [1, 2.5, \"x\\n\"], \"b\": {\"c\": true,"
        " \"d\": null}, \"e\": -3e2}",
        v, &err))
        << err;
    ASSERT_TRUE(v.isObject());
    const JsonValue *a = v.find("a");
    ASSERT_TRUE(a && a->isArray());
    ASSERT_EQ(a->items.size(), 3u);
    EXPECT_DOUBLE_EQ(a->items[1].number, 2.5);
    EXPECT_EQ(a->items[2].str, "x\n");
    const JsonValue *b = v.find("b");
    ASSERT_TRUE(b && b->isObject());
    EXPECT_TRUE(b->find("c")->boolean);
    EXPECT_DOUBLE_EQ(v.find("e")->number, -300);
    EXPECT_EQ(v.find("missing"), nullptr);
    // Member order is preserved (figure emitters depend on it).
    EXPECT_EQ(v.members[0].first, "a");
    EXPECT_EQ(v.members[2].first, "e");

    EXPECT_FALSE(jsonParse("{\"a\": }", v, &err));
    EXPECT_FALSE(err.empty());
    EXPECT_FALSE(jsonParse("[1] trailing", v, &err));
}

TEST(Timeline, EmitsValidTraceEventJson)
{
    Timeline tl;
    tl.threadName(0, 3, "slice 3");
    tl.complete("mesi", "GetS", 10, 5, 0, 3);
    tl.instant("sweep", "hit", 2, 1, 999);
    ASSERT_EQ(tl.size(), 2u); // thread metadata is not an event

    JsonValue doc;
    std::string err;
    ASSERT_TRUE(jsonParse(tl.toJson(), doc, &err)) << err;
    const JsonValue *events = doc.find("traceEvents");
    ASSERT_TRUE(events && events->isArray());
    ASSERT_EQ(events->items.size(), 3u);

    bool sawComplete = false, sawInstant = false, sawMeta = false;
    for (const JsonValue &e : events->items) {
        const std::string ph = e.find("ph")->str;
        if (ph == "X") {
            sawComplete = true;
            EXPECT_EQ(e.find("name")->str, "GetS");
            EXPECT_DOUBLE_EQ(e.find("ts")->number, 10);
            EXPECT_DOUBLE_EQ(e.find("dur")->number, 5);
            EXPECT_DOUBLE_EQ(e.find("tid")->number, 3);
        } else if (ph == "i") {
            sawInstant = true;
            EXPECT_EQ(e.find("cat")->str, "sweep");
        } else if (ph == "M") {
            sawMeta = true;
            EXPECT_EQ(e.find("name")->str, "thread_name");
            EXPECT_EQ(e.find("args")->find("name")->str, "slice 3");
        }
    }
    EXPECT_TRUE(sawComplete && sawInstant && sawMeta);
}

TEST(Observer, PathExpansionAndThreadLocalInstall)
{
    EXPECT_EQ(expandObsPath("s_%p_%b.json", "MESI", "lu"),
              "s_MESI_lu.json");
    EXPECT_EQ(expandObsPath("plain.json", "MESI", "lu"), "plain.json");

    EXPECT_EQ(simObserver(), nullptr);
    ObsConfig cfg;
    cfg.sampleWindow = 10;
    EventQueue eq;
    SimObserver o(cfg, eq);
    {
        ScopedSimObserver scoped(&o);
        EXPECT_EQ(simObserver(), &o);
    }
    EXPECT_EQ(simObserver(), nullptr);
}

TEST(Observer, ObservedRunSerializesIdenticallyToUnobserved)
{
    ObsStateGuard guard;
    SweepSpec spec = SweepSpec::fullGrid(1, SimParams::scaled());
    spec.topologies = {Topology(2, 2)};
    spec.benches = {BenchmarkName::LU};
    spec.protocols = {ProtocolName::MESI, ProtocolName::DeNovo};

    auto computeAll = [&] {
        CellCache cache;
        SweepEngine eng(spec);
        eng.run(cache);
        return cache.serialized();
    };

    const std::string plain = computeAll();

    // Full observation on — windowed sampling, timeline spans and
    // per-link heatmap snapshots: the windowed run loop and every
    // emission site must not perturb a single serialized byte.
    obsConfig().sampleWindow = 500;
    obsConfig().timelineOut = "obs_test_tl_%p_%b.json";
    obsConfig().heatmapOut = "obs_test_hm_%p_%b.csv";
    std::vector<std::string> outputs = expandAll(
        obsConfig().timelineOut, spec.protocols, spec.benches);
    for (std::string &f : expandAll(obsConfig().heatmapOut,
                                    spec.protocols, spec.benches))
        outputs.push_back(std::move(f));
    const ObsFilesGuard files(std::move(outputs));
    const std::string observed = computeAll();
    EXPECT_EQ(plain, observed)
        << "windowed sampling changed simulation results";
    for (const std::string &f : files.paths())
        EXPECT_FALSE(testutil::fileBytes(f).empty())
            << f << " was not written";

    // Tracing enabled (to a swallowing sink) must not perturb either.
    ASSERT_TRUE(debug::setFlags("all"));
    debug::sink = [](const std::string &) {};
    const std::string traced = computeAll();
    EXPECT_EQ(plain, traced) << "tracing changed simulation results";
}

TEST(Observer, GoldenCellMatchesObservedRecomputation)
{
    // One cell of the committed 54-cell golden cache, recomputed with
    // full observation active, still serializes byte-identically: the
    // cross-session proof that observability can never invalidate a
    // sweep cache.
    ObsStateGuard guard;
    CellCache golden;
    ASSERT_TRUE(
        golden.load(testutil::goldenPath("wastesim_sweep_4x4.cache")));

    const SweepSpec spec = SweepSpec::fullGrid(1, SimParams::scaled());
    const SweepCell cell = spec.cellAt(0);

    obsConfig().sampleWindow = 1000;
    CellCache fresh;
    SweepEngine eng(spec);
    eng.setCompute([](const SweepSpec &s, const SweepCell &c) {
        return runOne(s.protocols[c.protoIdx], s.benches[c.benchIdx],
                      s.scale, s.paramsFor(c.topoIdx));
    });
    RunResult r = runOne(spec.protocols[cell.protoIdx],
                         spec.benches[cell.benchIdx], spec.scale,
                         spec.paramsFor(cell.topoIdx));
    fresh.put(spec.cellKey(cell), r);

    CellCache ref;
    RunResult goldenCell;
    ASSERT_TRUE(golden.get(spec.cellKey(cell), goldenCell));
    ref.put(spec.cellKey(cell), goldenCell);
    EXPECT_EQ(ref.serialized(), fresh.serialized());
}

TEST(Observer, SamplerOutputIsDeterministicAcrossJobs)
{
    // Concurrent sweep workers each observe their own System through
    // the thread-local pointer; the per-cell sampler JSON (distinct
    // files via %p/%b) must be byte-identical whatever the pool size.
    ObsStateGuard guard;
    SweepSpec spec = SweepSpec::fullGrid(1, SimParams::scaled());
    spec.topologies = {Topology(2, 2)};
    spec.benches = {BenchmarkName::LU, BenchmarkName::FFT};
    spec.protocols = {ProtocolName::MESI, ProtocolName::DeNovo};

    obsConfig().sampleWindow = 400;
    obsConfig().sampleOut = "obs_jobs_%p_%b.json";

    auto sampleAll = [&](unsigned jobs) {
        const ObsFilesGuard files(expandAll(obsConfig().sampleOut,
                                            spec.protocols, spec.benches));
        setSweepJobs(jobs);
        CellCache cache; // fresh: every cell recomputed (and sampled)
        SweepEngine eng(spec);
        eng.run(cache);
        setSweepJobs(0);
        std::vector<std::string> out;
        for (const std::string &f : files.paths()) {
            out.push_back(testutil::fileBytes(f));
            EXPECT_FALSE(out.back().empty()) << f;
        }
        return out;
    };

    const auto serial = sampleAll(1);
    const auto parallel = sampleAll(4);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        EXPECT_EQ(serial[i], parallel[i]) << "cell " << i;
}

TEST(BenchReport, ExtractsLabeledRatesAndFlagsRegressions)
{
    const char *currentDoc =
        "{\"kernel\": [{\"protocol\": \"MESI\", \"benchmark\": \"LU\","
        " \"events_per_sec\": 60.0},"
        " {\"protocol\": \"MESI\", \"benchmark\": \"FFT\","
        " \"events_per_sec\": 200.0}],"
        " \"before\": {\"micro\": {\"events_per_sec\": 10.0}},"
        " \"after\": {\"micro\": {\"events_per_sec\": 30.0}}}";
    const char *baselineDoc =
        "{\"kernel\": [{\"protocol\": \"MESI\", \"benchmark\": \"LU\","
        " \"events_per_sec\": 100.0},"
        " {\"protocol\": \"MESI\", \"benchmark\": \"FFT\","
        " \"events_per_sec\": 210.0}]}";

    JsonValue current, baseline;
    ASSERT_TRUE(jsonParse(currentDoc, current));
    ASSERT_TRUE(jsonParse(baselineDoc, baseline));

    const auto rates = extractBenchRates(current);
    ASSERT_EQ(rates.size(), 4u);
    EXPECT_EQ(rates[0].first, "MESI/LU");
    EXPECT_EQ(rates[2].first, "before.micro"); // key-chain fallback

    // LU dropped to 0.6x: beyond a 0.25 tolerance, within 0.5.
    bool regressed = false;
    Figure f = buildBenchFigure(current, &baseline, 0.25, regressed);
    EXPECT_TRUE(regressed);
    ASSERT_EQ(f.tables.size(), 1u);
    EXPECT_EQ(f.tables[0].rows.size(), 4u);

    regressed = true;
    buildBenchFigure(current, &baseline, 0.5, regressed);
    EXPECT_FALSE(regressed);

    // Without a baseline there is nothing to regress against.
    regressed = true;
    Figure plain = buildBenchFigure(current, nullptr, 0.25, regressed);
    EXPECT_FALSE(regressed);
    EXPECT_EQ(plain.tables[0].valueCols.size(), 1u);
}

} // namespace wastesim
