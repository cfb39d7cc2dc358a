/** Unit tests: figure builders on hand-built sweep data, golden
 *  snapshots over the committed 4x4 sweep cache, the structured
 *  figure emitters and the paper-claims table. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iterator>
#include <set>
#include <string>

#include "golden_util.hh"
#include "metrics/run_result_schema.hh"
#include "system/paper_claims.hh"
#include "system/report.hh"
#include "system/sweep_engine.hh"

namespace wastesim
{

namespace
{

using testutil::fileBytes;
using testutil::goldenPath;

/** The committed 54-cell golden sweep, assembled from its cache. */
const Sweep &
goldenSweep()
{
    static const Sweep s = [] {
        CellCache cache;
        const bool loaded =
            cache.load(goldenPath("wastesim_sweep_4x4.cache"));
        EXPECT_TRUE(loaded);
        SweepEngine engine(
            SweepSpec::fullGrid(1, SimParams::scaled()));
        Sweep sweep = std::move(engine.run(cache).at(0));
        EXPECT_EQ(engine.cellsComputed(), 0u)
            << "golden cache should cover the full grid";
        return sweep;
    }();
    return s;
}

/** A two-protocol sweep with known numbers. */
Sweep
syntheticSweep()
{
    Sweep s;
    s.benchNames = {"toy"};
    s.protoNames = {"MESI", "DBypFull"};

    RunResult mesi;
    mesi.protocol = "MESI";
    mesi.benchmark = "toy";
    mesi.traffic.ldReqCtl = 10;
    mesi.traffic.ldRespL1Used = 60;
    mesi.traffic.ldRespL1Waste = 30; // LD = 100
    mesi.traffic.stReqCtl = 50;      // ST = 50
    mesi.traffic.wbControl = 25;     // WB = 25
    mesi.traffic.ohUnblock = 25;     // OH = 25 -> total 200
    mesi.l1Waste[WasteCat::Used] = 80;
    mesi.l1Waste[WasteCat::Evict] = 20;
    mesi.l2Waste[WasteCat::Used] = 50;
    mesi.memWaste[WasteCat::Used] = 40;
    mesi.time.busy = 10;
    mesi.time.mem = 90;

    RunResult dn = mesi;
    dn.protocol = "DBypFull";
    dn.traffic = TrafficStats{};
    dn.traffic.ldReqCtl = 10;
    dn.traffic.ldRespL1Used = 60; // LD = 70
    dn.traffic.stReqCtl = 20;     // ST = 20
    dn.traffic.wbControl = 10;    // WB = 10 -> total 100
    dn.time.busy = 10;
    dn.time.mem = 40;

    s.results = {{mesi, dn}};
    return s;
}

} // namespace

TEST(Report, Fig51aNormalizesToMesiTotal)
{
    const std::string out = renderFigure(buildFig51a(syntheticSweep()));
    // MESI row: LD 50%, ST 25%, WB 12.5%, OH 12.5%, total 100%.
    EXPECT_NE(out.find("50.0%"), std::string::npos);
    EXPECT_NE(out.find("25.0%"), std::string::npos);
    EXPECT_NE(out.find("12.5%"), std::string::npos);
    EXPECT_NE(out.find("100.0%"), std::string::npos);
    // DBypFull total = 100/200 = 50% of MESI.
    EXPECT_NE(out.find("DBypFull"), std::string::npos);
}

TEST(Report, Fig51bNormalizesToMesiLoad)
{
    const std::string out = renderFigure(buildFig51b(syntheticSweep()));
    // MESI load: req 10%, L1 used 60%, L1 waste 30% of LD=100.
    EXPECT_NE(out.find("10.0%"), std::string::npos);
    EXPECT_NE(out.find("60.0%"), std::string::npos);
    EXPECT_NE(out.find("30.0%"), std::string::npos);
}

TEST(Report, Fig52ShowsTimeCategories)
{
    const std::string out = renderFigure(buildFig52(syntheticSweep()));
    EXPECT_NE(out.find("Compute"), std::string::npos);
    EXPECT_NE(out.find("Sync"), std::string::npos);
    // MESI: busy 10%, mem 90%; DBypFull total 50%.
    EXPECT_NE(out.find("90.0%"), std::string::npos);
    EXPECT_NE(out.find("50.0%"), std::string::npos);
}

TEST(Report, Fig53MemoryIncludesExcessColumn)
{
    const std::string l1 =
        renderFigure(buildFig53(syntheticSweep(), WasteLevel::L1));
    const std::string mem =
        renderFigure(buildFig53(syntheticSweep(), WasteLevel::Memory));
    EXPECT_EQ(l1.find("Excess"), std::string::npos);
    EXPECT_NE(mem.find("Excess"), std::string::npos);
}

TEST(Report, OverheadHandlesZeroOverhead)
{
    Sweep s = syntheticSweep();
    s.results[0][1].traffic.ohUnblock = 0;
    const std::string out = renderFigure(buildOverheadComposition(s));
    EXPECT_NE(out.find("-"), std::string::npos); // placeholder cells
}

TEST(Report, HeadlineNeedsKeyProtocols)
{
    Sweep s;
    s.benchNames = {"toy"};
    s.protoNames = {"OnlyOne"};
    s.results = {{RunResult{}}};
    const std::string out = renderFigure(buildHeadline(s));
    EXPECT_NE(out.find("lacks"), std::string::npos);
}

TEST(Report, HeadlineComputesReductions)
{
    const std::string out = renderFigure(buildHeadline(syntheticSweep()));
    // 100 vs 200 flit-hops: 50% reduction.
    EXPECT_NE(out.find("50.0%"), std::string::npos);
    EXPECT_NE(out.find("39.5%"), std::string::npos); // paper column
}

TEST(Report, EmptyBaselineDoesNotDivideByZero)
{
    Sweep s = syntheticSweep();
    s.results[0][0].traffic = TrafficStats{}; // zero MESI traffic
    // Must not crash; all entries become 0%.
    const std::string out = renderFigure(buildFig51a(s));
    EXPECT_FALSE(out.empty());
}

// --- golden snapshots over the committed 4x4 sweep cache --------------------

class ReportGolden
    : public ::testing::TestWithParam<const char *>
{
};

TEST_P(ReportGolden, RendersByteIdenticallyToSnapshot)
{
    // Every figure, over the real 54-cell golden sweep, must
    // reproduce its committed text snapshot byte for byte — the
    // snapshots were captured from the historical hand-rolled
    // renderers, so this pins the whole structured pipeline (builder
    // + table emitter) to the legacy output.
    const std::string name = GetParam();
    std::string file = name;
    for (char &c : file)
        if (c == '.')
            c = '_';
    const std::string ref =
        fileBytes(goldenPath("reports/" + file + ".txt"));
    ASSERT_FALSE(ref.empty()) << "missing snapshot for " << name;

    Figure f;
    ASSERT_TRUE(buildReportByName(name, goldenSweep(), Topology{}, f));
    EXPECT_EQ(renderFigure(f, ReportFormat::Table), ref) << name;
}

INSTANTIATE_TEST_SUITE_P(
    AllFigures, ReportGolden,
    ::testing::Values("fig5.1a", "fig5.1b", "fig5.1c", "fig5.1d",
                      "fig5.2", "fig5.3a", "fig5.3b", "fig5.3c",
                      "overhead", "headline", "paper"),
    [](const auto &info) {
        std::string n = info.param;
        for (char &c : n)
            if (c == '.')
                c = '_';
        return n;
    });

// --- structured emitters ----------------------------------------------------

TEST(FigureEmitters, JsonCarriesTheFigureStructure)
{
    const Figure f = buildFig51a(syntheticSweep());
    const std::string json = renderFigure(f, ReportFormat::Json);
    EXPECT_NE(json.find("\"id\": \"fig5.1a\""), std::string::npos);
    EXPECT_NE(json.find("\"value_cols\": [\"LD\", \"ST\", \"WB\", "
                        "\"Overhead\", \"Total\"]"),
              std::string::npos);
    EXPECT_NE(json.find("\"labels\": [\"DBypFull\"]"),
              std::string::npos);
    // Values are raw fractions, not formatted percentages.
    EXPECT_EQ(json.find('%'), std::string::npos);
}

TEST(FigureEmitters, CsvHasOneRowPerProtocolPlusHeader)
{
    const Figure f = buildFig51a(syntheticSweep());
    const std::string csv = renderFigure(f, ReportFormat::Csv);
    std::size_t lines = 0;
    for (char c : csv)
        lines += c == '\n';
    // One benchmark table: header + 2 protocol rows.
    EXPECT_EQ(lines, 3u);
    EXPECT_NE(csv.find("figure,table,toy,LD,ST,WB,Overhead,Total"),
              std::string::npos);
    EXPECT_NE(csv.find("fig5.1a,toy,MESI,"), std::string::npos);
}

TEST(FigureEmitters, MissingValuesRenderAsDashAndNull)
{
    Sweep s = syntheticSweep();
    s.results[0][1].traffic.ohUnblock = 0; // zero overhead row
    const Figure f = buildOverheadComposition(s);
    EXPECT_NE(renderFigure(f, ReportFormat::Table).find(" - "),
              std::string::npos);
    EXPECT_NE(renderFigure(f, ReportFormat::Json).find("null"),
              std::string::npos);
}

TEST(EnergyFigure, MesiRowNormalizesToItself)
{
    const Figure f = buildEnergy(goldenSweep(), Topology{});
    ASSERT_EQ(f.tables.size(), goldenSweep().benchNames.size());
    for (const FigureTable &t : f.tables) {
        ASSERT_FALSE(t.rows.empty());
        // MESI is the first protocol: its Total column is 1.0.
        EXPECT_NEAR(t.rows[0].values.back(), 1.0, 1e-12);
    }
}

TEST(ReportRegistry, EveryListedNameBuilds)
{
    // The name list and the dispatch share one registry; every
    // advertised report must build on a real sweep.
    Figure f;
    for (const std::string &name : reportNames()) {
        SCOPED_TRACE(name);
        EXPECT_TRUE(
            buildReportByName(name, goldenSweep(), Topology{}, f));
        EXPECT_EQ(f.id, name);
    }
    EXPECT_FALSE(
        buildReportByName("no-such-report", goldenSweep(), Topology{},
                          f));
}

// --- the paper's claims -----------------------------------------------------

TEST(PaperClaims, EveryClaimNamesKnownProtocolsBenchmarksAndReports)
{
    std::set<std::string> metrics, benches;
    for (const Metric &m : metricsSchema())
        metrics.insert(m.path);
    for (BenchmarkName b : allBenchmarks)
        benches.insert(benchmarkName(b));
    const std::vector<std::string> &reports = reportNames();
    auto known_proto = [](const char *name) {
        ProtocolName p;
        return name && protocolFromName(name, p);
    };

    ASSERT_FALSE(paperClaims().empty());
    for (const PaperClaim &c : paperClaims()) {
        SCOPED_TRACE(c.label);
        EXPECT_NE(std::find(reports.begin(), reports.end(), c.figure),
                  reports.end());
        EXPECT_TRUE(known_proto(c.from));
        const bool reduce = c.shape == ClaimShape::Reduction;
        EXPECT_EQ(known_proto(c.to), reduce);
        EXPECT_EQ(c.whole == nullptr, reduce);
        if (c.whole) {
            EXPECT_TRUE(metrics.count(c.whole));
        }
        EXPECT_TRUE(metrics.count(c.metric));
        if (c.bench) {
            EXPECT_TRUE(benches.count(c.bench)) << c.bench;
        }
        EXPECT_GT(c.paper, 0.0);
        EXPECT_LT(c.paper, 1.0);
        // Every claim measures to a number on the full golden grid.
        const auto m = measureClaim(c, goldenSweep());
        ASSERT_TRUE(m.has_value());
        EXPECT_TRUE(std::isfinite(*m));
    }
}

TEST(PaperClaims, HeadlineRowsAreTheHeadlineClaimsInTableOrder)
{
    std::vector<std::pair<std::string, double>> want, got;
    for (const PaperClaim &c : paperClaims())
        if (c.headline)
            want.emplace_back(c.label, c.paper);
    const Figure f = buildHeadline(goldenSweep());
    ASSERT_EQ(f.tables.size(), 1u);
    for (const FigureRow &row : f.tables[0].rows)
        got.emplace_back(row.labels.at(0), row.values.at(1));
    EXPECT_EQ(got, want);
}

TEST(PaperClaims, MeasuresBothShapesOnKnownNumbers)
{
    const Sweep s = syntheticSweep();
    // 200 -> 100 flit-hops: a 50% reduction.
    PaperClaim c{"fig5.1a", "traffic", 0.5, ClaimShape::Reduction,
                 "traffic.total", nullptr, "MESI", "DBypFull", nullptr,
                 false};
    EXPECT_DOUBLE_EQ(measureClaim(c, s).value(), 0.5);
    // One benchmark only: one the sweep lacks leaves no mean.
    c.bench = "LU";
    EXPECT_TRUE(std::isnan(measureClaim(c, s).value()));
    // A protocol the sweep lacks: no value at all.
    c.bench = nullptr;
    c.to = "DeNovo";
    EXPECT_FALSE(measureClaim(c, s).has_value());

    // MESI overhead is 25 of 200 flit-hops.
    const PaperClaim sh{"overhead", "share", 0.1, ClaimShape::Share,
                        "traffic.oh.total", "traffic.total", "MESI",
                        nullptr, nullptr, false};
    EXPECT_DOUBLE_EQ(measureClaim(sh, s).value(), 0.125);
}

TEST(PaperClaims, PaperReportNamesTheLargestDelta)
{
    Figure f;
    ASSERT_TRUE(buildReportByName("paper", goldenSweep(), Topology{}, f));
    ASSERT_EQ(f.tables.size(), 2u);
    const FigureTable &all = f.tables[0];
    ASSERT_EQ(all.rows.size(), paperClaims().size());
    double worst = 0;
    for (const FigureRow &row : all.rows) {
        EXPECT_DOUBLE_EQ(row.values[2], row.values[0] - row.values[1]);
        worst = std::max(worst, std::fabs(row.values[2]));
    }
    ASSERT_EQ(f.tables[1].rows.size(), 1u);
    EXPECT_EQ(std::fabs(f.tables[1].rows[0].values[2]), worst);
}

// --- placement study --------------------------------------------------------

TEST(Placement, CuratedPlacementsAreDistinct)
{
    const auto p44 = curatedMcPlacements(4, 4);
    ASSERT_EQ(p44.size(), 5u); // all five are distinct on 4x4
    EXPECT_EQ(p44[0].first, "corners");
    EXPECT_EQ(p44[1].first, "corner0");
    EXPECT_EQ(p44[1].second.numMemCtrls(), 1u);
    EXPECT_EQ(p44[1].second.memCtrlTiles().front(), 0u);
    for (std::size_t i = 0; i < p44.size(); ++i)
        for (std::size_t j = i + 1; j < p44.size(); ++j)
            EXPECT_NE(p44[i].second.describe(),
                      p44[j].second.describe())
                << p44[i].first << " vs " << p44[j].first;

    // On a 2x2 mesh the center placement coincides with the corners
    // and must be deduplicated away.
    const auto p22 = curatedMcPlacements(2, 2);
    EXPECT_EQ(p22.size(), 4u);
    for (const auto &[name, topo] : p22)
        EXPECT_NE(name, "center");
}

TEST(Placement, FigureShapesPlacementByProtocol)
{
    // Two fake single-benchmark sweeps standing in for two placements.
    Sweep a = syntheticSweep();
    Sweep b = syntheticSweep();
    a.results[0][0].maxLinkFlits = 111;
    b.results[0][0].maxLinkFlits = 222;

    const Figure f = buildPlacementStudy(
        {"corners", "corner0"},
        {Topology(4, 4), Topology(4, 4, std::vector<NodeId>{0})},
        {a, b});
    ASSERT_EQ(f.tables.size(), 1u);
    const FigureTable &t = f.tables[0];
    EXPECT_FALSE(t.percent);
    ASSERT_EQ(t.valueCols.size(), 3u);
    EXPECT_EQ(t.valueCols[0], "MaxLinkFlits");
    // 2 placements x (MESI, DBypFull).
    ASSERT_EQ(t.rows.size(), 4u);
    EXPECT_EQ(t.rows[0].labels[0], "corners");
    EXPECT_EQ(t.rows[2].labels[0], "corner0");
    EXPECT_DOUBLE_EQ(t.rows[0].values[0], 111);
    EXPECT_DOUBLE_EQ(t.rows[2].values[0], 222);
    // Energy reflects each placement's topology-aware model.
    EXPECT_GT(t.rows[0].values[2], 0);
}

} // namespace wastesim
