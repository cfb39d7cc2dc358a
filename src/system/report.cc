#include "system/report.hh"

#include <algorithm>
#include <cmath>

#include "common/log.hh"
#include "metrics/run_result_schema.hh"
#include "profile/energy.hh"
#include "system/paper_claims.hh"

namespace wastesim
{

namespace
{

/** Index of a protocol in the sweep, or -1. */
int
protoIndex(const Sweep &s, const std::string &name)
{
    for (std::size_t i = 0; i < s.protoNames.size(); ++i)
        if (s.protoNames[i] == name)
            return static_cast<int>(i);
    return -1;
}

double
safeDiv(double a, double b)
{
    return b == 0 ? 0.0 : a / b;
}

/**
 * Geometric structure shared by the per-benchmark stacked figures:
 * one table per benchmark, one row per protocol, categories plus a
 * Total column, everything normalized to the MESI row.
 */
template <typename RowFn>
Figure
buildStacked(const Sweep &s, const char *id,
             const std::vector<std::string> &cats, const char *title,
             RowFn &&row_fn)
{
    Figure f;
    f.id = id;
    f.title = title;
    f.unit = "fraction of MESI";
    f.spaced = true;
    for (std::size_t b = 0; b < s.benchNames.size(); ++b) {
        FigureTable t;
        t.name = s.benchNames[b];
        t.labelCols = {s.benchNames[b]};
        t.valueCols = cats;
        t.valueCols.push_back("Total");
        // A quarantined MESI cell poisons the whole table: every row
        // normalizes to it, so all of them become holes, not just the
        // base row.
        const bool base_hole = s.holeAt(b, 0);
        for (std::size_t p = 0; p < s.protoNames.size(); ++p) {
            FigureRow row;
            row.labels = {s.protoNames[p]};
            if (base_hole || s.holeAt(b, p)) {
                row.values.assign(cats.size() + 1, std::nan(""));
            } else {
                row.values = row_fn(s.results[b][p], s.results[b][0]);
                double total = 0;
                for (double v : row.values)
                    total += v;
                row.values.push_back(total);
            }
            t.rows.push_back(std::move(row));
        }
        f.tables.push_back(std::move(t));
    }
    return f;
}

} // namespace

Figure
buildFig51a(const Sweep &s)
{
    return buildStacked(
        s, "fig5.1a", {"LD", "ST", "WB", "Overhead"},
        "Figure 5.1a: overall network traffic (flit-hops, "
        "normalized to MESI)",
        [](const RunResult &r, const RunResult &base) {
            const double n = base.traffic.total();
            return std::vector<double>{
                safeDiv(r.traffic.load(), n),
                safeDiv(r.traffic.store(), n),
                safeDiv(r.traffic.writeback(), n),
                safeDiv(r.traffic.overhead(), n)};
        });
}

Figure
buildFig51b(const Sweep &s)
{
    return buildStacked(
        s, "fig5.1b",
        {"ReqCtl", "RespCtl", "RespL1Used", "RespL1Waste", "RespL2Used",
         "RespL2Waste"},
        "Figure 5.1b: LD network traffic breakdown (normalized to "
        "MESI LD traffic)",
        [](const RunResult &r, const RunResult &base) {
            const double n = base.traffic.load();
            const TrafficStats &t = r.traffic;
            return std::vector<double>{
                safeDiv(t.ldReqCtl, n),      safeDiv(t.ldRespCtl, n),
                safeDiv(t.ldRespL1Used, n),  safeDiv(t.ldRespL1Waste, n),
                safeDiv(t.ldRespL2Used, n),  safeDiv(t.ldRespL2Waste, n)};
        });
}

Figure
buildFig51c(const Sweep &s)
{
    return buildStacked(
        s, "fig5.1c",
        {"ReqCtl", "RespCtl", "RespL1Used", "RespL1Waste", "RespL2Used",
         "RespL2Waste"},
        "Figure 5.1c: ST network traffic breakdown (normalized to "
        "MESI ST traffic)",
        [](const RunResult &r, const RunResult &base) {
            const double n = base.traffic.store();
            const TrafficStats &t = r.traffic;
            return std::vector<double>{
                safeDiv(t.stReqCtl, n),      safeDiv(t.stRespCtl, n),
                safeDiv(t.stRespL1Used, n),  safeDiv(t.stRespL1Waste, n),
                safeDiv(t.stRespL2Used, n),  safeDiv(t.stRespL2Waste, n)};
        });
}

Figure
buildFig51d(const Sweep &s)
{
    return buildStacked(
        s, "fig5.1d",
        {"Control", "L2 Used", "L2 Waste", "Mem Used", "Mem Waste"},
        "Figure 5.1d: WB network traffic breakdown (normalized to "
        "MESI WB traffic)",
        [](const RunResult &r, const RunResult &base) {
            const double n = base.traffic.writeback();
            const TrafficStats &t = r.traffic;
            return std::vector<double>{
                safeDiv(t.wbControl, n), safeDiv(t.wbL2Used, n),
                safeDiv(t.wbL2Waste, n), safeDiv(t.wbMemUsed, n),
                safeDiv(t.wbMemWaste, n)};
        });
}

Figure
buildFig52(const Sweep &s)
{
    return buildStacked(
        s, "fig5.2",
        {"Compute", "On-chip Hit", "ToMC", "Mem", "FromMC", "Sync"},
        "Figure 5.2: execution time breakdown (normalized to MESI)",
        [](const RunResult &r, const RunResult &base) {
            const double n = base.time.total();
            const TimeBreakdown &t = r.time;
            return std::vector<double>{
                safeDiv(t.busy, n),  safeDiv(t.onChip, n),
                safeDiv(t.toMc, n),  safeDiv(t.mem, n),
                safeDiv(t.fromMc, n), safeDiv(t.sync, n)};
        });
}

Figure
buildFig53(const Sweep &s, WasteLevel level)
{
    const char *id = level == WasteLevel::L1       ? "fig5.3a"
                     : level == WasteLevel::L2     ? "fig5.3b"
                                                  : "fig5.3c";
    const char *title =
        level == WasteLevel::L1
            ? "Figure 5.3a: L1 fetch waste (words, normalized to MESI)"
        : level == WasteLevel::L2
            ? "Figure 5.3b: L2 fetch waste (words, normalized to MESI)"
            : "Figure 5.3c: memory fetch waste (words, normalized to "
              "MESI)";

    std::vector<std::string> cats{"Used", "Fetch", "Write", "Invalidate",
                                  "Evict", "Unevicted"};
    if (level == WasteLevel::Memory)
        cats.push_back("Excess");

    return buildStacked(
        s, id, cats, title,
        [level](const RunResult &r, const RunResult &base) {
            auto pick = [level](const RunResult &x) -> const WasteCounts & {
                switch (level) {
                  case WasteLevel::L1: return x.l1Waste;
                  case WasteLevel::L2: return x.l2Waste;
                  default: return x.memWaste;
                }
            };
            const WasteCounts &w = pick(r);
            // Normalize to the MESI total excluding Excess (MESI has
            // none), matching the figure's 100% baseline.
            const double n = pick(base).total();
            std::vector<double> vals{
                safeDiv(w[WasteCat::Used], n),
                safeDiv(w[WasteCat::Fetch], n),
                safeDiv(w[WasteCat::Write], n),
                safeDiv(w[WasteCat::Invalidate], n),
                safeDiv(w[WasteCat::Evict], n),
                safeDiv(w[WasteCat::Unevicted], n)};
            if (level == WasteLevel::Memory)
                vals.push_back(safeDiv(w[WasteCat::Excess], n));
            return vals;
        });
}

Figure
buildOverheadComposition(const Sweep &s)
{
    Figure f;
    f.id = "overhead";
    f.title = "Section 5.2.4: overhead traffic composition";
    f.unit = "fraction";
    f.spaced = false;

    FigureTable t;
    t.labelCols = {"Benchmark", "Protocol"};
    t.valueCols = {"Oh/Total", "Unblock", "WbCtl", "Inv",
                   "Ack",      "Nack",    "Bloom"};
    const double none = std::nan("");
    for (std::size_t b = 0; b < s.benchNames.size(); ++b) {
        for (std::size_t p = 0; p < s.protoNames.size(); ++p) {
            const TrafficStats &tr = s.results[b][p].traffic;
            const double oh = tr.overhead();
            FigureRow row;
            row.labels = {s.benchNames[b], s.protoNames[p]};
            if (s.holeAt(b, p)) {
                row.values.assign(7, none);
            } else if (oh == 0) {
                row.values = {safeDiv(oh, tr.total()), none, none,
                              none, none, none, none};
            } else {
                row.values = {safeDiv(oh, tr.total()),
                              safeDiv(tr.ohUnblock, oh),
                              safeDiv(tr.ohWbCtl, oh),
                              safeDiv(tr.ohInv, oh),
                              safeDiv(tr.ohAck, oh),
                              safeDiv(tr.ohNack, oh),
                              safeDiv(tr.ohBloom, oh)};
            }
            t.rows.push_back(std::move(row));
        }
    }
    f.tables.push_back(std::move(t));
    return f;
}

Figure
buildHeadline(const Sweep &s)
{
    Figure f;
    f.id = "headline";
    f.unit = "fraction";
    f.spaced = false;

    if (protoIndex(s, "MESI") < 0 || protoIndex(s, "DBypFull") < 0) {
        f.note = "headline: sweep lacks MESI/DBypFull";
        return f;
    }
    f.title = "Headline comparisons (paper values in brackets):";

    FigureTable t;
    t.labelCols = {"Metric"};
    t.valueCols = {"Measured", "Paper"};
    for (const PaperClaim &c : paperClaims())
        if (c.headline)
            if (const auto measured = measureClaim(c, s))
                t.rows.push_back(FigureRow{{c.label}, {*measured, c.paper}});
    f.tables.push_back(std::move(t));
    return f;
}

Figure
buildPaperReport(const Sweep &s)
{
    Figure f;
    f.id = "paper";
    f.title = "Paper claims: measured vs paper (Delta = measured - "
              "paper, in percentage points)";
    f.unit = "fraction";
    f.spaced = true;

    FigureTable all;
    all.labelCols = {"Figure", "Claim"};
    all.valueCols = {"Measured", "Paper", "Delta"};
    FigureTable top;
    top.name = "largest";
    top.labelCols = {"Figure", "Largest |Delta|"};
    top.valueCols = all.valueCols;
    for (const PaperClaim &c : paperClaims()) {
        const double m = measureClaim(c, s).value_or(std::nan(""));
        FigureRow row{{c.figure, c.label}, {m, c.paper, m - c.paper}};
        if (std::isfinite(row.values[2]) &&
            (top.rows.empty() || std::fabs(row.values[2]) >
                                     std::fabs(top.rows[0].values[2])))
            top.rows.assign(1, row);
        all.rows.push_back(std::move(row));
    }
    f.tables.push_back(std::move(all));
    f.tables.push_back(std::move(top));
    return f;
}

Figure
buildEnergy(const Sweep &s, const Topology &topo)
{
    Figure f;
    f.id = "energy";
    f.title = "Extension: estimated dynamic energy (normalized to "
              "MESI)";
    f.unit = "fraction of MESI energy";
    f.spaced = true;

    const EnergyModel model(topo);
    for (std::size_t b = 0; b < s.benchNames.size(); ++b) {
        FigureTable t;
        t.name = s.benchNames[b];
        t.labelCols = {s.benchNames[b]};
        t.valueCols = {"Network", "L1", "L2", "DRAM", "Total"};
        const bool base_hole = s.holeAt(b, 0);
        const double base =
            model.estimate(s.results[b][0]).total();
        for (std::size_t p = 0; p < s.protoNames.size(); ++p) {
            if (base_hole || s.holeAt(b, p)) {
                t.rows.push_back(FigureRow{
                    {s.protoNames[p]},
                    std::vector<double>(5, std::nan(""))});
                continue;
            }
            const EnergyBreakdown e = model.estimate(s.results[b][p]);
            t.rows.push_back(FigureRow{
                {s.protoNames[p]},
                {safeDiv(e.network, base), safeDiv(e.l1, base),
                 safeDiv(e.l2, base), safeDiv(e.dram, base),
                 safeDiv(e.total(), base)}});
        }
        f.tables.push_back(std::move(t));
    }
    return f;
}

std::vector<std::pair<std::string, Topology>>
curatedMcPlacements(unsigned mesh_x, unsigned mesh_y)
{
    std::vector<std::pair<std::string, Topology>> out;

    auto sortedTiles = [](const Topology &t) {
        std::vector<NodeId> s = t.memCtrlTiles();
        std::sort(s.begin(), s.end());
        return s;
    };
    auto add = [&](const std::string &name, Topology topo) {
        for (const auto &[n, t] : out)
            if (sortedTiles(t) == sortedTiles(topo))
                return; // placement coincides on this mesh
        out.emplace_back(name, std::move(topo));
    };
    auto tileAt = [&](unsigned cx, unsigned cy) {
        return static_cast<NodeId>(cy * mesh_x + cx);
    };
    auto dedup = [](std::vector<NodeId> tiles) {
        std::vector<NodeId> u;
        for (NodeId t : tiles)
            if (std::find(u.begin(), u.end(), t) == u.end())
                u.push_back(t);
        return u;
    };

    // The paper's layout: one controller per mesh corner.
    add("corners", Topology(mesh_x, mesh_y));
    // The mc-corner worst case: everything funnels into tile 0.
    add("corner0", Topology(mesh_x, mesh_y, std::vector<NodeId>{0}));
    // Midpoints of the four edges.
    add("edge-mid",
        Topology(mesh_x, mesh_y,
                 dedup({tileAt(mesh_x / 2, 0), tileAt(0, mesh_y / 2),
                        tileAt(mesh_x - 1, mesh_y / 2),
                        tileAt(mesh_x / 2, mesh_y - 1)})));
    // The central block of the mesh.
    add("center",
        Topology(mesh_x, mesh_y,
                 dedup({tileAt((mesh_x - 1) / 2, (mesh_y - 1) / 2),
                        tileAt(mesh_x / 2, (mesh_y - 1) / 2),
                        tileAt((mesh_x - 1) / 2, mesh_y / 2),
                        tileAt(mesh_x / 2, mesh_y / 2)})));
    // Four tiles spread along the main diagonal.
    {
        std::vector<NodeId> diag;
        for (unsigned i = 0; i < 4; ++i) {
            const unsigned cx = static_cast<unsigned>(
                std::lround(i * (mesh_x - 1) / 3.0));
            const unsigned cy = static_cast<unsigned>(
                std::lround(i * (mesh_y - 1) / 3.0));
            diag.push_back(tileAt(cx, cy));
        }
        add("diagonal", Topology(mesh_x, mesh_y, dedup(diag)));
    }
    return out;
}

Figure
buildPlacementStudy(const std::vector<std::string> &names,
                    const std::vector<Topology> &topos,
                    const std::vector<Sweep> &sweeps)
{
    fatal_if(names.size() != topos.size() ||
                 names.size() != sweeps.size() || names.empty(),
             "placement study: need one name/topology/sweep per "
             "placement");
    // Every placement must carry the same benchmark/protocol grid;
    // the loops below index sweeps[i] with sweeps[0]'s shape.
    for (const Sweep &s : sweeps)
        fatal_if(s.benchNames != sweeps[0].benchNames ||
                     s.protoNames != sweeps[0].protoNames,
                 "placement study: sweeps disagree on the "
                 "benchmark/protocol grid");

    Figure f;
    f.id = "placement";
    f.title = "MC placement study: NoC hotspot load, execution time "
              "and energy per placement";
    f.unit = "flits / cycles / uJ";
    f.spaced = true;

    // The headline protocol pair when present, else the whole grid.
    std::vector<std::size_t> protos;
    for (const char *want : {"MESI", "DBypFull"}) {
        const int idx = protoIndex(sweeps[0], want);
        if (idx >= 0)
            protos.push_back(static_cast<std::size_t>(idx));
    }
    if (protos.empty())
        for (std::size_t p = 0; p < sweeps[0].protoNames.size(); ++p)
            protos.push_back(p);

    for (std::size_t b = 0; b < sweeps[0].benchNames.size(); ++b) {
        FigureTable t;
        t.name = sweeps[0].benchNames[b];
        t.labelCols = {sweeps[0].benchNames[b], "Protocol"};
        t.valueCols = {"MaxLinkFlits", "Cycles", "Energy(uJ)"};
        t.percent = false;
        for (std::size_t i = 0; i < sweeps.size(); ++i) {
            const EnergyModel model(topos[i]);
            for (std::size_t p : protos) {
                if (sweeps[i].holeAt(b, p)) {
                    t.rows.push_back(FigureRow{
                        {names[i], sweeps[i].protoNames[p]},
                        std::vector<double>(3, std::nan(""))});
                    continue;
                }
                const RunResult &r = sweeps[i].results[b][p];
                // Read through the metric registry: the placement
                // figure consumes the same schema paths as the JSON
                // emitters and bench rows.
                const MetricSet ms = runResultMetrics(r, &model);
                t.rows.push_back(FigureRow{
                    {names[i], sweeps[i].protoNames[p]},
                    {ms.value("max_link_flits"), ms.value("cycles"),
                     ms.value("energy.total") / 1e6}});
            }
        }
        f.tables.push_back(std::move(t));
    }
    return f;
}

namespace
{

/** The single-sweep report registry: one entry drives both the name
 *  list and the dispatch, so they cannot drift apart. */
struct ReportEntry
{
    const char *name;
    Figure (*build)(const Sweep &, const Topology &);
};

const ReportEntry reportRegistry[] = {
    {"fig5.1a", [](const Sweep &s, const Topology &) {
         return buildFig51a(s);
     }},
    {"fig5.1b", [](const Sweep &s, const Topology &) {
         return buildFig51b(s);
     }},
    {"fig5.1c", [](const Sweep &s, const Topology &) {
         return buildFig51c(s);
     }},
    {"fig5.1d", [](const Sweep &s, const Topology &) {
         return buildFig51d(s);
     }},
    {"fig5.2", [](const Sweep &s, const Topology &) {
         return buildFig52(s);
     }},
    {"fig5.3a", [](const Sweep &s, const Topology &) {
         return buildFig53(s, WasteLevel::L1);
     }},
    {"fig5.3b", [](const Sweep &s, const Topology &) {
         return buildFig53(s, WasteLevel::L2);
     }},
    {"fig5.3c", [](const Sweep &s, const Topology &) {
         return buildFig53(s, WasteLevel::Memory);
     }},
    {"overhead", [](const Sweep &s, const Topology &) {
         return buildOverheadComposition(s);
     }},
    {"headline", [](const Sweep &s, const Topology &) {
         return buildHeadline(s);
     }},
    {"paper", [](const Sweep &s, const Topology &) {
         return buildPaperReport(s);
     }},
    {"energy", [](const Sweep &s, const Topology &topo) {
         return buildEnergy(s, topo);
     }},
};

} // namespace

const std::vector<std::string> &
reportNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> out;
        for (const ReportEntry &e : reportRegistry)
            out.emplace_back(e.name);
        return out;
    }();
    return names;
}

bool
buildReportByName(const std::string &name, const Sweep &s,
                  const Topology &topo, Figure &out)
{
    for (const ReportEntry &e : reportRegistry) {
        if (name == e.name) {
            out = e.build(s, topo);
            // Quarantined cells render as "-" holes; the title says
            // so, because a silent dash invites misreading the grid
            // as complete.
            const std::size_t nh = s.numHoles();
            if (nh > 0 && !out.title.empty())
                out.title += " [" + std::to_string(nh) +
                             " quarantined cell(s) shown as -]";
            return true;
        }
    }
    return false;
}

} // namespace wastesim
