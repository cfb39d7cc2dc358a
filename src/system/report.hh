/**
 * @file
 * Report generators: every figure/table of the paper built as a
 * structured Figure (metrics/figure.hh) from sweep results, the
 * paper's claims set against the measured values, and the extension
 * reports (energy, MC-placement study).  All bars are normalized to
 * MESI (the first protocol of a sweep), exactly as in Figures
 * 5.1-5.3.  renderFigure() turns any of them into a text table, JSON
 * or CSV; `wastesim report` renders them by name from a sweep cache.
 */

#ifndef WASTESIM_SYSTEM_REPORT_HH
#define WASTESIM_SYSTEM_REPORT_HH

#include <string>
#include <utility>
#include <vector>

#include "metrics/figure.hh"
#include "system/runner.hh"

namespace wastesim
{

/** Figs. 5.3a/b/c: fetch waste at a hierarchy level. */
enum class WasteLevel { L1, L2, Memory };

// --- structured figure builders ---------------------------------------------

/** Fig. 5.1a: overall network traffic (LD/ST/WB/Overhead). */
Figure buildFig51a(const Sweep &s);

/** Fig. 5.1b: load traffic breakdown. */
Figure buildFig51b(const Sweep &s);

/** Fig. 5.1c: store traffic breakdown. */
Figure buildFig51c(const Sweep &s);

/** Fig. 5.1d: writeback traffic breakdown. */
Figure buildFig51d(const Sweep &s);

/** Fig. 5.2: execution time breakdown. */
Figure buildFig52(const Sweep &s);

/** Figs. 5.3a/b/c: fetch-waste breakdown at @p level. */
Figure buildFig53(const Sweep &s, WasteLevel level);

/** Section 5.2.4: overhead traffic composition for MESI protocols. */
Figure buildOverheadComposition(const Sweep &s);

/**
 * Headline averages (abstract / Section 5.1): the claims marked
 * headline in paper_claims.hh, measured against the paper's values.
 * A row whose protocols the sweep lacks is left out; a sweep without
 * MESI or DBypFull yields a note instead of a table.
 */
Figure buildHeadline(const Sweep &s);

/**
 * Every claim of paper_claims.hh: Measured, Paper and their
 * difference in percentage points, then the claim with the largest
 * |difference| in a table of its own.
 */
Figure buildPaperReport(const Sweep &s);

/**
 * Extension: estimated dynamic energy per protocol, normalized to
 * MESI, using the topology-aware EnergyModel on @p topo (the
 * topology the sweep ran on).
 */
Figure buildEnergy(const Sweep &s, const Topology &topo);

/**
 * Extension: MC-placement study.  One sweep per curated placement of
 * the same mesh; for each benchmark, the NoC hotspot load
 * (maxLinkFlits), execution time and estimated energy of each
 * (placement, protocol) pair side by side — the data behind the
 * ROADMAP "placement study figures" item.  @p names, @p topos and
 * @p sweeps run parallel, one entry per placement.
 */
Figure buildPlacementStudy(const std::vector<std::string> &names,
                           const std::vector<Topology> &topos,
                           const std::vector<Sweep> &sweeps);

/**
 * Curated memory-controller placements for a mesh_x x mesh_y mesh:
 * the paper's corner placement, the mc-corner worst case (one MC on
 * tile 0), edge midpoints, the mesh center and the main diagonal.
 * Placements that coincide on small meshes are deduplicated, so every
 * returned topology is distinct.
 */
std::vector<std::pair<std::string, Topology>>
curatedMcPlacements(unsigned mesh_x, unsigned mesh_y);

/**
 * Build the single-sweep report @p name ("fig5.1a" ... "fig5.3c",
 * "overhead", "headline", "paper", "energy") over @p s, which ran on
 * @p topo.  Returns false for unknown names (the multi-sweep
 * "placement" report has its own builder above).
 */
bool buildReportByName(const std::string &name, const Sweep &s,
                       const Topology &topo, Figure &out);

/** All single-sweep report names, in usage/figure order. */
const std::vector<std::string> &reportNames();

} // namespace wastesim

#endif // WASTESIM_SYSTEM_REPORT_HH
