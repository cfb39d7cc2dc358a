/**
 * @file
 * bench_scaling — large-mesh scaling benchmark (the ROADMAP
 * "scaling-sweep figures" driver).
 *
 * Three measurements:
 *
 *  - strong scaling: the Table-4.2 inputs at a fixed size (scale 1),
 *    decomposed over every mesh of --mesh-list.  Reports simulated
 *    traffic, waste fractions, NoC hotspot load (maxLinkFlits) and
 *    simulator wall-clock events/sec per (mesh, protocol, benchmark).
 *
 *  - weak scaling: the same grid with the benchmark inputs grown with
 *    the tile count (scale = tiles / 16, the paper's 4x4 system being
 *    scale 1), over --weak-list.
 *
 *  - sharer scan: the MESI directory's invalidation walk in
 *    isolation — the old bit-by-bit loop over the 256-wide sharer
 *    vector vs the SharerMask 64-bit word scan (ctz), on
 *    representative sharer densities at each mesh size.  This is the
 *    before/after for the word-scan rework: the bit walk costs
 *    O(maxTiles) per invalidation regardless of mesh, the word scan
 *    O(words + sharers) bounded by the live tile count.
 *
 * `--json` emits the BENCH_scaling.json format consumed by CI; the
 * default output is a human table.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/sharer_mask.hh"
#include "common/topology.hh"
#include "metrics/run_result_schema.hh"
#include "profile/energy.hh"
#include "system/runner.hh"

using namespace wastesim;

namespace
{

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

struct ScaleRow
{
    std::string mesh;
    unsigned tiles = 0;
    unsigned scale = 1;
    std::string protocol;
    std::string benchmark;
    double seconds = 0;
    std::uint64_t events = 0;
    Tick cycles = 0;
    double traffic = 0;
    double l1WasteFrac = 0;
    double memWasteFrac = 0;
    std::uint64_t maxLinkFlits = 0;
    double energyUj = 0;          //!< topology-aware estimate
    double energyNetworkFrac = 0; //!< network share of the estimate

    double eventsPerSec() const { return events / seconds; }
};

/**
 * One simulation, fastest of @p reps wall-clock repetitions (the
 * workload is built outside the timed region: trace generation is
 * not the subject).
 */
ScaleRow
runCell(const Topology &topo, unsigned scale, ProtocolName proto,
        BenchmarkName bench, unsigned reps)
{
    SimParams params = SimParams::scaled();
    params.topo = topo;
    auto wl = makeBenchmark(bench, scale, topo);

    ScaleRow row;
    row.mesh = topo.describe();
    row.tiles = topo.numTiles();
    row.scale = scale;
    const EnergyModel energy(topo);
    for (unsigned rep = 0; rep < reps; ++rep) {
        const auto t0 = std::chrono::steady_clock::now();
        const RunResult r = runOne(proto, *wl, params);
        const double secs = secondsSince(t0);
        if (rep == 0 || secs < row.seconds) {
            row.seconds = secs;
            row.protocol = r.protocol;
            row.benchmark = r.benchmark;
            // Figure data flows through the metric registry — the
            // same schema paths the JSON emitters and reports use.
            const MetricSet ms = runResultMetrics(r, &energy);
            row.events = r.eventsExecuted;
            row.cycles = static_cast<Tick>(ms.value("cycles"));
            row.traffic = ms.value("traffic.total");
            row.l1WasteFrac = ms.value("waste.l1.waste_frac");
            row.memWasteFrac = ms.value("waste.mem.waste_frac");
            row.maxLinkFlits = static_cast<std::uint64_t>(
                ms.value("max_link_flits"));
            const double total = ms.value("energy.total");
            row.energyUj = total / 1e6;
            row.energyNetworkFrac =
                total > 0 ? ms.value("energy.network") / total : 0;
        }
    }
    return row;
}

struct ScanRow
{
    std::string mesh;
    unsigned tiles = 0;
    double avgSharers = 0;
    double bitwalkNs = 0;
    double wordscanNs = 0;

    double speedup() const { return bitwalkNs / wordscanNs; }
};

/**
 * Time one directory invalidation walk both ways over a population of
 * representative masks: sharer counts are uniform in [0, tiles] (an
 * invalidation round sees anything from an empty list to a full
 * broadcast), bit positions uniform over the live tiles.
 */
ScanRow
runSharerScan(const Topology &topo, std::uint64_t iters)
{
    const unsigned tiles = topo.numTiles();
    constexpr unsigned population = 256;

    Rng rng(0x5ca1ab1e + tiles);
    std::vector<SharerMask> masks(population);
    std::uint64_t total_sharers = 0;
    for (auto &m : masks) {
        const unsigned sharers = rng.below(tiles + 1);
        for (unsigned s = 0; s < sharers; ++s)
            m.set(rng.below(tiles));
        total_sharers += m.count();
    }

    // The old implementation: visit every tile id, test each bit.
    std::uint64_t sink_bit = 0;
    const auto t_bit = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < iters; ++i) {
        const SharerMask &m = masks[i % population];
        for (CoreId c = 0; c < tiles; ++c)
            if (m.test(c))
                sink_bit += c;
    }
    const double bit_secs = secondsSince(t_bit);

    // The word scan: whole-word skips + ctz between set bits.
    std::uint64_t sink_word = 0;
    const auto t_word = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < iters; ++i) {
        const SharerMask &m = masks[i % population];
        m.forEachSet(tiles, [&](CoreId c) { sink_word += c; });
    }
    const double word_secs = secondsSince(t_word);

    if (sink_bit != sink_word) {
        std::fprintf(stderr,
                     "sharer scan mismatch: %llu (bit) vs %llu "
                     "(word)\n",
                     static_cast<unsigned long long>(sink_bit),
                     static_cast<unsigned long long>(sink_word));
        std::exit(1);
    }

    ScanRow row;
    row.mesh = topo.describe();
    row.tiles = tiles;
    row.avgSharers = static_cast<double>(total_sharers) / population;
    row.bitwalkNs = bit_secs * 1e9 / static_cast<double>(iters);
    row.wordscanNs = word_secs * 1e9 / static_cast<double>(iters);
    return row;
}

std::vector<Topology>
parseMeshList(const char *flag, const std::string &spec, unsigned mcs,
              const std::vector<NodeId> &mc_tiles)
{
    std::vector<std::pair<unsigned, unsigned>> dims;
    if (!Topology::parseMeshList(spec, dims)) {
        std::fprintf(stderr, "%s: bad mesh list '%s'\n", flag,
                     spec.c_str());
        std::exit(2);
    }
    std::vector<Topology> topos;
    for (const auto &[x, y] : dims) {
        if (!mc_tiles.empty())
            topos.emplace_back(x, y, mc_tiles);
        else
            topos.emplace_back(x, y, mcs);
    }
    return topos;
}

/** Input scale growing with the tile count (4x4 = the paper = 1x). */
unsigned
weakScaleFor(const Topology &topo)
{
    return std::max(1u, topo.numTiles() / numTiles);
}

void
printRowsJson(const std::vector<ScaleRow> &rows)
{
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const ScaleRow &r = rows[i];
        std::printf(
            "    {\"mesh\": \"%s\", \"tiles\": %u, \"scale\": %u, "
            "\"protocol\": \"%s\", \"benchmark\": \"%s\", "
            "\"seconds\": %.4f, \"events\": %llu, "
            "\"events_per_sec\": %.0f, \"cycles\": %llu, "
            "\"traffic_flit_hops\": %.0f, \"l1_waste_frac\": %.4f, "
            "\"mem_waste_frac\": %.4f, \"max_link_flits\": %llu, "
            "\"energy_uj\": %.2f, \"energy_network_frac\": %.4f}%s\n",
            r.mesh.c_str(), r.tiles, r.scale, r.protocol.c_str(),
            r.benchmark.c_str(), r.seconds,
            static_cast<unsigned long long>(r.events),
            r.eventsPerSec(),
            static_cast<unsigned long long>(r.cycles), r.traffic,
            r.l1WasteFrac, r.memWasteFrac,
            static_cast<unsigned long long>(r.maxLinkFlits),
            r.energyUj, r.energyNetworkFrac,
            i + 1 < rows.size() ? "," : "");
    }
}

void
printRowsHuman(const char *mode, const std::vector<ScaleRow> &rows)
{
    std::printf("%s scaling\n", mode);
    std::printf("%-8s %-6s %-10s %-12s %10s %14s %12s %10s %10s\n",
                "mesh", "scale", "protocol", "bench", "seconds",
                "events/sec", "traffic", "hotspot", "energy/uJ");
    for (const ScaleRow &r : rows)
        std::printf("%-8s %-6u %-10s %-12s %10.3f %14.0f %12.0f "
                    "%10llu %10.1f\n",
                    r.mesh.c_str(), r.scale, r.protocol.c_str(),
                    r.benchmark.c_str(), r.seconds, r.eventsPerSec(),
                    r.traffic,
                    static_cast<unsigned long long>(r.maxLinkFlits),
                    r.energyUj);
    std::printf("\n");
}

} // namespace

int
main(int argc, char **argv)
{
    bool json = false;
    std::string mesh_list = "2x2,4x4,8x8,16x16";
    std::string weak_list = "4x4,8x8";
    unsigned reps = 1;
    unsigned mcs = 0;
    std::uint64_t scan_iters = 2'000'000;
    std::vector<NodeId> mc_tiles;
    std::vector<ProtocolName> protocols;
    std::vector<BenchmarkName> benches;

    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--json")
            json = true;
        else if (a == "--mesh-list" && i + 1 < argc)
            mesh_list = argv[++i];
        else if (a == "--weak-list" && i + 1 < argc)
            weak_list = argv[++i];
        else if (a == "--reps" && i + 1 < argc)
            reps = static_cast<unsigned>(
                std::strtoul(argv[++i], nullptr, 10));
        else if (a == "--mcs" && i + 1 < argc)
            mcs = static_cast<unsigned>(
                std::strtoul(argv[++i], nullptr, 10));
        else if (a == "--mc-tiles" && i + 1 < argc) {
            if (!Topology::parseTileList(argv[++i], mc_tiles)) {
                std::fprintf(stderr, "--mc-tiles: bad tile list '%s'\n",
                             argv[i]);
                return 2;
            }
        } else if (a == "--protocol" && i + 1 < argc) {
            ProtocolName p;
            if (!protocolFromName(argv[++i], p)) {
                std::fprintf(stderr, "unknown protocol '%s'\n",
                             argv[i]);
                return 2;
            }
            protocols.push_back(p);
        } else if (a == "--bench" && i + 1 < argc) {
            BenchmarkName b;
            if (!benchmarkFromName(argv[++i], b)) {
                std::fprintf(stderr, "unknown benchmark '%s'\n",
                             argv[i]);
                return 2;
            }
            benches.push_back(b);
        } else if (a == "--scan-iters" && i + 1 < argc)
            scan_iters = std::strtoull(argv[++i], nullptr, 10);
        else {
            std::fprintf(
                stderr,
                "usage: %s [--json] [--mesh-list W1xH1,...]\n"
                "       [--weak-list W1xH1,... | --weak-list none]\n"
                "       [--bench B ...] [--protocol P ...] [--reps N]\n"
                "       [--mcs N] [--mc-tiles T,T,...]\n"
                "       [--scan-iters N]\n",
                argv[0]);
            return 2;
        }
    }
    if (protocols.empty())
        protocols = {ProtocolName::MESI, ProtocolName::DeNovo,
                     ProtocolName::DBypFull};
    if (benches.empty())
        benches = {BenchmarkName::LU, BenchmarkName::FFT};
    // --reps 0 (or an unparsable value) would skip the timed loop and
    // emit NaN rows; same for --scan-iters 0.
    reps = std::max(1u, reps);
    scan_iters = std::max<std::uint64_t>(1, scan_iters);

    const std::vector<Topology> strongTopos =
        parseMeshList("--mesh-list", mesh_list, mcs, mc_tiles);
    const std::vector<Topology> weakTopos =
        weak_list == "none"
            ? std::vector<Topology>{}
            : parseMeshList("--weak-list", weak_list, mcs, mc_tiles);

    std::vector<ScaleRow> strong;
    for (const Topology &t : strongTopos)
        for (BenchmarkName b : benches)
            for (ProtocolName p : protocols)
                strong.push_back(runCell(t, 1, p, b, reps));

    std::vector<ScaleRow> weak;
    for (const Topology &t : weakTopos)
        for (BenchmarkName b : benches)
            for (ProtocolName p : protocols)
                weak.push_back(runCell(t, weakScaleFor(t), p, b, reps));

    std::vector<ScanRow> scans;
    for (const Topology &t : strongTopos)
        scans.push_back(runSharerScan(t, scan_iters));

    if (json) {
        std::printf("{\n  \"strong\": [\n");
        printRowsJson(strong);
        std::printf("  ],\n  \"weak\": [\n");
        printRowsJson(weak);
        std::printf("  ],\n  \"sharer_scan\": [\n");
        for (std::size_t i = 0; i < scans.size(); ++i) {
            const ScanRow &s = scans[i];
            std::printf(
                "    {\"mesh\": \"%s\", \"tiles\": %u, "
                "\"avg_sharers\": %.1f, \"bitwalk_ns\": %.2f, "
                "\"wordscan_ns\": %.2f, \"speedup\": %.2f}%s\n",
                s.mesh.c_str(), s.tiles, s.avgSharers, s.bitwalkNs,
                s.wordscanNs, s.speedup(),
                i + 1 < scans.size() ? "," : "");
        }
        std::printf("  ]\n}\n");
        return 0;
    }

    printRowsHuman("strong", strong);
    if (!weak.empty())
        printRowsHuman("weak", weak);
    std::printf("sharer scan (per invalidation walk)\n");
    std::printf("%-8s %8s %12s %12s %9s\n", "mesh", "sharers",
                "bitwalk ns", "wordscan ns", "speedup");
    for (const ScanRow &s : scans)
        std::printf("%-8s %8.1f %12.2f %12.2f %8.2fx\n",
                    s.mesh.c_str(), s.avgSharers, s.bitwalkNs,
                    s.wordscanNs, s.speedup());
    return 0;
}
