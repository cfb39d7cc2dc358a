/**
 * @file
 * suite_driver — the measuring process of the benchmark suite.
 *
 *   suite_driver pass --workload NAME --seed N [--smoke]
 *                [--reference CACHE] [--save-cells CACHE]
 *                [--trace-dir DIR]
 *   suite_driver layers [--smoke]
 *
 * `pass` runs every cell (protocol x input) of one workload once,
 * serially, each cell on a fresh single-threaded System.  It first
 * sets the whole workload up (generation + System construction) a few
 * times without running it, so setup_s is a median and allocator
 * warm-up is paid before timing.  Every cell is checked against the
 * conservation invariants and, with --reference, byte-compared to the
 * cell of the same key in a sweep cell cache (the golden cache for
 * paper_grid).  With --trace-dir the pass records spans around each
 * call into the simulator, turns on the program's windowed sampler,
 * and writes a Chrome trace plus the sampler JSON into DIR.
 *
 * `layers` runs the layer drivers (layers.hh).
 *
 * Both print one JSON object as the last line of stdout; `pass` also
 * prints a first line naming its cell count, so the caller can count
 * every cell of a crashed process as failed.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iomanip>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/crc32.hh"
#include "fuzz/invariants.hh"
#include "layers.hh"
#include "metrics/metric_set.hh"
#include "obs/observer.hh"
#include "system/report.hh"
#include "system/sweep_engine.hh"
#include "trace/synthetic.hh"

using namespace wastesim;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/**
 * Setup-only rounds before the measured pass (setup_s median): at
 * least setupMinRounds, and outside --smoke more until setupBudgetS
 * host seconds of setup have been timed, so the synthetic workloads'
 * ~10 ms setups still give a steady median.
 */
constexpr unsigned setupMinRounds = 4;
constexpr unsigned setupMaxRounds = 64;
constexpr double setupBudgetS = 0.5;

/** Sampler window of traced passes, in ticks. */
constexpr Tick sampleWindowTicks = 10000;

std::string
jsonString(const std::string &s)
{
    return '"' + jsonEscape(s) + '"';
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

// --- workloads --------------------------------------------------------------

/** One simulation of a workload: a protocol on one generated input. */
struct Cell
{
    std::string bench;   //!< input label ("LU", "FFT", "hotset64", ...)
    ProtocolName proto;
    SimParams params;
    std::string key;     //!< reference-cache key
    std::function<std::unique_ptr<Workload>()> make;

    std::string id() const { return bench + "/" + protocolName(proto); }
};

/** A synthetic cell of workload @p wl_name (key carries the seed). */
Cell
synthCell(const std::string &wl_name, const std::string &bench,
          ProtocolName proto, const Topology &topo, const SynthParams &sp,
          bool smoke)
{
    SimParams params = SimParams::scaled();
    params.topo = topo;
    Cell c{bench, proto, params, "", [sp, topo] {
               return makeSynthetic(sp, topo);
           }};
    c.key = wl_name + "/" + c.id() + "/seed=" + std::to_string(sp.seed) +
            (smoke ? "/smoke" : "");
    return c;
}

/**
 * The cells of workload @p name; empty for an unknown name.  Why each
 * workload exists is recorded in bench/suite/README.md.  --smoke
 * shrinks every input (paper_grid to its barnes row, which unlike LU
 * reaches DRAM) without changing which layers a workload exercises.
 */
std::vector<Cell>
workloadCells(const std::string &name, std::uint64_t seed, bool smoke)
{
    std::vector<Cell> cells;
    if (name == "paper_grid") {
        // The golden sweep's grid and cell keys, in figure order.
        const SweepSpec spec = SweepSpec::fullGrid(1, SimParams::scaled());
        for (std::size_t i = 0; i < spec.numCells(); ++i) {
            const SweepCell sc = spec.cellAt(i);
            const BenchmarkName b = spec.benches[sc.benchIdx];
            if (smoke && b != BenchmarkName::Barnes)
                continue;
            const SimParams params = spec.paramsFor(sc.topoIdx);
            cells.push_back(Cell{benchmarkName(b),
                                 spec.protocols[sc.protoIdx], params,
                                 spec.cellKey(sc), [b, params] {
                                     return makeBenchmark(b, 1, params.topo);
                                 }});
        }
    } else if (name == "mesh16_fft") {
        // Input scale 4 keeps a pass near 2 s so a run holds several;
        // DBypFull is left out: it livelocks on 16x16 (README).
        const Topology topo = smoke ? Topology(8, 8) : Topology(16, 16);
        const unsigned scale = smoke ? 1 : 4;
        SimParams params = SimParams::scaled();
        params.topo = topo;
        for (ProtocolName p : {ProtocolName::MESI, ProtocolName::DeNovo}) {
            Cell c{"FFT", p, params, "", [scale, topo] {
                       return makeBenchmark(BenchmarkName::FFT, scale, topo);
                   }};
            c.key = name + "/" + c.id() + "/scale=" + std::to_string(scale) +
                    "/" + topo.describe();
            cells.push_back(std::move(c));
        }
    } else if (name == "hotset_rw") {
        const Topology topo(8, 8);
        SynthParams sp;
        synthPresetFor("hotset64", topo, sp);
        sp.seed = seed;
        sp.opsPerCore = smoke ? 1024 : 8192;
        for (ProtocolName p : {ProtocolName::MESI, ProtocolName::DBypFull})
            cells.push_back(synthCell(name, "hotset64", p, topo, sp, smoke));
    } else if (name == "stream_dram") {
        // Stride 16 words = one new line per access; each core streams
        // its own 256 KiB region, 8x the scaled 512 KiB L2 in total.
        SynthParams sp;
        sp.seed = seed;
        sp.pattern = SynthParams::Pattern::Stride;
        sp.strideWords = wordsPerLine;
        sp.sharingDegree = 1;
        sp.sharedRegions = numTiles;
        sp.regionBytes = 256 * 1024;
        sp.sharedFraction = 0.9;
        sp.readFraction = 0.8;
        sp.opsPerCore = smoke ? 1024 : 8192;
        for (ProtocolName p : {ProtocolName::MESI, ProtocolName::DBypFull})
            cells.push_back(
                synthCell(name, "stream", p, Topology{}, sp, smoke));
    }
    return cells;
}

// --- spans ------------------------------------------------------------------

/**
 * In-memory span log written as Chrome trace-event JSON.  Every span
 * carries its cell id and the id of its parent span.  When off, open()
 * returns 0 and nothing is recorded.
 */
class SpanLog
{
  public:
    explicit SpanLog(bool on) : on_(on), t0_(Clock::now()) {}

    unsigned
    open(const char *name, const std::string &cell, unsigned parent)
    {
        if (!on_)
            return 0;
        spans_.push_back(Span{name, cell, parent, nowUs(), 0});
        return static_cast<unsigned>(spans_.size());
    }

    void
    close(unsigned id)
    {
        if (id != 0)
            spans_[id - 1].end = nowUs();
    }

    std::string
    toJson() const
    {
        std::ostringstream os;
        os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n"
           << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
              "\"tid\": 1, \"args\": {\"name\": \"suite_driver\"}}";
        os << std::fixed << std::setprecision(3);
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            os << ",\n{\"name\": " << jsonString(s.name)
               << ", \"cat\": \"suite\", \"ph\": \"X\", \"ts\": " << s.start
               << ", \"dur\": " << s.end - s.start
               << ", \"pid\": 1, \"tid\": 1, \"args\": {\"cell\": "
               << jsonString(s.cell) << ", \"span\": " << i + 1
               << ", \"parent\": " << s.parent << "}}";
        }
        os << "\n]}\n";
        return os.str();
    }

  private:
    struct Span
    {
        const char *name;
        std::string cell;
        unsigned parent;
        double start, end; //!< microseconds since the log opened
    };

    double
    nowUs() const
    {
        return std::chrono::duration<double, std::micro>(Clock::now() - t0_)
            .count();
    }

    bool on_;
    Clock::time_point t0_;
    std::vector<Span> spans_;
};

/** Run @p fn inside span @p name; returns the host seconds it took. */
template <typename Fn>
double
inSpan(SpanLog &log, const char *name, const std::string &cell,
       unsigned parent, Fn &&fn)
{
    const unsigned id = log.open(name, cell, parent);
    const auto t0 = Clock::now();
    fn();
    const double secs = secondsSince(t0);
    log.close(id);
    return secs;
}

// --- pass -------------------------------------------------------------------

struct PassOptions
{
    std::string workload;
    std::uint64_t seed = 1;
    bool smoke = false;
    std::string reference;
    std::string saveCells;
    std::string traceDir;
};

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/**
 * Mean |measured - paper| over the headline table's rows, in
 * percentage points (the simulator's error against the paper).
 */
double
paperErrorPp(const std::vector<Cell> &cells,
             const std::vector<RunResult> &results)
{
    Sweep s;
    auto index = [](std::vector<std::string> &names, const std::string &n) {
        const auto it = std::find(names.begin(), names.end(), n);
        if (it != names.end())
            return static_cast<std::size_t>(it - names.begin());
        names.push_back(n);
        return names.size() - 1;
    };
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const std::size_t b = index(s.benchNames, cells[i].bench);
        const std::size_t p =
            index(s.protoNames, protocolName(cells[i].proto));
        s.results.resize(s.benchNames.size());
        s.results[b].resize(std::max(s.results[b].size(), p + 1));
        s.results[b][p] = results[i];
    }
    const Figure f = buildHeadline(s);
    double sum = 0;
    unsigned n = 0;
    for (const FigureTable &t : f.tables) {
        for (const FigureRow &row : t.rows) {
            if (row.values.size() >= 2 && std::isfinite(row.values[0]) &&
                std::isfinite(row.values[1])) {
                sum += std::fabs(row.values[0] - row.values[1]);
                ++n;
            }
        }
    }
    return n ? 100.0 * sum / n : std::nan("");
}

int
runPass(const PassOptions &opt)
{
    const std::vector<Cell> cells =
        workloadCells(opt.workload, opt.seed, opt.smoke);
    if (cells.empty()) {
        std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
        return 2;
    }
    std::printf("{\"plan\": {\"workload\": %s, \"cells\": %zu}}\n",
                jsonString(opt.workload).c_str(), cells.size());
    std::fflush(stdout);

    CellCache reference;
    if (!opt.reference.empty() && !reference.load(opt.reference)) {
        std::fprintf(stderr, "cannot load reference cache '%s'\n",
                     opt.reference.c_str());
        return 2;
    }

    // Setup-only rounds: generate and construct every cell, no run.
    std::vector<double> setups;
    const double budget = opt.smoke ? 0 : setupBudgetS;
    double timed = 0;
    while (setups.size() < setupMinRounds ||
           (timed < budget && setups.size() < setupMaxRounds)) {
        double secs = 0;
        for (const Cell &c : cells) {
            const auto t0 = Clock::now();
            auto wl = c.make();
            auto sys = std::make_unique<System>(c.proto, *wl, c.params, 1);
            secs += secondsSince(t0);
        }
        setups.push_back(secs);
        timed += secs;
    }

    const bool traced = !opt.traceDir.empty();
    if (traced) {
        std::filesystem::create_directories(opt.traceDir + "/samples");
        obsConfig().sampleWindow = sampleWindowTicks;
        obsConfig().sampleOut = opt.traceDir + "/samples/%b.%p.json";
    }
    SpanLog log(traced);

    std::vector<RunResult> results;
    std::vector<std::string> failures;
    double gen_s = 0, build_s = 0, run_s = 0, check_s = 0;
    std::uint64_t ops = 0;
    const unsigned pass_span = log.open("pass", opt.workload, 0);
    for (const Cell &c : cells) {
        const std::string id = c.id();
        const unsigned span = log.open("cell", id, pass_span);
        std::unique_ptr<Workload> wl;
        std::unique_ptr<System> sys;
        RunResult r;
        InvariantReport rep;
        gen_s += inSpan(log, "workload.gen", id, span,
                        [&] { wl = c.make(); });
        build_s += inSpan(log, "system.build", id, span, [&] {
            sys = std::make_unique<System>(c.proto, *wl, c.params, 1);
        });
        run_s += inSpan(log, "system.run", id, span, [&] { r = sys->run(); });
        check_s += inSpan(log, "check.invariants", id, span, [&] {
            checkResultInvariants(r, rep);
            checkSystemInvariants(*sys, *wl, r, rep);
        });
        if (!rep.ok())
            failures.push_back(id + ": " + rep.describe());
        if (!opt.reference.empty()) {
            check_s += inSpan(log, "check.golden", id, span, [&] {
                RunResult want;
                if (!reference.get(c.key, want))
                    failures.push_back(id + ": no reference cell");
                else if (serializeResult(want) != serializeResult(r))
                    failures.push_back(id + ": differs from reference");
            });
        }
        std::uint64_t loads = 0, stores = 0;
        workloadOpCounts(*wl, loads, stores);
        ops += loads + stores;
        sys.reset();
        wl.reset();
        log.close(span);
        results.push_back(std::move(r));
    }
    log.close(pass_span);
    setups.push_back(gen_s + build_s);

    if (traced)
        std::ofstream(opt.traceDir + "/spans.json") << log.toJson();

    std::string blocks;
    CellCache saved;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        blocks += serializeResult(results[i]);
        saved.put(cells[i].key, results[i]);
    }
    if (!opt.saveCells.empty() && !saved.save(opt.saveCells)) {
        std::fprintf(stderr, "cannot write '%s'\n", opt.saveCells.c_str());
        return 1;
    }

    // Per-layer counts, summed over the cells.
    double events = 0, msgs = 0, flit_hops = 0, max_link = 0, l1 = 0,
           l2 = 0, nacks = 0, recalls = 0, self_inv = 0, dram_r = 0,
           dram_w = 0, row_hits = 0, queue_peak = 0, instances = 0,
           max_cell_instances = 0, cycles = 0;
    WasteCounts l1_waste, mem_waste;
    for (const RunResult &r : results) {
        events += static_cast<double>(r.eventsExecuted);
        msgs += static_cast<double>(r.messages);
        flit_hops += r.rawFlitHops;
        max_link = std::max(max_link, static_cast<double>(r.maxLinkFlits));
        l1 += static_cast<double>(r.l1Accesses);
        l2 += static_cast<double>(r.l2Accesses);
        nacks += static_cast<double>(r.nacks);
        recalls += static_cast<double>(r.recalls);
        self_inv += static_cast<double>(r.selfInvalidations);
        dram_r += static_cast<double>(r.dramReads);
        dram_w += static_cast<double>(r.dramWrites);
        row_hits += static_cast<double>(r.dramRowHits);
        for (const auto &ch : r.dramChan)
            queue_peak = std::max(queue_peak, static_cast<double>(ch.queuePeak));
        instances += static_cast<double>(r.wordsFromMemory);
        max_cell_instances = std::max(
            max_cell_instances, static_cast<double>(r.wordsFromMemory));
        cycles += static_cast<double>(r.cycles);
        l1_waste += r.l1Waste;
        mem_waste += r.memWaste;
    }
    const double n_ops = static_cast<double>(ops);
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    const std::vector<std::pair<const char *, double>> counts{
        {"sim.events", events},
        {"noc.messages", msgs},
        {"noc.flit_hops", flit_hops},
        {"noc.max_link_flits", max_link},
        {"protocol.l1_accesses", l1},
        {"protocol.l2_accesses", l2},
        {"protocol.nacks", nacks},
        {"protocol.recalls", recalls},
        {"protocol.self_invalidations", self_inv},
        {"protocol.msgs_per_op", ratio(msgs, n_ops)},
        {"dram.reads", dram_r},
        {"dram.writes", dram_w},
        {"dram.queue_peak", queue_peak},
        {"profile.mem_instances", instances},
        {"profile.l1_waste_frac", ratio(l1_waste.waste(), l1_waste.total())},
        {"profile.mem_waste_frac",
         ratio(mem_waste.waste(), mem_waste.total())},
        {"core.ops", n_ops},
        {"core.ops_per_cycle", ratio(n_ops, cycles)},
        {"system.cycles", cycles},
    };

    std::ostringstream os;
    os << "{\"workload\": " << jsonString(opt.workload)
       << ", \"seed\": " << opt.seed
       << ", \"smoke\": " << (opt.smoke ? "true" : "false")
       << ", \"cells\": " << cells.size()
       << ", \"failed_cells\": " << failures.size() << ", \"failures\": [";
    for (std::size_t i = 0; i < failures.size(); ++i)
        os << (i ? ", " : "") << jsonString(failures[i]);
    char digest[16];
    std::snprintf(digest, sizeof(digest), "%08x", crc32(blocks));
    os << "], \"digest\": \"" << digest << "\""
       << ", \"run_s\": " << jsonNumber(run_s)
       << ", \"setup_s\": " << jsonNumber(median(setups))
       << ", \"gen_s\": " << jsonNumber(gen_s)
       << ", \"build_s\": " << jsonNumber(build_s)
       << ", \"check_s\": " << jsonNumber(check_s)
       << ", \"ops\": " << ops
       << ", \"peak_rss_mb\": " << jsonNumber(peakRssMb())
       // Inputs of the *.est_* estimates, not metrics of their own: row
       // hits cover the whole run while dram.reads/writes are windowed.
       << ", \"dram_row_hits\": " << jsonNumber(row_hits)
       << ", \"max_cell_instances\": " << jsonNumber(max_cell_instances);
    if (opt.workload == "paper_grid")
        os << ", \"paper_err_pp\": "
           << jsonNumber(paperErrorPp(cells, results));
    os << ", \"counts\": {";
    for (std::size_t i = 0; i < counts.size(); ++i)
        os << (i ? ", " : "") << jsonString(counts[i].first) << ": "
           << jsonNumber(counts[i].second);
    os << "}}";
    std::printf("%s\n", os.str().c_str());
    return 0;
}

int
runLayers(bool smoke)
{
    const std::vector<suite::LayerMetric> ms = suite::runLayerDrivers(smoke);
    std::ostringstream os;
    os << "{\"layers\": {";
    for (std::size_t i = 0; i < ms.size(); ++i)
        os << (i ? ", " : "") << jsonString(ms[i].name)
           << ": {\"value\": " << jsonNumber(ms[i].value)
           << ", \"unit\": " << jsonString(ms[i].unit) << "}";
    os << "}}";
    std::printf("%s\n", os.str().c_str());
    return 0;
}

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s pass --workload NAME --seed N [--smoke]\n"
                 "           [--reference CACHE] [--save-cells CACHE]\n"
                 "           [--trace-dir DIR]\n"
                 "       %s layers [--smoke]\n",
                 argv0, argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage(argv[0]);
    const std::string mode = argv[1];
    PassOptions opt;
    for (int i = 2; i < argc; ++i) {
        const std::string a = argv[i];
        const bool has_value = i + 1 < argc;
        if (a == "--smoke")
            opt.smoke = true;
        else if (a == "--workload" && has_value)
            opt.workload = argv[++i];
        else if (a == "--seed" && has_value)
            opt.seed = std::strtoull(argv[++i], nullptr, 10);
        else if (a == "--reference" && has_value)
            opt.reference = argv[++i];
        else if (a == "--save-cells" && has_value)
            opt.saveCells = argv[++i];
        else if (a == "--trace-dir" && has_value)
            opt.traceDir = argv[++i];
        else
            return usage(argv[0]);
    }
    if (mode == "pass")
        return runPass(opt);
    if (mode == "layers")
        return runLayers(opt.smoke);
    return usage(argv[0]);
}
