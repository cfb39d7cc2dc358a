/**
 * @file
 * `wastesim` — the command-line front end to the simulator.
 *
 * Each subcommand's flags are declared once, in the table commands()
 * builds: one parser walks it, and `wastesim help` and
 * `wastesim <command> --help` are printed from it.  All simulations
 * use the scaled Table-4.1 hierarchy (SimParams::scaled()) unless
 * --full-size is given.
 */

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <optional>
#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include "common/log.hh"
#include "common/topology.hh"
#include "fuzz/campaign.hh"
#include "metrics/run_result_schema.hh"
#include "obs/debug.hh"
#include "obs/jsonv.hh"
#include "obs/observer.hh"
#include "obs/sampler.hh"
#include "system/report.hh"
#include "system/report_obs.hh"
#include "system/runner.hh"
#include "system/supervisor.hh"
#include "system/sweep_engine.hh"
#include "trace/synthetic.hh"
#include "trace/trace_workload.hh"
#include "workload/workload.hh"

using namespace wastesim;

namespace
{

/**
 * Parse @p v, the value of @p flag, as a T: a string, a finite
 * double, or an unsigned integer that fits T.  A bool is a switch,
 * true when given.  Fatal when @p v is malformed.
 */
template <class T>
T
parse(const char *flag, const std::string &v)
{
    if constexpr (std::is_same_v<T, std::string>) {
        return v;
    } else if constexpr (std::is_same_v<T, bool>) {
        return true;
    } else if constexpr (std::is_floating_point_v<T>) {
        char *end = nullptr;
        const double r = std::strtod(v.c_str(), &end);
        // strtod also reads "nan" and "inf"; NaN passes every range
        // check, since each of its comparisons is false.
        fatal_if(end == v.c_str() || *end != '\0' || !std::isfinite(r),
                 "%s needs a finite number, got '%s'", flag, v.c_str());
        return r;
    } else {
        const unsigned long long max = std::numeric_limits<T>::max();
        char *end = nullptr;
        errno = 0;
        const unsigned long long r = std::strtoull(v.c_str(), &end, 10);
        // strtoull silently wraps negatives; reject them explicitly.
        fatal_if(end == v.c_str() || *end != '\0' ||
                     v.find('-') != std::string::npos || errno == ERANGE ||
                     r > max,
                 "%s needs an unsigned integer in [0, %llu], got '%s'",
                 flag, max, v.c_str());
        return static_cast<T>(r);
    }
}

/** Stores @p v, the value of @p flag (empty for a switch). */
using Setter = std::function<void(const char *flag, const std::string &v)>;

/** One flag of a command's table; the parser and the help read it. */
struct Flag
{
    const char *name;    //!< "--mesh"; a name without a leading '-'
                         //!< takes the positional arguments
    const char *metavar; //!< the value's placeholder; nullptr: a switch
    const char *help;    //!< its line in `<command> --help`
    Setter set;
    bool required = false;
    const char *needs = nullptr;    //!< a flag this one is invalid without
    const char *excludes = nullptr; //!< a flag this one is invalid with
};

constexpr bool Required = true;

using Flags = std::vector<Flag>;

Flags
operator+(Flags a, const Flags &b)
{
    a.insert(a.end(), b.begin(), b.end());
    return a;
}

/** @p flags, each valid only together with the flag @p other. */
Flags
needing(const char *other, Flags flags)
{
    for (Flag &f : flags)
        f.needs = other;
    return flags;
}

/** @p flags, each invalid together with the flag @p other. */
Flags
excluding(const char *other, Flags flags)
{
    for (Flag &f : flags)
        f.excludes = other;
    return flags;
}

/** A setter that parses the value as a T into @p dst. */
template <class T>
Setter
store(T &dst)
{
    return [&dst](const char *flag, const std::string &v) {
        dst = parse<T>(flag, v);
    };
}

/** A switch's setter: sets @p dst to @p value. */
template <class T>
Setter
assign(T &dst, std::type_identity_t<T> value)
{
    return [&dst, value](const char *, const std::string &) {
        dst = value;
    };
}

/** Compact per-protocol result table for replay/synth runs. */
void
printRunTable(const Sweep &s)
{
    std::printf("workload: %s\n", s.benchNames.at(0).c_str());
    std::printf("%-12s %12s %14s %10s %10s %10s\n", "protocol",
                "cycles", "flit-hops", "msgs", "dramRd", "dramWr");
    const auto &row = s.results.at(0);
    for (std::size_t p = 0; p < s.protoNames.size(); ++p) {
        const RunResult &r = row[p];
        std::printf("%-12s %12llu %14.0f %10llu %10llu %10llu\n",
                    s.protoNames[p].c_str(),
                    static_cast<unsigned long long>(r.cycles),
                    r.traffic.total(),
                    static_cast<unsigned long long>(r.messages),
                    static_cast<unsigned long long>(r.dramReads),
                    static_cast<unsigned long long>(r.dramWrites));
    }
    if (s.protoNames.size() > 1 && s.protoNames.front() == "MESI") {
        const RunResult &base = row.front();
        const RunResult &last = row.back();
        if (base.traffic.total() > 0 && base.cycles > 0)
            std::printf("\n%s vs MESI: traffic %+.1f%%, "
                        "exec time %+.1f%%\n",
                        s.protoNames.back().c_str(),
                        100.0 * (last.traffic.total() /
                                     base.traffic.total() -
                                 1.0),
                        100.0 * (static_cast<double>(last.cycles) /
                                     base.cycles -
                                 1.0));
    }
}

/**
 * The --mesh / --mcs / --mc-tiles values.  They are applied only after
 * every flag is parsed, so their position relative to --full-size
 * (which replaces the whole SimParams) does not matter.
 */
struct TopoArgs
{
    unsigned meshX = 0, meshY = 0;  //!< 0 = not given
    unsigned mcs = 0;               //!< 0 = default placement
    std::vector<NodeId> mcTiles;    //!< explicit placement (--mc-tiles)

    /** True when any topology flag was given. */
    bool
    given() const
    {
        return meshX != 0 || mcs != 0 || !mcTiles.empty();
    }

    /**
     * The requested topology as a refinement of @p base (the paper
     * default, or a synth preset's curated topology): --mesh overrides
     * its dims, --mcs/--mc-tiles its placement, and whatever was not
     * overridden survives from @p base.
     */
    Topology
    make(const Topology &base = Topology{}) const
    {
        fatal_if(mcs != 0 && !mcTiles.empty(),
                 "--mcs and --mc-tiles are mutually exclusive");
        const unsigned x = meshX != 0 ? meshX : base.meshX();
        const unsigned y = meshX != 0 ? meshY : base.meshY();
        if (!mcTiles.empty())
            return Topology(x, y, mcTiles);
        if (mcs != 0)
            return Topology(x, y, mcs);
        if (meshX == 0)
            return base;
        // Mesh overridden, placement not: a CURATED placement carries
        // over when its tiles fit the new mesh (mc-corner's tile 0
        // stays the story at any size), but a base that simply used
        // its mesh's default placement must get the NEW mesh's
        // default — the old mesh's corner tile ids land on arbitrary
        // tiles of a bigger mesh.
        std::vector<NodeId> tiles = base.memCtrlTiles();
        const bool curated =
            tiles != Topology(base.meshX(), base.meshY()).memCtrlTiles();
        const bool fits =
            std::all_of(tiles.begin(), tiles.end(),
                        [&](NodeId t) { return t < x * y; });
        return curated && fits ? Topology(x, y, std::move(tiles))
                               : Topology(x, y);
    }
};

Flags
topoFlags(TopoArgs &t)
{
    return {
        {"--mesh", "WxH", "mesh size (default 4x4)",
         [&t](const char *flag, const std::string &v) {
             fatal_if(!Topology::parseMesh(v, t.meshX, t.meshY),
                      "%s needs a WxH mesh spec (e.g. 4x4), got '%s'",
                      flag, v.c_str());
         }},
        {"--mcs", "N", "memory-controller count (default: one per corner)",
         store(t.mcs)},
        {"--mc-tiles", "T,T,...",
         "put the memory controllers on these tiles (placement studies)",
         [&t](const char *flag, const std::string &v) {
             fatal_if(!Topology::parseTileList(v, t.mcTiles),
                      "%s needs comma-separated tile ids below %u, got "
                      "'%s'",
                      flag, maxTiles, v.c_str());
         }},
    };
}

/** Slurp a small text file; fatal when unreadable. */
std::string
readTextFile(const char *cmd, const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    fatal_if(!f, "%s: cannot read '%s'", cmd, path.c_str());
    std::string text;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        text.append(buf, n);
    std::fclose(f);
    return text;
}

/**
 * The observability flags every command accepts.  -v/-vv drive
 * inform()/warn() only; --debug-flags is an independent channel
 * (tracing works at -q and stays off at -vv unless flags are named
 * explicitly).
 */
struct ObsCli
{
    std::string debugFlags;
    Tick debugStart = 0;
    Tick debugEnd = ~Tick(0);
    Tick sampleWindow = 0;
    std::string sampleOut;
    std::string timelineOut;
    std::string heatmapOut;
    int verbosity = 1;

    /**
     * Validate and install into the process-wide state.  @p
     * sim_timeline is false for `sweep`, whose --timeline is the
     * wall-clock cell lifecycle written by the engine rather than the
     * per-run sim-time trace.
     */
    void
    apply(const char *cmd, bool sim_timeline = true) const
    {
        logVerbosity = verbosity;
        if (!debugFlags.empty()) {
            std::string err;
            fatal_if(!debug::setFlags(debugFlags, &err), "%s: %s",
                     cmd, err.c_str());
        }
        debug::windowStart = debugStart;
        debug::windowEnd = debugEnd;
        fatal_if(!sampleOut.empty() && sampleWindow == 0,
                 "%s: --sample-out needs --sample-window", cmd);
        fatal_if(!heatmapOut.empty() && sampleWindow == 0,
                 "%s: --heatmap shares the sampling window; pass "
                 "--sample-window too",
                 cmd);
        ObsConfig &cfg = obsConfig();
        cfg.sampleWindow = sampleWindow;
        cfg.sampleOut = sampleOut;
        if (sampleWindow != 0 && sampleOut.empty())
            cfg.sampleOut = "wastesim_samples_%p_%b.json";
        cfg.timelineOut = sim_timeline ? timelineOut : std::string();
        cfg.heatmapOut = heatmapOut;
    }

    /** The given per-run flags, for a `cell` worker of a sweep to
     *  observe its run as a thread slot would.  --timeline stays
     *  out: in a sweep it is the wall-clock cell lifecycle. */
    std::vector<std::string>
    workerArgs() const
    {
        std::vector<std::string> args;
        const auto add = [&args](bool given, const char *flag,
                                 const std::string &v) {
            if (given)
                args.insert(args.end(), {flag, v});
        };
        add(!debugFlags.empty(), "--debug-flags", debugFlags);
        add(debugStart != 0, "--debug-start", std::to_string(debugStart));
        add(debugEnd != ~Tick(0), "--debug-end", std::to_string(debugEnd));
        add(sampleWindow != 0, "--sample-window",
            std::to_string(sampleWindow));
        add(!sampleOut.empty(), "--sample-out", sampleOut);
        add(!heatmapOut.empty(), "--heatmap", heatmapOut);
        return args;
    }
};

Flags
obsFlags(ObsCli &o)
{
    return {
        {"--debug-flags", "F,F,...",
         "sim-time tracing to stderr (flag names: `wastesim help`)",
         store(o.debugFlags)},
        {"--debug-start", "T", "first tick tracing may fire (default 0)",
         store(o.debugStart)},
        {"--debug-end", "T", "first tick tracing goes silent again",
         store(o.debugEnd)},
        {"--sample-window", "N", "sample the counters every N ticks",
         store(o.sampleWindow)},
        {"--sample-out", "FILE",
         "sampler JSON (default wastesim_samples_%p_%b.json; %p/%b "
         "expand to protocol/benchmark)",
         store(o.sampleOut)},
        {"--timeline", "FILE",
         "Chrome trace-event JSON of sim time (in a sweep: of wall-clock "
         "cell lifecycles)",
         store(o.timelineOut)},
        {"--heatmap", "FILE",
         "per-link NoC flit counts per sample window, as CSV (%p/%b)",
         store(o.heatmapOut)},
        {"-v", nullptr, "status log lines", assign(o.verbosity, 2)},
        {"-vv", nullptr, "status and debug log lines",
         assign(o.verbosity, 3)},
    };
}

/** Every command's flag values; each command's table binds the ones
 *  it accepts. */
struct Opts
{
    std::string bench, trace, out, cache, meshList;
    unsigned scale = 1;
    bool fullSize = false;
    std::vector<ProtocolName> protocols;
    std::vector<std::string> reports;
    ReportFormat format = ReportFormat::Table;
    bool retryQuarantined = false;
    std::string faultSpec;
    std::uint64_t faultSeed = 0;
    TopoArgs topo;
    ObsCli obs;

    // synth
    std::string preset;
    SynthParams synth;    //!< the preset's parameters, or the defaults
    Topology presetTopo;  //!< the preset's curated topology
    /** The parameter flags, applied after the preset (which is derived
     *  from the final topology) so that they win in any order. */
    std::vector<std::function<void(SynthParams &)>> tuners;

    // sweep
    unsigned shard = 0, numShards = 1;
    unsigned progressMs = 0;
    SupervisorConfig sup; //!< --supervise N, its retries and deadline

    // report
    bool schema = false, computeMissing = false;
    std::string in, baseline;
    std::optional<double> tolerance; //!< unset: 0.25

    // merge
    std::vector<std::string> inputs;
    bool skipBad = false;

    // cell
    std::string cellProtocol;
    unsigned faultAttempt = 0;

    // fuzz, fuzzone
    FuzzOptions fuzz;
    std::string fuzzReport, scenario;

    /** The simulated system: --full-size, then the topology flags as
     *  a refinement of @p base. */
    SimParams
    simParams(const Topology &base = Topology{}) const
    {
        SimParams p = fullSize ? SimParams{} : SimParams::scaled();
        p.topo = topo.make(base);
        return p;
    }
};

/** Sweep-cache path resolution shared by sweep and report:
 *  --cache FILE beats $WASTESIM_CACHE beats the default. */
std::string
resolveCachePath(const std::string &cache_flag)
{
    if (!cache_flag.empty())
        return cache_flag;
    if (const char *env = std::getenv("WASTESIM_CACHE"))
        return env;
    return "wastesim_sweep.cache";
}

/**
 * Salvage-mode cache load shared by sweep and report: corrupt or
 * truncated cells are dropped (with a warning naming the damage) and
 * simply re-simulated; only `merge` treats damage as an error.
 */
void
loadCacheSalvage(const char *cmd, CellCache &cache,
                 const std::string &path)
{
    CacheLoadReport rep;
    cache.load(path, rep, CacheLoadMode::Salvage);
    if (rep.found && !rep.formatOk) {
        warn("%s: '%s' is not a sweep cache (%s); starting empty",
             cmd, path.c_str(), rep.error.c_str());
    } else if (rep.badCells > 0 || rep.truncated) {
        warn("%s: sweep cache '%s' was damaged (%s); salvaged %zu "
             "cell(s), dropped %zu — dropped cells will be "
             "re-simulated",
             cmd, path.c_str(), rep.error.c_str(), rep.cells,
             rep.badCells);
    }
}

/**
 * The topology axis of a grid command (shared by sweep and report):
 * one mesh from the TopoArgs, or the --mesh-list sequence.  Enforces
 * the mesh/mesh-list and mc-tiles/mesh-list exclusivity rules.
 */
std::vector<Topology>
topologyAxis(const char *cmd, const TopoArgs &topo,
             const std::string &mesh_list_spec, const SimParams &params)
{
    if (mesh_list_spec.empty())
        return {params.topo};
    fatal_if(topo.meshX != 0,
             "%s: --mesh and --mesh-list are mutually exclusive", cmd);
    fatal_if(!topo.mcTiles.empty(),
             "%s: --mc-tiles needs a single --mesh (explicit tile ids "
             "do not transfer across mesh sizes)",
             cmd);
    std::vector<std::pair<unsigned, unsigned>> dims;
    fatal_if(!Topology::parseMeshList(mesh_list_spec, dims),
             "%s: --mesh-list needs comma-separated WxH specs, got "
             "'%s'",
             cmd, mesh_list_spec.c_str());
    std::vector<Topology> topologies;
    for (const auto &[x, y] : dims)
        topologies.emplace_back(x, y, topo.mcs);
    return topologies;
}

std::vector<ProtocolName>
protocolsOrAll(const std::vector<ProtocolName> &given)
{
    if (!given.empty())
        return given;
    return {allProtocols, allProtocols + numProtocols};
}

int
cmdRecord(const Opts &o)
{
    o.obs.apply("record");
    BenchmarkName bench;
    fatal_if(!benchmarkFromName(o.bench, bench),
             "record: unknown benchmark '%s'", o.bench.c_str());

    auto wl = makeBenchmark(bench, o.scale, o.topo.make());
    TraceRecorder rec(o.out);
    fatal_if(!rec.record(*wl), "record: %s", rec.error().c_str());
    std::printf("recorded %s (%s) to %s: %llu ops, %zu regions, "
                "%llu barriers\n",
                wl->name().c_str(), wl->inputDesc().c_str(),
                o.out.c_str(),
                static_cast<unsigned long long>(rec.written().totalOps),
                wl->regions().numRegions(),
                static_cast<unsigned long long>(
                    rec.written().numBarriers));
    return 0;
}

int
cmdReplay(const Opts &o)
{
    o.obs.apply("replay");
    SimParams params = o.simParams();

    // Traces are self-describing: without explicit topology flags
    // the replay runs on the recorded geometry instead of forcing the
    // user to re-type what the header already knows.
    std::string err;
    std::unique_ptr<TraceWorkload> wl;
    if (o.topo.given()) {
        wl = TraceWorkload::load(o.trace, params.topo, &err);
    } else {
        wl = TraceWorkload::loadAnyTopology(o.trace, &err);
        if (wl)
            params.topo = wl->topo();
    }
    fatal_if(!wl, "replay: %s", err.c_str());
    std::printf("loaded %s: %zu ops, %zu regions, %zu barriers\n",
                o.trace.c_str(), wl->whole().totalOps(),
                wl->regions().numRegions(), wl->whole().barriers.size());

    const Sweep s =
        runSweep({wl.get()}, protocolsOrAll(o.protocols), params);
    printRunTable(s);
    return 0;
}

int
cmdSynth(const Opts &o)
{
    o.obs.apply("synth");
    fatal_if(!o.out.empty() && (!o.protocols.empty() || o.fullSize),
             "synth: --out saves a trace without simulating; it "
             "cannot be combined with --protocol or --full-size "
             "(save the trace, then `replay` it)");
    // A preset carries its curated topology; explicit topology flags
    // refine it rather than resetting to the 4x4 default.
    const bool have_preset = !o.preset.empty();
    const SimParams params =
        o.simParams(have_preset ? o.presetTopo : Topology{});

    // Presets are topology-aware: with the final geometry known,
    // derive the preset's parameters for it (sharing degree, region
    // sizes scale with the tile count), then apply explicit parameter
    // flags on top so they always win.
    SynthParams sp = o.synth;
    if (have_preset)
        fatal_if(!synthPresetFor(o.preset, params.topo, sp),
                 "synth: preset '%s' has no topology-derived form",
                 o.preset.c_str());
    for (const auto &t : o.tuners)
        t(sp);

    auto wl = makeSynthetic(sp, params.topo);
    std::printf("generated %s on %s (%s): %zu ops\n",
                wl->name().c_str(), params.topo.describe().c_str(),
                wl->inputDesc().c_str(), wl->totalOps());

    if (!o.out.empty()) {
        TraceRecorder rec(o.out);
        fatal_if(!rec.record(*wl), "synth: %s", rec.error().c_str());
        std::printf("saved trace to %s\n", o.out.c_str());
        return 0;
    }

    const Sweep s =
        runSweep({wl.get()}, protocolsOrAll(o.protocols), params);
    printRunTable(s);
    return 0;
}

/**
 * Build and render one named report of @p s, which ran on @p topo
 * (fatal on unknown names).  @p context qualifies multi-mesh output
 * in the structured formats.
 */
std::string
renderReport(const std::string &r, const Sweep &s,
             const Topology &topo, ReportFormat fmt,
             const std::string &context = {})
{
    Figure f;
    fatal_if(!buildReportByName(r, s, topo, f),
             "unknown report '%s'", r.c_str());
    f.context = context;
    return renderFigure(f, fmt);
}

/**
 * Render every requested report of every sweep (one per topology of
 * @p spec), shared by `sweep` and `report`: table mode separates
 * meshes with a header line, the structured formats qualify each
 * figure with the mesh instead.
 */
std::vector<std::string>
renderSweepReports(const std::vector<std::string> &reports,
                   const SweepSpec &spec,
                   const std::vector<Sweep> &sweeps, ReportFormat fmt)
{
    std::vector<std::string> texts;
    for (std::size_t t = 0; t < sweeps.size(); ++t) {
        const Topology &sweep_topo = spec.topologies[t];
        const std::string context =
            sweeps.size() > 1 ? sweep_topo.describe() : std::string();
        if (sweeps.size() > 1 && fmt == ReportFormat::Table)
            texts.push_back("==== mesh " + sweep_topo.describe() +
                            " ====\n");
        for (const std::string &r : reports) {
            std::string text =
                renderReport(r, sweeps[t], sweep_topo, fmt, context);
            if (fmt == ReportFormat::Table)
                text += "\n";
            texts.push_back(std::move(text));
        }
    }
    return texts;
}

/**
 * Print rendered figure texts.  JSON wraps the figures in one
 * top-level array so the output is a single valid document no matter
 * how many reports or meshes were requested; table and CSV
 * concatenate.
 */
void
emitFigureTexts(const std::vector<std::string> &texts,
                ReportFormat fmt)
{
    if (fmt == ReportFormat::Json) {
        std::printf("[\n");
        for (std::size_t i = 0; i < texts.size(); ++i) {
            std::fputs(texts[i].c_str(), stdout);
            if (i + 1 < texts.size())
                std::printf(",\n");
        }
        std::printf("]\n");
        return;
    }
    for (const std::string &t : texts)
        std::fputs(t.c_str(), stdout);
}

/**
 * `wastesim cell` — the worker of a `sweep --supervise` process slot:
 * compute exactly one (topology, benchmark, protocol) cell and write
 * it as a checksummed hand-off file (supervisor.hh documents the
 * format).
 * The cell key is recomputed here from the same flags the parent
 * passed, and echoed in the output, so a parent/child configuration
 * drift is caught as a key mismatch instead of a silently wrong
 * cached result.
 *
 * With --fault-inject the worker draws its fate from (seed, cell key,
 * attempt) — the same deterministic draw the tests predict — and
 * crashes, hangs or corrupts its own output on demand.
 */
int
cmdCell(const Opts &o)
{
    o.obs.apply("cell");
    // Workers share the parent's stderr; status chatter from dozens
    // of children would drown the sweep's own reporting.
    if (o.obs.verbosity <= 1)
        logVerbosity = 0;

    BenchmarkName bench;
    fatal_if(!benchmarkFromName(o.bench, bench),
             "cell: unknown benchmark '%s'", o.bench.c_str());
    ProtocolName proto;
    fatal_if(!protocolFromName(o.cellProtocol, proto),
             "cell: unknown protocol '%s'", o.cellProtocol.c_str());
    FaultSpec faults;
    if (!o.faultSpec.empty()) {
        std::string err;
        fatal_if(!FaultSpec::parse(o.faultSpec, faults, &err),
                 "cell: %s", err.c_str());
    }
    const SimParams params = o.simParams();

    const std::string cell_id = sweepConfigTag(o.scale, params) +
                                ",bench=" + benchmarkName(bench) +
                                ",proto=" + protocolName(proto);

    // Injected faults fire before the simulation: a crashed or hung
    // worker never gets as far as producing a result, exactly like a
    // real SIGSEGV or livelock would behave.
    const FaultKind fate =
        faultDraw(faults, o.faultSeed, cell_id, o.faultAttempt);
    switch (fate) {
      case FaultKind::CrashSegv:
        std::raise(SIGSEGV);
        break;
      case FaultKind::CrashKill:
        std::raise(SIGKILL);
        break;
      case FaultKind::CrashExit:
        std::_Exit(3);
      case FaultKind::Hang:
        for (;;)
            ::pause();
      default:
        break;
    }

    const RunResult r = runOne(proto, bench, o.scale, params);
    std::string bytes = formatWorkerOutput(cell_id, r);
    if (fate == FaultKind::Corrupt)
        corruptWorkerOutput(bytes, o.faultSeed, o.faultAttempt);

    fatal_if(!writeHandoff(o.out, bytes), "cell: cannot write '%s'",
             o.out.c_str());
    return 0;
}

int
cmdSweep(const Opts &o)
{
    SupervisorConfig sup = o.sup;
    if (!o.faultSpec.empty()) {
        std::string fault_err;
        fatal_if(!FaultSpec::parse(o.faultSpec, sup.faults, &fault_err),
                 "sweep: %s", fault_err.c_str());
    }
    // In a sweep, --timeline means the wall-clock cell-lifecycle
    // trace (the engine's view), not a per-simulation sim-time trace:
    // cells run concurrently and would race on one sim-time file.
    o.obs.apply("sweep", /*sim_timeline=*/false);
    const std::vector<std::string> reports =
        o.reports.empty() ? std::vector<std::string>{"fig5.1a", "headline"}
                          : o.reports;
    const ReportFormat fmt = o.format;
    // inform() status lines share stdout with the reports; in the
    // structured formats they would corrupt the JSON/CSV stream.
    if (fmt != ReportFormat::Table)
        logVerbosity = 0;
    const SimParams params = o.simParams();

    std::vector<Topology> topologies =
        topologyAxis("sweep", o.topo, o.meshList, params);

    const std::string path = resolveCachePath(o.cache);
    const bool no_cache = std::getenv("WASTESIM_NO_CACHE") != nullptr;
    // A shard's only product is its partial cache file; running one
    // with the cache disabled would discard every result.
    fatal_if(o.numShards > 1 && no_cache,
             "sweep: --shard writes a partial cache; unset "
             "WASTESIM_NO_CACHE to run sharded");

    SweepSpec spec = SweepSpec::fullGrid(o.scale, params);
    spec.topologies = std::move(topologies);

    CellCache cache;
    if (!no_cache)
        loadCacheSalvage("sweep", cache, path);

    SweepEngine engine(spec);
    if (o.numShards > 1)
        engine.setShard(o.shard, o.numShards);
    // Partial-cache resume: every finished cell is persisted
    // immediately (atomic rename), so a killed shard restarts from
    // its completed cells instead of recomputing the slice; the
    // autosave of the last cell doubles as the final cache write.
    if (!no_cache)
        engine.setAutosave(path);
    engine.setProgress(o.progressMs);
    engine.setTimeline(o.obs.timelineOut);
    engine.setRetryQuarantined(o.retryQuarantined);
    // A worker process must rebuild the exact SimParams of this
    // parent (topology travels per cell, scale and the full-size
    // switch here) and observe its run as a thread slot would.
    sup.faultSeed = o.faultSeed;
    sup.workerArgs = {"--scale", std::to_string(o.scale)};
    if (o.fullSize)
        sup.workerArgs.push_back("--full-size");
    const std::vector<std::string> obs = o.obs.workerArgs();
    sup.workerArgs.insert(sup.workerArgs.end(), obs.begin(), obs.end());
    engine.setSupervise(sup);
    // Graceful drain: the first SIGINT/SIGTERM lets in-flight cells
    // finish (each is autosaved as it completes) and starts no new
    // one; a second one stops at once, killing the worker processes
    // or, when threads are still computing, exiting with 130.
    installDrainHandlers();
    engine.setStopCheck(drainRequestCount);
    const std::vector<Sweep> sweeps = engine.run(cache);

    // In the structured formats the status line must not pollute the
    // machine-readable stream.
    char extras[96] = "";
    if (engine.retries() > 0 || engine.deadlineKills() > 0 ||
        engine.cellsQuarantined() > 0)
        std::snprintf(extras, sizeof(extras),
                      ", %zu retries, %zu deadline kills, "
                      "%zu quarantined",
                      engine.retries(), engine.deadlineKills(),
                      engine.cellsQuarantined());
    std::fprintf(fmt == ReportFormat::Table ? stdout : stderr,
                 "sweep: %zu cells (%zu cached, %zu computed)%s%s\n",
                 engine.cellsTotal(), engine.cellsHit(),
                 engine.cellsComputed(), extras,
                 no_cache ? " [cache disabled]" : "");

    if (engine.interrupted()) {
        // Completed cells are on disk (autosave); rerunning the same
        // command resumes from them.  The conventional SIGINT exit.
        std::fprintf(stderr,
                     "sweep: interrupted — completed cells are saved"
                     "%s%s; rerun to resume\n",
                     no_cache ? "" : " in ",
                     no_cache ? "" : path.c_str());
        return 130;
    }

    if (o.numShards > 1) {
        // A shard owns a grid slice, so its Sweeps are partial; the
        // cache file is the product.  Reports come after `merge`.
        std::printf("shard %u/%u: partial cache written to %s; run "
                    "`wastesim merge` over all shards, then `sweep "
                    "--cache MERGED` for reports\n",
                    o.shard, o.numShards, path.c_str());
        return 0;
    }

    emitFigureTexts(renderSweepReports(reports, spec, sweeps, fmt),
                    fmt);
    return 0;
}

/**
 * `wastesim report` — render figures from a sweep cache without
 * re-simulating.  The cache is the product of `sweep` runs; report
 * assembles the requested grid purely from cached cells and renders
 * any figure in any format.  `--compute-missing` opts into filling
 * cache holes by simulation (the placement study needs five sweeps;
 * computing them through report saves the five `sweep` invocations).
 */
int
cmdReport(const Opts &o)
{
    o.obs.apply("report");
    // A gate step that forgets `--report bench` must not pass without
    // comparing anything.
    const auto asks = [&o](const char *r) {
        return std::find(o.reports.begin(), o.reports.end(), r) !=
               o.reports.end();
    };
    fatal_if(!o.in.empty() && !asks("timeline") && !asks("bench"),
             "report: --in is read by the timeline and bench reports "
             "only; pass --report timeline or --report bench");
    fatal_if((!o.baseline.empty() || o.tolerance) && !asks("bench"),
             "report: --%s is read by the bench report only; pass "
             "--report bench",
             o.baseline.empty() ? "tolerance" : "baseline");

    if (o.schema) {
        // The machine-readable metric schema: fingerprint first, one
        // line per metric.  CI diffs this against a committed
        // reference so schema drift is always a deliberate change.
        std::printf("# wastesim metrics schema %s\n",
                    metricsSchemaFingerprint().c_str());
        for (const Metric &m : metricsSchema())
            std::printf("%s %s %s\n", m.path.c_str(), m.unit.c_str(),
                        metricKindName(m.kind));
        return 0;
    }

    const std::vector<std::string> reports =
        o.reports.empty() ? std::vector<std::string>{"fig5.1a", "headline"}
                          : o.reports;
    const ReportFormat fmt = o.format;
    if (fmt != ReportFormat::Table)
        logVerbosity = 0;
    const SimParams params = o.simParams();

    // The placement study is a multi-sweep report, and the
    // observability reports (timeline, bench) render from --in files
    // instead of the sweep cache; everything else renders from one
    // grid per mesh.
    bool placement = false, want_timeline = false, want_bench = false;
    std::vector<std::string> single;
    for (const std::string &r : reports) {
        if (r == "placement")
            placement = true;
        else if (r == "timeline")
            want_timeline = true;
        else if (r == "bench")
            want_bench = true;
        else
            single.push_back(r);
    }
    fatal_if((want_timeline || want_bench) && o.in.empty(),
             "report: the %s report reads a JSON file; pass --in FILE",
             want_timeline ? "timeline" : "bench");
    fatal_if(want_timeline && want_bench,
             "report: timeline and bench read different --in formats; "
             "request them in separate invocations");

    const std::string path = resolveCachePath(o.cache);
    // WASTESIM_NO_CACHE means the same as for `sweep`: neither serve
    // from nor write the cache file (with --compute-missing the whole
    // grid is then simulated and the results discarded after use).
    const bool no_cache = std::getenv("WASTESIM_NO_CACHE") != nullptr;
    CellCache cache;
    if (!no_cache)
        loadCacheSalvage("report", cache, path);

    fatal_if(placement && !o.meshList.empty(),
             "report: the placement study sweeps placements of one "
             "mesh; use --mesh, not --mesh-list");
    // The study compares the curated placements, which would silently
    // override an explicit MC request.
    fatal_if(placement && (o.topo.mcs != 0 || !o.topo.mcTiles.empty()),
             "report: the placement study uses its curated MC "
             "placements; --mcs/--mc-tiles cannot be combined with "
             "it");
    const std::vector<Topology> topologies =
        topologyAxis("report", o.topo, o.meshList, params);

    // Assemble a grid of fully cached cells (or, with
    // --compute-missing, simulate the holes and persist them).
    // Quarantined cells are not "missing": they render as annotated
    // holes, and only --retry-quarantined re-runs them.
    auto assemble = [&](SweepSpec spec) -> std::vector<Sweep> {
        std::size_t missing = 0, quarantined = 0;
        for (std::size_t i = 0; i < spec.numCells(); ++i) {
            const std::string key = spec.cellKey(spec.cellAt(i));
            if (cache.has(key))
                continue;
            if (!o.retryQuarantined && cache.isQuarantined(key))
                ++quarantined;
            else
                ++missing;
        }
        fatal_if(missing > 0 && !o.computeMissing,
                 "report: %zu of %zu cells are not in %s; run "
                 "`wastesim sweep` with the same topology flags "
                 "first, or pass --compute-missing to simulate them",
                 missing, spec.numCells(), path.c_str());
        SweepEngine engine(spec);
        engine.setRetryQuarantined(o.retryQuarantined);
        // The per-cell autosave persists the full cache as it grows;
        // the last cell's write is the final state, no explicit save.
        if (missing > 0 && !no_cache)
            engine.setAutosave(path);
        std::vector<Sweep> sweeps = engine.run(cache);
        if (engine.cellsComputed() > 0)
            std::fprintf(stderr,
                         "report: computed %zu missing cells%s%s\n",
                         engine.cellsComputed(),
                         no_cache ? "" : " into ",
                         no_cache ? " [cache disabled]"
                                  : path.c_str());
        return sweeps;
    };

    // All requested figures collect into one emission, so JSON stays
    // a single valid document even when single-sweep reports and the
    // placement study are requested together.
    std::vector<std::string> texts;

    if (!single.empty()) {
        SweepSpec spec = SweepSpec::fullGrid(o.scale, params);
        spec.topologies = topologies;
        const std::vector<Sweep> sweeps = assemble(spec);
        texts = renderSweepReports(single, spec, sweeps, fmt);
    }

    if (placement) {
        const auto placements = curatedMcPlacements(
            params.topo.meshX(), params.topo.meshY());
        SweepSpec spec = SweepSpec::fullGrid(o.scale, params);
        spec.topologies.clear();
        std::vector<std::string> names;
        for (const auto &[name, t] : placements) {
            names.push_back(name);
            spec.topologies.push_back(t);
        }
        const std::vector<Sweep> sweeps = assemble(spec);
        Figure f = buildPlacementStudy(names, spec.topologies, sweeps);
        f.context = params.topo.describe();
        std::string text = renderFigure(f, fmt);
        if (fmt == ReportFormat::Table)
            text += "\n";
        texts.push_back(std::move(text));
    }

    int rc = 0;

    if (want_timeline) {
        const std::string text = readTextFile("report", o.in);
        SampleData data;
        std::string err;
        fatal_if(!sampleDataFromJson(text, data, &err),
                 "report: '%s' is not a sampler JSON file: %s",
                 o.in.c_str(), err.c_str());
        Figure f = buildTimelineFigure(data);
        f.context = o.in;
        std::string rendered = renderFigure(f, fmt);
        if (fmt == ReportFormat::Table)
            rendered += "\n";
        texts.push_back(std::move(rendered));
    }

    if (want_bench) {
        const double tolerance = o.tolerance.value_or(0.25);
        JsonValue current;
        std::string err;
        fatal_if(!jsonParse(readTextFile("report", o.in), current, &err),
                 "report: cannot parse '%s': %s", o.in.c_str(),
                 err.c_str());
        JsonValue baseline;
        const bool have_base = !o.baseline.empty();
        if (have_base)
            fatal_if(!jsonParse(readTextFile("report", o.baseline),
                                baseline, &err),
                     "report: cannot parse '%s': %s",
                     o.baseline.c_str(), err.c_str());
        bool regressed = false;
        Figure f = buildBenchFigure(
            current, have_base ? &baseline : nullptr, tolerance,
            regressed);
        f.context = o.in;
        std::string rendered = renderFigure(f, fmt);
        if (fmt == ReportFormat::Table)
            rendered += "\n";
        texts.push_back(std::move(rendered));
        if (regressed) {
            std::fprintf(stderr,
                         "report: bench regression: at least one "
                         "rate fell more than %.0f%% below the "
                         "baseline\n",
                         tolerance * 100.0);
            rc = 1;
        }
    }

    emitFigureTexts(texts, fmt);
    return rc;
}

int
cmdMerge(const Opts &o)
{
    o.obs.apply("merge");
    fatal_if(o.inputs.empty(), "merge: no input caches given");

    // Strict by default: a damaged shard cache is an error naming the
    // first bad cell and its byte offset, because silently thinning a
    // partial cache would masquerade as a complete merge.  --skip-bad
    // opts into salvage: intact cells are kept, dropped ones listed.
    CellCache merged;
    std::size_t dropped = 0;
    for (const std::string &in : o.inputs) {
        CellCache part;
        CacheLoadReport rep;
        const CacheLoadMode mode = o.skipBad ? CacheLoadMode::Salvage
                                            : CacheLoadMode::Strict;
        if (!part.load(in, rep, mode)) {
            fatal("merge: cannot read sweep cache '%s': %s "
                  "(--skip-bad salvages the intact cells)",
                  in.c_str(),
                  rep.error.empty() ? "no such file or unreadable"
                                    : rep.error.c_str());
        }
        if (rep.badCells > 0 || rep.truncated) {
            warn("merge: '%s' was damaged (%s); salvaged %zu "
                 "cell(s), dropped %zu",
                 in.c_str(), rep.error.c_str(), rep.cells,
                 rep.badCells);
            for (const std::string &k : rep.badKeys)
                warn("merge: dropped cell '%s'", k.c_str());
            dropped += rep.badCells;
        }
        std::string err;
        fatal_if(!merged.merge(part, &err), "merge: %s in '%s'",
                 err.c_str(), in.c_str());
        std::printf("merged %s (%zu cells)\n", in.c_str(),
                    part.size());
    }
    fatal_if(!merged.save(o.out), "merge: cannot write '%s'",
             o.out.c_str());
    std::printf("wrote %zu cells", merged.size());
    if (merged.numQuarantined() > 0)
        std::printf(" + %zu quarantine record(s)",
                    merged.numQuarantined());
    if (dropped > 0)
        std::printf(" (%zu corrupt cell(s) skipped)", dropped);
    std::printf(" to %s\n", o.out.c_str());
    return 0;
}

int
cmdInfo(const Opts &o)
{
    o.obs.apply("info");
    std::string err;
    auto wl = TraceWorkload::loadAnyTopology(o.trace, &err);
    fatal_if(!wl, "info: %s", err.c_str());

    std::printf("trace:     %s\n", o.trace.c_str());
    std::printf("workload:  %s\n", wl->name().c_str());
    std::printf("input:     %s\n", wl->inputDesc().c_str());
    std::printf("topology:  %s (%u MCs)\n", wl->topo().describe().c_str(),
                wl->topo().numMemCtrls());
    const std::size_t ops = wl->whole().totalOps();
    std::printf("ops:       %zu across %u cores\n", ops, wl->numCores());
    const double trace_bytes = static_cast<double>(wl->whole().bytes());
    std::printf("trace mem: %.2f MB (%.2f B/op)\n",
                trace_bytes / (1024.0 * 1024.0),
                ops ? trace_bytes / ops : 0.0);
    std::printf("barriers:  %zu\n", wl->whole().barriers.size());
    std::printf("regions:   %zu\n", wl->regions().numRegions());
    for (std::size_t i = 0; i < wl->regions().numRegions(); ++i) {
        const Region &r =
            wl->regions().region(static_cast<RegionId>(i));
        std::printf("  [%3zu] %-24s base=0x%llx size=%llu%s%s%s\n", i,
                    r.name.c_str(),
                    static_cast<unsigned long long>(r.base),
                    static_cast<unsigned long long>(r.size),
                    r.flex ? " flex" : "", r.bypass ? " bypass" : "",
                    r.stream ? " stream" : "");
    }
    return 0;
}

/**
 * `wastesim fuzz` — the seeded invariant-checking fuzz campaign.
 * Everything is derived from --seed, so a failing run is reproduced
 * by re-running with the same seed (or pasting the reported scenario
 * line into `fuzzone`).
 */
int
cmdFuzz(const Opts &o)
{
    o.obs.apply("fuzz");
    fatal_if(o.fuzz.timeBudgetSec < 0,
             "fuzz: --time-budget must be >= 0");

    // SIGINT drains: finish the in-flight scenario, then report what
    // ran instead of losing the campaign.
    installDrainHandlers();

    FuzzCampaign campaign(o.fuzz);
    const FuzzReport rep = campaign.run();
    const std::string text = rep.toText();
    std::fputs(text.c_str(), stdout);
    if (!o.fuzzReport.empty()) {
        std::FILE *f = std::fopen(o.fuzzReport.c_str(), "wb");
        fatal_if(!f, "fuzz: cannot write '%s'", o.fuzzReport.c_str());
        const bool ok = std::fwrite(text.data(), 1, text.size(), f) ==
                        text.size();
        std::fclose(f);
        fatal_if(!ok, "fuzz: short write to '%s'",
                 o.fuzzReport.c_str());
    }
    return rep.clean() ? 0 : 1;
}

/** `wastesim fuzzone` — one scenario, checked in this process; the
 *  worker half of `fuzz` (kept as a public subcommand so a reported
 *  scenario line is directly replayable). */
int
cmdFuzzone(const Opts &o)
{
    o.obs.apply("fuzzone");
    // Workers share the campaign's stderr; keep them quiet unless -v.
    if (o.obs.verbosity <= 1)
        logVerbosity = 0;
    return fuzzWorkerMain(o.scenario, o.out, o.fuzz.maxTicks,
                          o.fuzz.checkReplay);
}

/** One subcommand: its flag table and the function that runs it. */
struct Command
{
    const char *name;
    const char *summary; //!< its line in `wastesim help`
    Flags flags;
    int (*run)(const Opts &);
};

/** Every subcommand, its flags bound to the fields of @p o. */
std::vector<Command>
commands(Opts &o)
{
    // The flags several commands accept, each declared once.
    const Flags topo = topoFlags(o.topo), obs = obsFlags(o.obs);
    const Flag bench{"--bench", "NAME", "Table-4.2 benchmark",
                     store(o.bench), Required};
    const Flag trace{"--trace", "FILE", "trace file to read",
                     store(o.trace), Required};
    const auto out = [&o](const char *help, bool required = Required) {
        return Flag{"--out", "FILE", help, store(o.out), required};
    };
    const Flag scale{"--scale", "N", "benchmark input scale (default 1)",
                     store(o.scale)};
    const Flag fullSize{"--full-size", nullptr,
                        "simulate the full Table-4.1 hierarchy, not the "
                        "scaled one",
                        store(o.fullSize)};
    const Flag protocols{
        "--protocol", "P", "protocol to run; repeatable (default: all 9)",
        [&o](const char *, const std::string &v) {
            ProtocolName p;
            fatal_if(!protocolFromName(v, p), "unknown protocol '%s'",
                     v.c_str());
            o.protocols.push_back(p);
        }};
    const Flag reports{"--report", "NAME",
                       "figure to render; repeatable (default: fig5.1a "
                       "and headline)",
                       [&o](const char *, const std::string &v) {
                           o.reports.push_back(v);
                       }};
    const Flag format{
        "--format", "table|json|csv", "output format (default table)",
        [&o](const char *flag, const std::string &v) {
            fatal_if(!reportFormatFromName(v, o.format),
                     "%s needs table, json or csv, got '%s'", flag,
                     v.c_str());
        }};
    const Flag meshList{"--mesh-list", "WxH,WxH,...",
                        "one grid per listed mesh (not with --mesh)",
                        store(o.meshList)};
    const Flag cache{"--cache", "FILE",
                     "sweep cache (default $WASTESIM_CACHE, else "
                     "wastesim_sweep.cache)",
                     store(o.cache)};
    const auto jobs = [](const char *cmd) {
        return Flag{"--jobs", "N",
                    "simulation threads, overriding $WASTESIM_JOBS",
                    [cmd](const char *flag, const std::string &v) {
                        const unsigned n = parse<unsigned>(flag, v);
                        fatal_if(n < 1 || n > 1024,
                                 "%s: --jobs needs a value in [1, 1024]",
                                 cmd);
                        setSweepJobs(n);
                    }};
    };
    const Flag retryQuarantined{
        "--retry-quarantined", nullptr,
        "recompute quarantined cells instead of leaving them as holes",
        store(o.retryQuarantined)};
    const Flags faults = {
        {"--fault-inject", "crash:P,hang:P,corrupt:P",
         "seeded deterministic faults in the worker processes",
         store(o.faultSpec)},
        {"--fault-seed", "N", "seed of the fault draws (default 0)",
         store(o.faultSeed)},
    };
    const Flags checks = {
        {"--max-ticks", "N", "tick limit of each run (default 5e8)",
         store(o.fuzz.maxTicks)},
        {"--no-replay", nullptr, "skip the run-twice determinism check",
         assign(o.fuzz.checkReplay, false)},
    };
    // A synth parameter flag is applied after the preset, whatever
    // its position.
    const auto tune = [&o]<class T>(const char *name, const char *metavar,
                                    const char *help, T SynthParams::*member) {
        return Flag{name, metavar, help,
                    [&o, member](const char *flag, const std::string &v) {
                        o.tuners.push_back(
                            [member, x = parse<T>(flag, v)](
                                SynthParams &p) { p.*member = x; });
                    }};
    };

    return {
        {"record", "serialize a Table-4.2 benchmark to a trace file",
         Flags{bench, scale, out("trace file to write")} + topo + obs,
         cmdRecord},
        {"replay",
         "replay a trace through protocols on its recorded topology "
         "(topology flags override it, and must then match)",
         Flags{trace, protocols, fullSize} + topo + obs, cmdReplay},
        {"synth",
         "generate a synthetic scenario; simulate it, or save it as a "
         "trace",
         Flags{
             {"--preset", "NAME",
              "hotsetN, all2all or mc-corner; the other flags refine it",
              [&o](const char *, const std::string &v) {
                  fatal_if(!synthPresetFromName(v, o.synth, o.presetTopo),
                           "synth: unknown preset '%s' (hotsetN, all2all, "
                           "mc-corner)",
                           v.c_str());
                  o.preset = v;
              }},
             tune("--seed", "N", "random seed", &SynthParams::seed),
             {"--pattern", "stride|random|hotset", "access pattern",
              [&o](const char *, const std::string &v) {
                  SynthParams::Pattern pattern;
                  fatal_if(!SynthParams::patternFromName(v, pattern),
                           "synth: unknown pattern '%s' (stride, random, "
                           "hotset)",
                           v.c_str());
                  o.tuners.push_back(
                      [pattern](SynthParams &p) { p.pattern = pattern; });
              }},
             tune("--ops", "N", "memory accesses per core",
                  &SynthParams::opsPerCore),
             tune("--phases", "N", "barrier-delimited compute phases",
                  &SynthParams::phases),
             tune("--regions", "N", "shared regions",
                  &SynthParams::sharedRegions),
             tune("--region-bytes", "N", "bytes per shared region",
                  &SynthParams::regionBytes),
             tune("--private-bytes", "N", "bytes of each core's own arena",
                  &SynthParams::privateBytes),
             tune("--sharing-degree", "N", "cores sharing each region",
                  &SynthParams::sharingDegree),
             tune("--read-frac", "F", "loads / (loads + stores)",
                  &SynthParams::readFraction),
             tune("--shared-frac", "F", "share of accesses to shared regions",
                  &SynthParams::sharedFraction),
             tune("--stride", "W", "stride pattern's step, in words",
                  &SynthParams::strideWords),
             tune("--hot-frac", "F", "hotset pattern's hot share of the data",
                  &SynthParams::hotFraction),
             tune("--hot-prob", "F", "hotset pattern's hot-access probability",
                  &SynthParams::hotProbability),
             tune("--work", "N", "compute cycles between accesses",
                  &SynthParams::workCycles),
             tune("--bypass", nullptr, "mark the shared regions L2-bypass",
                  &SynthParams::bypassShared),
             out("save the trace instead of simulating it", !Required),
             protocols, fullSize} +
             topo + obs,
         cmdSynth},
        {"sweep",
         "run the 9-protocol x 6-benchmark grid of every listed mesh "
         "against a per-cell disk cache that resumes a killed run",
         Flags{scale, reports, format, meshList,
               {"--shard", "I/N",
                "run the I-th 1/N slice of the grid into a partial cache "
                "for `merge`",
                [&o](const char *, const std::string &v) {
                    const std::size_t slash = v.find('/');
                    char *end = nullptr;
                    unsigned long i = 0, n = 0;
                    if (slash != std::string::npos && slash > 0) {
                        i = std::strtoul(v.c_str(), &end, 10);
                        const bool i_ok = end == v.c_str() + slash;
                        n = std::strtoul(v.c_str() + slash + 1, &end, 10);
                        fatal_if(!i_ok || end != v.c_str() + v.size() ||
                                     n == 0 || i >= n || n > 4096,
                                 "sweep: --shard needs I/N with I < N, "
                                 "got '%s'",
                                 v.c_str());
                    } else {
                        fatal("sweep: --shard needs I/N (e.g. 0/4), got "
                              "'%s'",
                              v.c_str());
                    }
                    o.shard = static_cast<unsigned>(i);
                    o.numShards = static_cast<unsigned>(n);
                }},
               cache, jobs("sweep"), fullSize,
               {"--progress", nullptr,
                "5 s heartbeat with RSS and ETA; flags stalled cells",
                assign(o.progressMs, 5000)}} +
             // The worker count replaces the thread count.
             excluding("--jobs",
                       Flags{{"--supervise", "N",
                              "compute cells on N crash-isolated worker "
                              "processes, with retries, deadlines and "
                              "quarantine",
                              [&o](const char *flag, const std::string &v) {
                                  o.sup.workers = parse<unsigned>(flag, v);
                                  fatal_if(o.sup.workers < 1 ||
                                               o.sup.workers > 256,
                                           "sweep: --supervise needs a "
                                           "worker count in [1, 256]");
                              }}}) +
             Flags{retryQuarantined} +
             // Retries and faults exist only where a crash is isolated
             // to one worker process; thread slots would ignore the
             // former and be taken down by the latter.
             needing("--supervise",
                     Flags{{"--max-retries", "N",
                            "retries of a failed cell (default 3)",
                            store(o.sup.maxRetries)},
                           {"--retry-backoff-ms", "N",
                            "first retry delay, doubling (default 200)",
                            store(o.sup.backoffBaseMs)},
                           {"--cell-deadline-ms", "N",
                            "per-cell deadline (default: adaptive)",
                            store(o.sup.deadlineMs)}} +
                         faults) +
             topo + obs,
         cmdSweep},
        {"report",
         "render figures from a sweep cache without simulating; also "
         "`placement`, `timeline` and `bench`",
         Flags{reports, format, meshList, scale, cache, jobs("report"),
               fullSize,
               {"--compute-missing", nullptr,
                "simulate missing cells instead of failing",
                store(o.computeMissing)},
               retryQuarantined,
               {"--schema", nullptr,
                "print the metric schema and its fingerprint",
                store(o.schema)},
               {"--in", "FILE",
                "`timeline`: a sampler JSON; `bench`: a BENCH_*.json",
                store(o.in)},
               {"--baseline", "FILE",
                "`bench`: the BENCH_*.json to compare with",
                store(o.baseline)},
               {"--tolerance", "F",
                "`bench`: exit 1 when a rate falls more than F below "
                "--baseline (default 0.25)",
                [&o](const char *flag, const std::string &v) {
                    o.tolerance = parse<double>(flag, v);
                    fatal_if(*o.tolerance < 0 || *o.tolerance >= 1,
                             "report: --tolerance needs a fraction in "
                             "[0, 1), got '%s'",
                             v.c_str());
                }}} +
             topo + obs,
         cmdReport},
        {"merge",
         "combine partial sweep caches (from --shard runs) into one, "
         "byte-identical to an unsharded sweep's",
         Flags{out("merged cache to write"),
               {"--skip-bad", nullptr,
                "salvage the intact cells around corrupt ones instead of "
                "failing",
                store(o.skipBad)},
               {"CACHE...", nullptr, "the partial caches to merge",
                [&o](const char *, const std::string &v) {
                    o.inputs.push_back(v);
                }}} +
             obs,
         cmdMerge},
        {"cell",
         "compute one sweep cell into a checksummed result file (the "
         "worker of `sweep --supervise`)",
         Flags{bench,
               {"--protocol", "P", "protocol to run", store(o.cellProtocol),
                Required},
               out("result file to write"), scale, fullSize} +
             faults +
             Flags{{"--fault-attempt", "K",
                    "attempt number in the fault draw (default 0)",
                    store(o.faultAttempt)}} +
             topo + obs,
         cmdCell},
        {"fuzz",
         "check seeded random scenarios under the runtime invariant "
         "checker; exits 1 on any violation or crash",
         Flags{{"--seed", "N", "campaign seed (default 1)",
                store(o.fuzz.seed)},
               {"--runs", "N", "scenarios to draw (default 100)",
                store(o.fuzz.runs)},
               {"--time-budget", "SEC",
                "stop drawing after SEC seconds (default 0: no limit)",
                store(o.fuzz.timeBudgetSec)},
               {"--minimize", nullptr,
                "delta-debug each failure to a near-minimal scenario",
                store(o.fuzz.minimize)},
               {"--corpus", "DIR",
                "write the minimized anomalies as regression .scn files",
                store(o.fuzz.corpusDir)},
               {"--report", "FILE", "also write the report to FILE",
                store(o.fuzzReport)},
               {"--deadline-ms", "N",
                "deadline of each scenario's worker (default 120000)",
                store(o.fuzz.deadlineMs)},
               {"--minimize-tests", "N",
                "runs each minimization may spend (default 64)",
                store(o.fuzz.minimizeMaxTests)}} +
             checks + obs,
         cmdFuzz},
        {"fuzzone",
         "check one encoded scenario into a checksummed verdict file (the "
         "worker of `fuzz`)",
         Flags{{"--scenario", "LINE", "the scenario's one-line encoding",
                store(o.scenario), Required},
               out("verdict file to write")} +
             checks + obs,
         cmdFuzzone},
        {"info", "print a trace file's header, regions and op counts",
         Flags{trace} + obs, cmdInfo},
    };
}

/** True for the table entry that takes the positional arguments. */
bool
positional(const Flag &f)
{
    return f.name[0] != '-';
}

/** A flag as help shows it: its name and value placeholder. */
std::string
spelling(const Flag &f)
{
    return f.metavar ? std::string(f.name) + " " + f.metavar : f.name;
}

/** `name --required VALUE... [options] POSITIONAL`. */
std::string
synopsis(const Command &c)
{
    std::string s = c.name, rest;
    for (const Flag &f : c.flags) {
        if (positional(f))
            rest = " " + spelling(f);
        else if (f.required)
            s += " " + spelling(f);
    }
    return s + " [options]" + rest;
}

/** One line per flag; a long spelling pushes its help to the next. */
void
printFlags(std::FILE *out, const Flags &flags)
{
    for (const Flag &f : flags) {
        const std::string s = spelling(f);
        std::fprintf(out, "  %-22s%s%s\n", s.c_str(),
                     s.size() < 22 ? " " : "\n                         ",
                     f.help);
    }
}

/** `wastesim help`: every command's synopsis and summary, the shared
 *  flag groups and the names the flags take. */
void
printUsage(const char *prog, const std::vector<Command> &cmds, Opts &o,
           std::FILE *out)
{
    std::fprintf(out,
                 "usage: %s <command> [options]\n\n"
                 "commands (`<command> --help` lists all its flags):\n",
                 prog);
    for (const Command &c : cmds)
        std::fprintf(out, "  %s\n      %s\n", synopsis(c).c_str(),
                     c.summary);
    std::fprintf(out, "\ntopology flags:\n");
    printFlags(out, topoFlags(o.topo));
    std::fprintf(out, "\nobservability flags:\n");
    printFlags(out, obsFlags(o.obs));
    std::fprintf(out, "\nbenchmarks:");
    for (BenchmarkName b : allBenchmarks)
        std::fprintf(out, " %s", benchmarkName(b));
    std::fprintf(out, "\nprotocols: ");
    for (ProtocolName p : allProtocols)
        std::fprintf(out, " %s", protocolName(p));
    std::fprintf(out, "\nreports:   ");
    for (const std::string &r : reportNames())
        std::fprintf(out, " %s", r.c_str());
    std::fprintf(out, " (report only: placement timeline bench)\n"
                      "debug flags: %s\n",
                 debug::flagList().c_str());
}

/**
 * Parse @p argv, the @p argc words after the command name, into the
 * fields @p c's table binds.  --help or -h in place of a flag prints
 * the command's help and exits 0; an unknown option, a missing value,
 * a missing required flag or a flag without the one it needs is fatal.
 */
void
parseFlags(const char *prog, const Command &c, int argc, char **argv)
{
    const auto find = [&c](const std::string &a) -> const Flag * {
        for (const Flag &f : c.flags)
            if (a == f.name ||
                (positional(f) && (a.empty() || a[0] != '-')))
                return &f;
        return nullptr;
    };
    std::set<std::string> seen;
    for (int i = 0; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--help" || a == "-h") {
            std::printf("usage: %s %s\n\n%s\n\n", prog,
                        synopsis(c).c_str(), c.summary);
            printFlags(stdout, c.flags);
            std::exit(0);
        }
        const Flag *f = find(a);
        fatal_if(!f, "%s: unknown option '%s'", c.name, a.c_str());
        if (positional(*f)) {
            f->set(f->name, a);
        } else {
            fatal_if(f->metavar && i + 1 == argc, "%s needs a value",
                     f->name);
            f->set(f->name, f->metavar ? argv[++i] : "");
        }
        seen.insert(f->name);
    }
    for (const Flag &f : c.flags) {
        fatal_if(f.required && !seen.count(f.name), "%s: %s is required",
                 c.name, f.name);
        fatal_if(f.needs && seen.count(f.name) && !seen.count(f.needs),
                 "%s: %s needs %s", c.name, f.name,
                 spelling(*find(f.needs)).c_str());
        fatal_if(f.excludes && seen.count(f.name) && seen.count(f.excludes),
                 "%s: %s and %s are mutually exclusive", c.name,
                 f.excludes, f.name);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    logVerbosity = 1;
    Opts o;
    const std::vector<Command> cmds = commands(o);
    const std::string name = argc < 2 ? "" : argv[1];
    if (name == "help" || name == "--help" || name == "-h") {
        printUsage(argv[0], cmds, o, stdout);
        return 0;
    }
    for (const Command &c : cmds) {
        if (name == c.name) {
            parseFlags(argv[0], c, argc - 2, argv + 2);
            return c.run(o);
        }
    }
    if (argc >= 2)
        std::fprintf(stderr, "unknown command '%s'\n", argv[1]);
    printUsage(argv[0], cmds, o, stderr);
    return 2;
}
