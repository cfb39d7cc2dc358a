/**
 * @file
 * `wastesim` — the command-line front end to the simulator.
 *
 *   wastesim record  --bench NAME [--scale N] --out FILE
 *       build a Table-4.2 benchmark and serialize it as a trace file
 *   wastesim replay  --trace FILE [--protocol P ...]
 *       replay a trace through protocol variants and print results
 *   wastesim synth   [--preset NAME | --seed N --pattern P ...]
 *       generate a synthetic scenario; run it, or save it as a trace
 *   wastesim sweep   [--scale N] [--report NAME ...]
 *       run the full 9-protocol grid (per-cell disk cache) over one
 *       mesh or a --mesh-list, optionally as one shard of N processes
 *   wastesim report  [--report NAME ...] [--format table|json|csv]
 *       render any figure straight from a sweep cache, without
 *       re-simulating; includes the MC placement study and the
 *       metric-schema dump (--schema)
 *   wastesim merge   --out FILE CACHE...
 *       combine partial (sharded) sweep caches into one
 *   wastesim cell    --bench B --protocol P --out FILE ...
 *       compute one sweep cell and write a checksummed result file
 *       (the worker half of `sweep --supervise`)
 *   wastesim fuzz    [--seed N] [--runs N] [--time-budget SEC]
 *       [--minimize] [--corpus DIR] ...
 *       seeded scenario fuzzing under the runtime invariant checker;
 *       each scenario runs in a crash-isolated worker process
 *   wastesim fuzzone --scenario LINE --out FILE ...
 *       check one encoded scenario and write a checksummed verdict
 *       (the worker half of `fuzz`)
 *   wastesim info    --trace FILE
 *       print a trace file's header, regions and op counts
 *
 * Run `wastesim help` for the full option list.  All simulations use
 * the scaled Table-4.1 hierarchy (SimParams::scaled()) unless
 * --full-size is given.
 */

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
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

/** Print the usage text to @p out; returns the exit code for a
 *  command line that could not be parsed. */
int
usage(const char *prog, std::FILE *out = stderr)
{
    std::fprintf(
        out,
        "usage: %s <command> [options]\n"
        "\n"
        "commands:\n"
        "  record  --bench NAME [--scale N] [--mesh WxH] [--mcs N]\n"
        "          [--mc-tiles T,T,...] --out FILE\n"
        "          serialize a Table-4.2 benchmark to a trace file\n"
        "  replay  --trace FILE [--protocol P ...] [--mesh WxH]\n"
        "          [--mcs N] [--mc-tiles T,T,...] [--full-size]\n"
        "          replay a trace through protocols (default: all 9)\n"
        "          on the trace's recorded topology (v2 traces;\n"
        "          topology flags override, and must then match)\n"
        "  synth   [--preset hotset64|all2all|mc-corner]\n"
        "          [--seed N] [--pattern stride|random|hotset]\n"
        "          [--ops N] [--phases N] [--regions N]\n"
        "          [--region-bytes N] [--private-bytes N]\n"
        "          [--sharing-degree N] [--read-frac F]\n"
        "          [--shared-frac F] [--stride W] [--hot-frac F]\n"
        "          [--hot-prob F] [--work N] [--bypass]\n"
        "          [--mesh WxH] [--mcs N] [--mc-tiles T,T,...]\n"
        "          [--out FILE | --protocol P ... | --full-size]\n"
        "          generate a synthetic scenario; save or simulate it\n"
        "          (--preset first; later flags refine the preset)\n"
        "  sweep   [--scale N] [--report NAME ...] [--mesh WxH |\n"
        "          --mesh-list WxH,WxH,...] [--mcs N]\n"
        "          [--mc-tiles T,T,...] [--shard I/N] [--cache FILE]\n"
        "          [--jobs N] [--format table|json|csv] [--full-size]\n"
        "          [--progress] [--supervise N] [--max-retries N]\n"
        "          [--retry-backoff-ms N] [--cell-deadline-ms N]\n"
        "          [--retry-quarantined]\n"
        "          [--fault-inject crash:P,hang:P,corrupt:P]\n"
        "          [--fault-seed N]\n"
        "          full 9-protocol x 6-benchmark grid over every\n"
        "          listed mesh, against a per-cell disk cache that\n"
        "          only computes missing cells — finished cells are\n"
        "          persisted immediately, so a killed run resumes\n"
        "          (reports: fig5.1a b c d, fig5.2, fig5.3a b c,\n"
        "          overhead, headline, energy; default: fig5.1a +\n"
        "          headline; --shard I/N runs the deterministic 1/N\n"
        "          grid slice and writes a partial cache for `merge`;\n"
        "          --jobs N sizes the simulation thread pool,\n"
        "          overriding $WASTESIM_JOBS; --progress prints a\n"
        "          heartbeat with RSS, ETA; flags stalled cells; in a\n"
        "          sweep --timeline traces wall-clock cell\n"
        "          lifecycles, not sim time; --supervise N computes\n"
        "          cells on N crash-isolated worker processes with\n"
        "          retry/backoff, per-cell deadlines and poison-cell\n"
        "          quarantine — SIGINT drains gracefully, and\n"
        "          --fault-inject exercises the failure paths with\n"
        "          seeded deterministic faults)\n"
        "  report  [--report NAME ...] [--format table|json|csv]\n"
        "          [--mesh WxH | --mesh-list ...] [--mcs N]\n"
        "          [--mc-tiles T,T,...] [--scale N] [--cache FILE]\n"
        "          [--jobs N] [--compute-missing]\n"
        "          [--retry-quarantined] [--schema]\n"
        "          [--full-size] [--in FILE] [--baseline FILE]\n"
        "          [--tolerance F]\n"
        "          render figures from a sweep cache without\n"
        "          re-simulating (all sweep reports, plus\n"
        "          `placement`: the curated MC-placement study of\n"
        "          one mesh, and --schema: the metric schema +\n"
        "          fingerprint; --compute-missing simulates cache\n"
        "          holes instead of failing; `timeline` renders a\n"
        "          sampler JSON (--in) as a windowed time series;\n"
        "          `bench` renders a BENCH_*.json (--in) and exits 1\n"
        "          when any rate falls more than --tolerance (0.25)\n"
        "          below --baseline; quarantined cells render as\n"
        "          annotated holes — --retry-quarantined recomputes\n"
        "          them with --compute-missing instead)\n"
        "  merge   [--skip-bad] --out FILE CACHE...\n"
        "          combine partial sweep caches (from --shard runs)\n"
        "          into one; the result is byte-identical to an\n"
        "          unsharded sweep's cache; a corrupt cell fails the\n"
        "          merge naming the cell and byte offset, unless\n"
        "          --skip-bad salvages the intact cells around it\n"
        "  cell    --bench B --protocol P --out FILE [--scale N]\n"
        "          [--mesh WxH] [--mc-tiles T,T,...] [--full-size]\n"
        "          [--fault-inject SPEC --fault-seed N\n"
        "          --fault-attempt K]\n"
        "          compute one sweep cell; used internally by\n"
        "          `sweep --supervise` worker processes\n"
        "  fuzz    [--seed N] [--runs N] [--time-budget SEC]\n"
        "          [--minimize] [--corpus DIR] [--report FILE]\n"
        "          [--no-replay] [--max-ticks N] [--deadline-ms N]\n"
        "          [--minimize-tests N]\n"
        "          draw N seeded random-but-valid scenarios (mesh,\n"
        "          MC placement, protocol, DRAM timings, synthetic\n"
        "          workload mix) and run each under the runtime\n"
        "          invariant checker — conservation laws plus\n"
        "          run-twice replay determinism; every scenario runs\n"
        "          in a crash-isolated worker with a deadline, so a\n"
        "          crash or hang is captured in the report (with its\n"
        "          one-line reproducer) instead of killing the\n"
        "          campaign; --minimize delta-debugs each failure to\n"
        "          a near-minimal scenario; --corpus DIR emits the\n"
        "          minimized anomalies as regression .scn files;\n"
        "          exits nonzero on any violation or crash\n"
        "  fuzzone --scenario LINE --out FILE [--max-ticks N]\n"
        "          [--no-replay]\n"
        "          check one encoded scenario and write a checksummed\n"
        "          verdict file; the worker half of `fuzz`, and the\n"
        "          in-process way to debug one reported scenario\n"
        "  info    --trace FILE\n"
        "          describe a trace file\n"
        "\n"
        "topology: --mesh WxH sets the mesh (default 4x4); --mcs N\n"
        "the memory-controller count (default: one per corner);\n"
        "--mc-tiles T,T,... places controllers on explicit tiles\n"
        "(edge vs center vs diagonal placement studies)\n"
        "\n"
        "observability (every command): --debug-flags F,F,... enables\n"
        "sim-time tracing (flags: mesi denovo noc dram queue sweep\n"
        "supervisor;\n"
        "`all` enables everything), windowed by --debug-start T and\n"
        "--debug-end T; --sample-window N samples registered counters\n"
        "every N ticks into --sample-out FILE (default\n"
        "wastesim_samples_%%p_%%b.json; %%p/%%b expand to protocol /\n"
        "benchmark); --timeline FILE writes a Chrome trace-event JSON\n"
        "(chrome://tracing, Perfetto); --heatmap FILE writes per-link\n"
        "NoC flit counts per window as CSV; -v/-vv raise log\n"
        "verbosity (status / debug) independently of --debug-flags,\n"
        "which traces regardless of verbosity once enabled\n"
        "\n"
        "benchmarks:",
        prog);
    for (BenchmarkName b : allBenchmarks)
        std::fprintf(out, " %s", benchmarkName(b));
    std::fprintf(out, "\nprotocols: ");
    for (ProtocolName p : allProtocols)
        std::fprintf(out, " %s", protocolName(p));
    std::fprintf(out, "\n");
    return 2;
}

/** Argument cursor with typed accessors; calls fatal() on misuse. */
class Args
{
  public:
    /** @p prog names the binary in the usage text. */
    Args(const char *prog, int argc, char **argv)
        : prog_(prog), argc_(argc), argv_(argv)
    {
    }

    bool done() const { return i_ >= argc_; }

    /** The next option; --help or -h prints the usage and exits 0. */
    std::string
    next()
    {
        fatal_if(done(), "missing argument");
        std::string a = argv_[i_++];
        if (a == "--help" || a == "-h") {
            usage(prog_, stdout);
            std::exit(0);
        }
        return a;
    }

    std::string
    value(const std::string &flag)
    {
        fatal_if(done(), "%s needs a value", flag.c_str());
        return argv_[i_++];
    }

    std::uint64_t
    uvalue(const std::string &flag,
           std::uint64_t max = std::numeric_limits<std::uint64_t>::max())
    {
        const std::string v = value(flag);
        char *end = nullptr;
        errno = 0;
        const unsigned long long r = std::strtoull(v.c_str(), &end, 10);
        // strtoull silently wraps negatives; reject them explicitly.
        fatal_if(end == v.c_str() || *end != '\0' ||
                     v.find('-') != std::string::npos ||
                     errno == ERANGE || r > max,
                 "%s needs an unsigned integer in [0, %llu], got '%s'",
                 flag.c_str(), static_cast<unsigned long long>(max),
                 v.c_str());
        return r;
    }

    /** uvalue() bounded to 32 bits (the common `unsigned` knobs). */
    unsigned
    u32value(const std::string &flag)
    {
        return static_cast<unsigned>(
            uvalue(flag, std::numeric_limits<std::uint32_t>::max()));
    }

    double
    fvalue(const std::string &flag)
    {
        const std::string v = value(flag);
        char *end = nullptr;
        const double r = std::strtod(v.c_str(), &end);
        fatal_if(end == v.c_str() || *end != '\0',
                 "%s needs a number, got '%s'", flag.c_str(),
                 v.c_str());
        return r;
    }

  private:
    const char *prog_;
    int argc_;
    char **argv_;
    int i_ = 0;
};

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

/** Shared protocol-list parsing: --protocol may repeat. */
void
parseProtocol(const std::string &v, std::vector<ProtocolName> &out)
{
    ProtocolName p;
    fatal_if(!protocolFromName(v, p), "unknown protocol '%s'",
             v.c_str());
    out.push_back(p);
}

std::vector<ProtocolName>
defaultProtocols()
{
    return {allProtocols, allProtocols + numProtocols};
}

/**
 * Deferred --mesh / --mcs / --mc-tiles parsing: flags are collected
 * while walking the argument list and applied once at the end, so
 * their position relative to --full-size (which replaces the whole
 * SimParams) does not matter.
 */
struct TopoArgs
{
    unsigned meshX = 0, meshY = 0;  //!< 0 = not given
    unsigned mcs = 0;               //!< 0 = default placement
    std::vector<NodeId> mcTiles;    //!< explicit placement (--mc-tiles)

    /** Consume @p a if it is a topology flag. */
    bool
    tryParse(const std::string &a, Args &args)
    {
        if (a == "--mesh") {
            const std::string v = args.value(a);
            fatal_if(!Topology::parseMesh(v, meshX, meshY),
                     "%s needs a WxH mesh spec (e.g. 4x4), got '%s'",
                     a.c_str(), v.c_str());
        } else if (a == "--mcs") {
            mcs = args.u32value(a);
        } else if (a == "--mc-tiles") {
            const std::string v = args.value(a);
            std::vector<NodeId> tiles;
            fatal_if(!Topology::parseTileList(v, tiles),
                     "%s needs comma-separated tile ids below %u, got "
                     "'%s'",
                     a.c_str(), maxTiles, v.c_str());
            mcTiles = std::move(tiles);
        } else {
            return false;
        }
        return true;
    }

    /** True when any topology flag was given. */
    bool
    given() const
    {
        return meshX != 0 || mcs != 0 || !mcTiles.empty();
    }

    /** The requested topology (paper default when nothing given). */
    Topology
    make() const
    {
        fatal_if(mcs != 0 && !mcTiles.empty(),
                 "--mcs and --mc-tiles are mutually exclusive");
        const unsigned x = meshX == 0 ? meshDim : meshX;
        const unsigned y = meshX == 0 ? meshDim : meshY;
        if (!mcTiles.empty())
            return Topology(x, y, mcTiles);
        if (meshX == 0 && mcs == 0)
            return Topology{};
        return Topology(x, y, mcs);
    }

    /** Install into @p params (after all flags are parsed). */
    void apply(SimParams &params) const { params.topo = make(); }
};

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
 * Observability options, accepted uniformly by every subcommand:
 *
 *   --debug-flags A,B,...  enable named trace flags (to stderr)
 *   --debug-start T        first tick traces may fire (default 0)
 *   --debug-end T          first tick traces go silent again
 *   --sample-window N      sample registered counters every N ticks
 *   --sample-out FILE      sampler JSON path (%p protocol, %b bench)
 *   --timeline FILE        trace-event JSON (sim time; for sweep: the
 *                          wall-clock cell lifecycle)
 *   --heatmap FILE         per-window per-link flit CSV (%p/%b)
 *   -v / -vv               raise log verbosity (inform/debug)
 *
 * Precedence: -v/-vv drive inform()/warn() only; --debug-flags is an
 * independent channel (tracing works at -q and stays off at -vv
 * unless flags are named explicitly).
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

    /** Consume @p a if it is an observability flag. */
    bool
    tryParse(const std::string &a, Args &args)
    {
        if (a == "--debug-flags")
            debugFlags = args.value(a);
        else if (a == "--debug-start")
            debugStart = args.uvalue(a);
        else if (a == "--debug-end")
            debugEnd = args.uvalue(a);
        else if (a == "--sample-window")
            sampleWindow = args.uvalue(a);
        else if (a == "--sample-out")
            sampleOut = args.value(a);
        else if (a == "--timeline")
            timelineOut = args.value(a);
        else if (a == "--heatmap")
            heatmapOut = args.value(a);
        else if (a == "-v")
            verbosity = 2;
        else if (a == "-vv")
            verbosity = 3;
        else
            return false;
        return true;
    }

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
};

/** The --jobs flag of sweep and report: sizes the simulation thread
 *  pool, overriding $WASTESIM_JOBS. */
void
setJobs(const char *cmd, unsigned jobs)
{
    fatal_if(jobs < 1 || jobs > 1024,
             "%s: --jobs needs a value in [1, 1024]", cmd);
    setSweepJobs(jobs);
}

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

int
cmdRecord(Args args)
{
    std::string bench_name, out;
    unsigned scale = 1;
    TopoArgs topo;
    ObsCli obs;
    while (!args.done()) {
        const std::string a = args.next();
        if (a == "--bench")
            bench_name = args.value(a);
        else if (a == "--scale")
            scale = args.u32value(a);
        else if (a == "--out" || a == "-o")
            out = args.value(a);
        else if (topo.tryParse(a, args) || obs.tryParse(a, args)) {
        } else
            fatal("record: unknown option '%s'", a.c_str());
    }
    obs.apply("record");
    fatal_if(bench_name.empty(), "record: --bench is required");
    fatal_if(out.empty(), "record: --out is required");

    BenchmarkName bench;
    fatal_if(!benchmarkFromName(bench_name, bench),
             "record: unknown benchmark '%s'", bench_name.c_str());

    auto wl = makeBenchmark(bench, scale, topo.make());
    TraceRecorder rec(out);
    fatal_if(!rec.record(*wl), "record: %s", rec.error().c_str());
    std::printf("recorded %s (%s) to %s: %zu ops, %zu regions, "
                "%zu barriers\n",
                wl->name().c_str(), wl->inputDesc().c_str(),
                out.c_str(), wl->totalOps(),
                wl->regions().numRegions(), wl->barriers().size());
    return 0;
}

int
cmdReplay(Args args)
{
    std::string trace_path;
    std::vector<ProtocolName> protocols;
    SimParams params = SimParams::scaled();
    TopoArgs topo;
    ObsCli obs;
    while (!args.done()) {
        const std::string a = args.next();
        if (a == "--trace")
            trace_path = args.value(a);
        else if (a == "--protocol")
            parseProtocol(args.value(a), protocols);
        else if (a == "--full-size")
            params = SimParams{};
        else if (topo.tryParse(a, args) || obs.tryParse(a, args)) {
        } else
            fatal("replay: unknown option '%s'", a.c_str());
    }
    obs.apply("replay");
    fatal_if(trace_path.empty(), "replay: --trace is required");
    if (protocols.empty())
        protocols = defaultProtocols();

    // v2 traces are self-describing: without explicit topology flags
    // the replay runs on the recorded geometry instead of forcing the
    // user to re-type what the header already knows.  Flags (or a v1
    // trace) fall back to the old default-topology behavior.
    std::string err;
    std::unique_ptr<TraceWorkload> wl;
    if (topo.given()) {
        topo.apply(params);
        wl = TraceWorkload::load(trace_path, params.topo, &err);
    } else {
        wl = TraceWorkload::loadAnyTopology(trace_path, &err);
        if (wl) {
            if (wl->hasRecordedTopology()) {
                // The loader already installed the recorded topology.
                params.topo = wl->topo();
            } else {
                // v1 trace: only its core count can gate the default.
                params.topo = Topology{};
                fatal_if(
                    wl->numCores() != params.topo.numTiles(),
                    "replay: %s: trace was recorded for %u cores; "
                    "the default topology %s has %u (pass a matching "
                    "--mesh)",
                    trace_path.c_str(), wl->numCores(),
                    params.topo.describe().c_str(),
                    params.topo.numTiles());
            }
        }
    }
    fatal_if(!wl, "replay: %s", err.c_str());
    std::printf("loaded %s: %zu ops, %zu regions, %zu barriers\n",
                trace_path.c_str(), wl->totalOps(),
                wl->regions().numRegions(), wl->barriers().size());

    const Sweep s = runSweep({wl.get()}, protocols, params);
    printRunTable(s);
    return 0;
}

int
cmdSynth(Args args)
{
    SynthParams sp;
    std::string out, presetName;
    std::vector<ProtocolName> protocols;
    SimParams params = SimParams::scaled();
    TopoArgs topo;
    Topology presetTopo;
    bool full_size = false, have_preset = false;
    ObsCli obs;
    // Preset parameters are derived from the FINAL topology (--mesh
    // may refine the preset's curated mesh), so parameter flags are
    // collected as deferred tuners and applied after the preset.
    std::vector<std::function<void(SynthParams &)>> tuners;
    auto tune = [&tuners](auto value, auto member) {
        tuners.push_back([value, member](SynthParams &p) {
            p.*member = value;
        });
    };
    while (!args.done()) {
        const std::string a = args.next();
        if (a == "--preset") {
            presetName = args.value(a);
            fatal_if(!synthPresetFromName(presetName, sp, presetTopo),
                     "synth: unknown preset '%s' (hotsetN, all2all, "
                     "mc-corner)",
                     presetName.c_str());
            have_preset = true;
        } else if (a == "--seed")
            tune(args.uvalue(a), &SynthParams::seed);
        else if (a == "--pattern") {
            const std::string v = args.value(a);
            SynthParams::Pattern pattern;
            fatal_if(!SynthParams::patternFromName(v, pattern),
                     "synth: unknown pattern '%s' (stride, random, "
                     "hotset)",
                     v.c_str());
            tune(pattern, &SynthParams::pattern);
        } else if (a == "--ops")
            tune(args.u32value(a), &SynthParams::opsPerCore);
        else if (a == "--phases")
            tune(args.u32value(a), &SynthParams::phases);
        else if (a == "--regions")
            tune(args.u32value(a), &SynthParams::sharedRegions);
        else if (a == "--region-bytes")
            tune(args.u32value(a), &SynthParams::regionBytes);
        else if (a == "--private-bytes")
            tune(args.u32value(a), &SynthParams::privateBytes);
        else if (a == "--sharing-degree")
            tune(args.u32value(a), &SynthParams::sharingDegree);
        else if (a == "--read-frac")
            tune(args.fvalue(a), &SynthParams::readFraction);
        else if (a == "--shared-frac")
            tune(args.fvalue(a), &SynthParams::sharedFraction);
        else if (a == "--stride")
            tune(args.u32value(a), &SynthParams::strideWords);
        else if (a == "--hot-frac")
            tune(args.fvalue(a), &SynthParams::hotFraction);
        else if (a == "--hot-prob")
            tune(args.fvalue(a), &SynthParams::hotProbability);
        else if (a == "--work")
            tune(args.u32value(a), &SynthParams::workCycles);
        else if (a == "--bypass")
            tune(true, &SynthParams::bypassShared);
        else if (a == "--out" || a == "-o")
            out = args.value(a);
        else if (a == "--protocol")
            parseProtocol(args.value(a), protocols);
        else if (a == "--full-size") {
            params = SimParams{};
            full_size = true;
        } else if (topo.tryParse(a, args) || obs.tryParse(a, args)) {
        } else
            fatal("synth: unknown option '%s'", a.c_str());
    }
    obs.apply("synth");

    fatal_if(!out.empty() && (!protocols.empty() || full_size),
             "synth: --out saves a trace without simulating; it "
             "cannot be combined with --protocol or --full-size "
             "(save the trace, then `replay` it)");
    // A preset carries its curated topology; explicit topology flags
    // refine it rather than resetting to the 4x4 default: --mesh
    // overrides the dims, --mcs/--mc-tiles the placement, and
    // whatever was not overridden survives from the preset.
    if (have_preset) {
        const unsigned x =
            topo.meshX != 0 ? topo.meshX : presetTopo.meshX();
        const unsigned y =
            topo.meshX != 0 ? topo.meshY : presetTopo.meshY();
        fatal_if(topo.mcs != 0 && !topo.mcTiles.empty(),
                 "--mcs and --mc-tiles are mutually exclusive");
        if (!topo.mcTiles.empty()) {
            params.topo = Topology(x, y, topo.mcTiles);
        } else if (topo.mcs != 0) {
            params.topo = Topology(x, y, topo.mcs);
        } else if (topo.meshX == 0) {
            params.topo = presetTopo;
        } else {
            // Mesh overridden, placement not: a CURATED placement
            // carries over when its tiles fit the new mesh
            // (mc-corner's tile 0 stays the story at any size), but a
            // preset that simply used its mesh's default placement
            // must get the NEW mesh's default — the old mesh's corner
            // tile ids land on arbitrary tiles of a bigger mesh.
            std::vector<NodeId> mcs = presetTopo.memCtrlTiles();
            const bool curated =
                mcs != Topology(presetTopo.meshX(), presetTopo.meshY())
                           .memCtrlTiles();
            const bool fits =
                std::all_of(mcs.begin(), mcs.end(),
                            [&](NodeId t) { return t < x * y; });
            params.topo = curated && fits
                              ? Topology(x, y, std::move(mcs))
                              : Topology(x, y);
        }
    } else {
        topo.apply(params);
    }

    // Presets are topology-aware: with the final geometry known,
    // derive the preset's parameters for it (sharing degree, region
    // sizes scale with the tile count), then apply explicit parameter
    // flags on top so they always win.
    if (have_preset)
        fatal_if(!synthPresetFor(presetName, params.topo, sp),
                 "synth: preset '%s' has no topology-derived form",
                 presetName.c_str());
    for (const auto &t : tuners)
        t(sp);

    auto wl = makeSynthetic(sp, params.topo);
    std::printf("generated %s on %s (%s): %zu ops\n",
                wl->name().c_str(), params.topo.describe().c_str(),
                wl->inputDesc().c_str(), wl->totalOps());

    if (!out.empty()) {
        TraceRecorder rec(out);
        fatal_if(!rec.record(*wl), "synth: %s", rec.error().c_str());
        std::printf("saved trace to %s\n", out.c_str());
        return 0;
    }

    if (protocols.empty())
        protocols = defaultProtocols();
    const Sweep s = runSweep({wl.get()}, protocols, params);
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

/** Shared --format parsing. */
ReportFormat
parseFormat(const std::string &flag, const std::string &v)
{
    ReportFormat fmt = ReportFormat::Table;
    fatal_if(!reportFormatFromName(v, fmt),
             "%s needs table, json or csv, got '%s'", flag.c_str(),
             v.c_str());
    return fmt;
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
 * `wastesim cell` — the worker half of `sweep --supervise`: compute
 * exactly one (topology, benchmark, protocol) cell and write it as a
 * checksummed hand-off file (supervisor.hh documents the format).
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
cmdCell(Args args)
{
    std::string bench_name, proto_name, out, faultSpecStr;
    unsigned scale = 1;
    std::uint64_t faultSeed = 0;
    unsigned faultAttempt = 0;
    SimParams params = SimParams::scaled();
    TopoArgs topo;
    ObsCli obs;
    while (!args.done()) {
        const std::string a = args.next();
        if (a == "--bench")
            bench_name = args.value(a);
        else if (a == "--protocol")
            proto_name = args.value(a);
        else if (a == "--scale")
            scale = args.u32value(a);
        else if (a == "--full-size")
            params = SimParams{};
        else if (a == "--out" || a == "-o")
            out = args.value(a);
        else if (a == "--fault-inject")
            faultSpecStr = args.value(a);
        else if (a == "--fault-seed")
            faultSeed = args.uvalue(a);
        else if (a == "--fault-attempt")
            faultAttempt = args.u32value(a);
        else if (topo.tryParse(a, args) || obs.tryParse(a, args)) {
        } else
            fatal("cell: unknown option '%s'", a.c_str());
    }
    obs.apply("cell");
    // Workers share the parent's stderr; status chatter from dozens
    // of children would drown the supervisor's own reporting.
    if (obs.verbosity <= 1)
        logVerbosity = 0;
    fatal_if(bench_name.empty(), "cell: --bench is required");
    fatal_if(proto_name.empty(), "cell: --protocol is required");
    fatal_if(out.empty(), "cell: --out is required");

    BenchmarkName bench;
    fatal_if(!benchmarkFromName(bench_name, bench),
             "cell: unknown benchmark '%s'", bench_name.c_str());
    ProtocolName proto;
    fatal_if(!protocolFromName(proto_name, proto),
             "cell: unknown protocol '%s'", proto_name.c_str());
    FaultSpec faults;
    if (!faultSpecStr.empty()) {
        std::string err;
        fatal_if(!FaultSpec::parse(faultSpecStr, faults, &err),
                 "cell: %s", err.c_str());
    }
    topo.apply(params);

    const std::string cell_id = sweepConfigTag(scale, params) +
                                ",bench=" + benchmarkName(bench) +
                                ",proto=" + protocolName(proto);

    // Injected faults fire before the simulation: a crashed or hung
    // worker never gets as far as producing a result, exactly like a
    // real SIGSEGV or livelock would behave.
    const FaultKind fate =
        faultDraw(faults, faultSeed, cell_id, faultAttempt);
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

    const RunResult r = runOne(proto, bench, scale, params);
    std::string bytes = formatWorkerOutput(cell_id, r);
    if (fate == FaultKind::Corrupt)
        corruptWorkerOutput(bytes, faultSeed, faultAttempt);

    fatal_if(!writeHandoff(out, bytes), "cell: cannot write '%s'",
             out.c_str());
    return 0;
}

int
cmdSweep(Args args)
{
    unsigned scale = 1;
    SimParams params = SimParams::scaled();
    std::vector<std::string> reports;
    TopoArgs topo;
    std::string meshListSpec, cachePath;
    unsigned shard = 0, numShards = 1;
    unsigned progressMs = 0;
    unsigned supervise = 0;
    unsigned maxRetries = 3, backoffMs = 200, deadlineMs = 0;
    std::string faultSpecStr;
    std::uint64_t faultSeed = 0;
    bool retryQuarantined = false, full_size = false;
    ReportFormat fmt = ReportFormat::Table;
    ObsCli obs;
    while (!args.done()) {
        const std::string a = args.next();
        if (a == "--scale")
            scale = args.u32value(a);
        else if (a == "--report")
            reports.push_back(args.value(a));
        else if (a == "--format")
            fmt = parseFormat(a, args.value(a));
        else if (a == "--mesh-list")
            meshListSpec = args.value(a);
        else if (a == "--shard") {
            const std::string v = args.value(a);
            const std::size_t slash = v.find('/');
            char *end = nullptr;
            unsigned long i = 0, n = 0;
            if (slash != std::string::npos && slash > 0) {
                i = std::strtoul(v.c_str(), &end, 10);
                const bool i_ok = end == v.c_str() + slash;
                n = std::strtoul(v.c_str() + slash + 1, &end, 10);
                fatal_if(!i_ok || end != v.c_str() + v.size() ||
                             n == 0 || i >= n || n > 4096,
                         "sweep: --shard needs I/N with I < N, got "
                         "'%s'",
                         v.c_str());
            } else {
                fatal("sweep: --shard needs I/N (e.g. 0/4), got '%s'",
                      v.c_str());
            }
            shard = static_cast<unsigned>(i);
            numShards = static_cast<unsigned>(n);
        } else if (a == "--cache")
            cachePath = args.value(a);
        else if (a == "--jobs")
            setJobs("sweep", args.u32value(a));
        else if (a == "--full-size") {
            params = SimParams{};
            full_size = true;
        } else if (a == "--progress")
            progressMs = 5000;
        else if (a == "--supervise") {
            supervise = args.u32value(a);
            fatal_if(supervise < 1 || supervise > 256,
                     "sweep: --supervise needs a worker count in "
                     "[1, 256]");
        } else if (a == "--max-retries")
            maxRetries = args.u32value(a);
        else if (a == "--retry-backoff-ms")
            backoffMs = args.u32value(a);
        else if (a == "--cell-deadline-ms")
            deadlineMs = args.u32value(a);
        else if (a == "--retry-quarantined")
            retryQuarantined = true;
        else if (a == "--fault-inject")
            faultSpecStr = args.value(a);
        else if (a == "--fault-seed")
            faultSeed = args.uvalue(a);
        else if (topo.tryParse(a, args) || obs.tryParse(a, args)) {
        } else
            fatal("sweep: unknown option '%s'", a.c_str());
    }
    FaultSpec faults;
    if (!faultSpecStr.empty()) {
        std::string fault_err;
        fatal_if(!FaultSpec::parse(faultSpecStr, faults, &fault_err),
                 "sweep: %s", fault_err.c_str());
    }
    // Faults only make sense where a crash is isolated to one worker
    // process; injecting them into the threaded engine would take
    // down the whole sweep, which is exactly the failure mode the
    // supervisor exists to prevent.
    fatal_if(faults.any() && supervise == 0,
             "sweep: --fault-inject needs --supervise N (faults "
             "crash worker processes, not the sweep itself)");
    // In a sweep, --timeline means the wall-clock cell-lifecycle
    // trace (the engine's view), not a per-simulation sim-time trace:
    // cells run concurrently and would race on one sim-time file.
    obs.apply("sweep", /*sim_timeline=*/false);
    if (reports.empty())
        reports = {"fig5.1a", "headline"};
    // inform() status lines share stdout with the reports; in the
    // structured formats they would corrupt the JSON/CSV stream.
    if (fmt != ReportFormat::Table)
        logVerbosity = 0;
    topo.apply(params);

    std::vector<Topology> topologies =
        topologyAxis("sweep", topo, meshListSpec, params);

    const std::string path = resolveCachePath(cachePath);
    const bool no_cache = std::getenv("WASTESIM_NO_CACHE") != nullptr;
    // A shard's only product is its partial cache file; running one
    // with the cache disabled would discard every result.
    fatal_if(numShards > 1 && no_cache,
             "sweep: --shard writes a partial cache; unset "
             "WASTESIM_NO_CACHE to run sharded");

    SweepSpec spec = SweepSpec::fullGrid(scale, params);
    spec.topologies = std::move(topologies);

    CellCache cache;
    if (!no_cache)
        loadCacheSalvage("sweep", cache, path);

    // Graceful drain: the first SIGINT/SIGTERM lets in-flight cells
    // finish (each is autosaved as it completes), a second one stops
    // immediately.  Shared by both execution paths.
    installDrainHandlers();

    std::vector<Sweep> sweeps;
    std::size_t cellsTotal, cellsHit, cellsComputed, cellsQuarantined;
    std::size_t numRetries = 0, numKills = 0;
    bool was_interrupted;
    if (supervise > 0) {
        SupervisorConfig cfg;
        cfg.workers = supervise;
        cfg.maxRetries = maxRetries;
        cfg.backoffBaseMs = backoffMs;
        cfg.deadlineMs = deadlineMs;
        cfg.faultSeed = faultSeed;
        cfg.faults = faults;
        cfg.retryQuarantined = retryQuarantined;
        cfg.progressMs = progressMs;
        if (!no_cache)
            cfg.autosavePath = path;
        cfg.timelinePath = obs.timelineOut;
        cfg.shard = shard;
        cfg.numShards = numShards;
        // The worker must rebuild the exact SimParams of this parent;
        // topology travels per cell, scale and the full-size switch
        // travel here.
        cfg.workerParamArgs = {"--scale", std::to_string(scale)};
        if (full_size)
            cfg.workerParamArgs.push_back("--full-size");
        SweepSupervisor sup(spec, cfg);
        sweeps = sup.run(cache);
        cellsTotal = sup.cellsTotal();
        cellsHit = sup.cellsHit();
        cellsComputed = sup.cellsComputed();
        cellsQuarantined = sup.cellsQuarantined();
        numRetries = sup.retries();
        numKills = sup.deadlineKills();
        was_interrupted = sup.interrupted();
    } else {
        SweepEngine engine(spec);
        if (numShards > 1)
            engine.setShard(shard, numShards);
        // Partial-cache resume: every finished cell is persisted
        // immediately (atomic rename), so a killed shard restarts
        // from its completed cells instead of recomputing the slice —
        // the autosave of the last cell doubles as the final cache
        // write.
        if (!no_cache)
            engine.setAutosave(path);
        engine.setProgress(progressMs);
        engine.setTimeline(obs.timelineOut);
        engine.setRetryQuarantined(retryQuarantined);
        engine.setStopCheck([] { return drainRequestCount() > 0; });
        sweeps = engine.run(cache);
        cellsTotal = engine.cellsTotal();
        cellsHit = engine.cellsHit();
        cellsComputed = engine.cellsComputed();
        cellsQuarantined = engine.cellsQuarantined();
        was_interrupted = engine.interrupted();
    }

    // In the structured formats the status line must not pollute the
    // machine-readable stream.
    char extras[96] = "";
    if (numRetries > 0 || numKills > 0 || cellsQuarantined > 0)
        std::snprintf(extras, sizeof(extras),
                      ", %zu retries, %zu deadline kills, "
                      "%zu quarantined",
                      numRetries, numKills, cellsQuarantined);
    std::fprintf(fmt == ReportFormat::Table ? stdout : stderr,
                 "sweep: %zu cells (%zu cached, %zu computed)%s%s\n",
                 cellsTotal, cellsHit, cellsComputed, extras,
                 no_cache ? " [cache disabled]" : "");

    if (was_interrupted) {
        // Completed cells are on disk (autosave); rerunning the same
        // command resumes from them.  The conventional SIGINT exit.
        std::fprintf(stderr,
                     "sweep: interrupted — completed cells are saved"
                     "%s%s; rerun to resume\n",
                     no_cache ? "" : " in ",
                     no_cache ? "" : path.c_str());
        return 130;
    }

    if (numShards > 1) {
        // A shard owns a grid slice, so its Sweeps are partial; the
        // cache file is the product.  Reports come after `merge`.
        std::printf("shard %u/%u: partial cache written to %s; run "
                    "`wastesim merge` over all shards, then `sweep "
                    "--cache MERGED` for reports\n",
                    shard, numShards, path.c_str());
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
cmdReport(Args args)
{
    unsigned scale = 1;
    SimParams params = SimParams::scaled();
    std::vector<std::string> reports;
    TopoArgs topo;
    std::string meshListSpec, cachePath;
    std::string inPath, baselinePath;
    double tolerance = 0.25;
    ReportFormat fmt = ReportFormat::Table;
    bool schema = false, compute_missing = false;
    bool retry_quarantined = false;
    ObsCli obs;
    while (!args.done()) {
        const std::string a = args.next();
        if (a == "--scale")
            scale = args.u32value(a);
        else if (a == "--report")
            reports.push_back(args.value(a));
        else if (a == "--format")
            fmt = parseFormat(a, args.value(a));
        else if (a == "--mesh-list")
            meshListSpec = args.value(a);
        else if (a == "--cache")
            cachePath = args.value(a);
        else if (a == "--jobs")
            setJobs("report", args.u32value(a));
        else if (a == "--full-size")
            params = SimParams{};
        else if (a == "--schema")
            schema = true;
        else if (a == "--compute-missing")
            compute_missing = true;
        else if (a == "--retry-quarantined")
            retry_quarantined = true;
        else if (a == "--in")
            inPath = args.value(a);
        else if (a == "--baseline")
            baselinePath = args.value(a);
        else if (a == "--tolerance") {
            const std::string v = args.value(a);
            char *end = nullptr;
            tolerance = std::strtod(v.c_str(), &end);
            fatal_if(end != v.c_str() + v.size() || tolerance < 0 ||
                         tolerance >= 1,
                     "report: --tolerance needs a fraction in "
                     "[0, 1), got '%s'",
                     v.c_str());
        } else if (topo.tryParse(a, args) || obs.tryParse(a, args)) {
        } else
            fatal("report: unknown option '%s'", a.c_str());
    }
    obs.apply("report");

    if (schema) {
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

    if (reports.empty())
        reports = {"fig5.1a", "headline"};
    if (fmt != ReportFormat::Table)
        logVerbosity = 0;
    topo.apply(params);

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
    fatal_if((want_timeline || want_bench) && inPath.empty(),
             "report: the %s report reads a JSON file; pass --in FILE",
             want_timeline ? "timeline" : "bench");
    fatal_if(want_timeline && want_bench,
             "report: timeline and bench read different --in formats; "
             "request them in separate invocations");

    const std::string path = resolveCachePath(cachePath);
    // WASTESIM_NO_CACHE means the same as for `sweep`: neither serve
    // from nor write the cache file (with --compute-missing the whole
    // grid is then simulated and the results discarded after use).
    const bool no_cache = std::getenv("WASTESIM_NO_CACHE") != nullptr;
    CellCache cache;
    if (!no_cache)
        loadCacheSalvage("report", cache, path);

    fatal_if(placement && !meshListSpec.empty(),
             "report: the placement study sweeps placements of one "
             "mesh; use --mesh, not --mesh-list");
    // The study compares the curated placements, which would silently
    // override an explicit MC request.
    fatal_if(placement && (topo.mcs != 0 || !topo.mcTiles.empty()),
             "report: the placement study uses its curated MC "
             "placements; --mcs/--mc-tiles cannot be combined with "
             "it");
    const std::vector<Topology> topologies =
        topologyAxis("report", topo, meshListSpec, params);

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
            if (!retry_quarantined && cache.isQuarantined(key))
                ++quarantined;
            else
                ++missing;
        }
        fatal_if(missing > 0 && !compute_missing,
                 "report: %zu of %zu cells are not in %s; run "
                 "`wastesim sweep` with the same topology flags "
                 "first, or pass --compute-missing to simulate them",
                 missing, spec.numCells(), path.c_str());
        SweepEngine engine(spec);
        engine.setRetryQuarantined(retry_quarantined);
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
        SweepSpec spec = SweepSpec::fullGrid(scale, params);
        spec.topologies = topologies;
        const std::vector<Sweep> sweeps = assemble(spec);
        texts = renderSweepReports(single, spec, sweeps, fmt);
    }

    if (placement) {
        const auto placements = curatedMcPlacements(
            params.topo.meshX(), params.topo.meshY());
        SweepSpec spec = SweepSpec::fullGrid(scale, params);
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
        const std::string text = readTextFile("report", inPath);
        SampleData data;
        std::string err;
        fatal_if(!sampleDataFromJson(text, data, &err),
                 "report: '%s' is not a sampler JSON file: %s",
                 inPath.c_str(), err.c_str());
        Figure f = buildTimelineFigure(data);
        f.context = inPath;
        std::string rendered = renderFigure(f, fmt);
        if (fmt == ReportFormat::Table)
            rendered += "\n";
        texts.push_back(std::move(rendered));
    }

    if (want_bench) {
        JsonValue current;
        std::string err;
        fatal_if(!jsonParse(readTextFile("report", inPath), current,
                            &err),
                 "report: cannot parse '%s': %s", inPath.c_str(),
                 err.c_str());
        JsonValue baseline;
        const bool have_base = !baselinePath.empty();
        if (have_base)
            fatal_if(!jsonParse(readTextFile("report", baselinePath),
                                baseline, &err),
                     "report: cannot parse '%s': %s",
                     baselinePath.c_str(), err.c_str());
        bool regressed = false;
        Figure f = buildBenchFigure(
            current, have_base ? &baseline : nullptr, tolerance,
            regressed);
        f.context = inPath;
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
cmdMerge(Args args)
{
    std::string out;
    std::vector<std::string> inputs;
    bool skip_bad = false;
    ObsCli obs;
    while (!args.done()) {
        const std::string a = args.next();
        if (a == "--out" || a == "-o")
            out = args.value(a);
        else if (a == "--skip-bad")
            skip_bad = true;
        else if (obs.tryParse(a, args)) {
        } else if (!a.empty() && a[0] == '-')
            fatal("merge: unknown option '%s'", a.c_str());
        else
            inputs.push_back(a);
    }
    obs.apply("merge");
    fatal_if(out.empty(), "merge: --out is required");
    fatal_if(inputs.empty(), "merge: no input caches given");

    // Strict by default: a damaged shard cache is an error naming the
    // first bad cell and its byte offset, because silently thinning a
    // partial cache would masquerade as a complete merge.  --skip-bad
    // opts into salvage: intact cells are kept, dropped ones listed.
    CellCache merged;
    std::size_t dropped = 0;
    for (const std::string &in : inputs) {
        CellCache part;
        CacheLoadReport rep;
        const CacheLoadMode mode = skip_bad ? CacheLoadMode::Salvage
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
    fatal_if(!merged.save(out), "merge: cannot write '%s'",
             out.c_str());
    std::printf("wrote %zu cells", merged.size());
    if (merged.numQuarantined() > 0)
        std::printf(" + %zu quarantine record(s)",
                    merged.numQuarantined());
    if (dropped > 0)
        std::printf(" (%zu corrupt cell(s) skipped)", dropped);
    std::printf(" to %s\n", out.c_str());
    return 0;
}

int
cmdInfo(Args args)
{
    std::string trace_path;
    ObsCli obs;
    while (!args.done()) {
        const std::string a = args.next();
        if (a == "--trace")
            trace_path = args.value(a);
        else if (obs.tryParse(a, args)) {
        } else
            fatal("info: unknown option '%s'", a.c_str());
    }
    obs.apply("info");
    fatal_if(trace_path.empty(), "info: --trace is required");

    std::string err;
    auto wl = TraceWorkload::loadAnyTopology(trace_path, &err);
    fatal_if(!wl, "info: %s", err.c_str());

    std::printf("trace:     %s\n", trace_path.c_str());
    std::printf("workload:  %s\n", wl->name().c_str());
    std::printf("input:     %s\n", wl->inputDesc().c_str());
    if (wl->hasRecordedTopology())
        std::printf("topology:  %s (%u MCs)\n",
                    wl->topo().describe().c_str(),
                    wl->topo().numMemCtrls());
    else
        std::printf("topology:  unknown (v1 trace; core count only)\n");
    std::printf("ops:       %zu across %u cores\n", wl->totalOps(),
                wl->numCores());
    const double trace_bytes = static_cast<double>(wl->traceBytes());
    std::printf("trace mem: %.2f MB (%.2f B/op)\n",
                trace_bytes / (1024.0 * 1024.0),
                wl->totalOps() ? trace_bytes / wl->totalOps() : 0.0);
    std::printf("barriers:  %zu\n", wl->barriers().size());
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
cmdFuzz(Args args)
{
    FuzzOptions opts;
    std::string reportPath;
    ObsCli obs;
    while (!args.done()) {
        const std::string a = args.next();
        if (a == "--seed")
            opts.seed = args.uvalue(a);
        else if (a == "--runs")
            opts.runs = args.uvalue(a);
        else if (a == "--time-budget")
            opts.timeBudgetSec = args.fvalue(a);
        else if (a == "--minimize")
            opts.minimize = true;
        else if (a == "--corpus")
            opts.corpusDir = args.value(a);
        else if (a == "--report")
            reportPath = args.value(a);
        else if (a == "--no-replay")
            opts.checkReplay = false;
        else if (a == "--max-ticks")
            opts.maxTicks = args.uvalue(a);
        else if (a == "--deadline-ms")
            opts.deadlineMs = args.u32value(a);
        else if (a == "--minimize-tests")
            opts.minimizeMaxTests = args.u32value(a);
        else if (obs.tryParse(a, args)) {
        } else
            fatal("fuzz: unknown option '%s'", a.c_str());
    }
    obs.apply("fuzz");
    fatal_if(opts.timeBudgetSec < 0, "fuzz: --time-budget must be >= 0");

    // SIGINT drains: finish the in-flight scenario, then report what
    // ran instead of losing the campaign.
    installDrainHandlers();

    FuzzCampaign campaign(std::move(opts));
    const FuzzReport rep = campaign.run();
    const std::string text = rep.toText();
    std::fputs(text.c_str(), stdout);
    if (!reportPath.empty()) {
        std::FILE *f = std::fopen(reportPath.c_str(), "wb");
        fatal_if(!f, "fuzz: cannot write '%s'", reportPath.c_str());
        const bool ok = std::fwrite(text.data(), 1, text.size(), f) ==
                        text.size();
        std::fclose(f);
        fatal_if(!ok, "fuzz: short write to '%s'", reportPath.c_str());
    }
    return rep.clean() ? 0 : 1;
}

/** `wastesim fuzzone` — one scenario, checked in this process; the
 *  worker half of `fuzz` (kept as a public subcommand so a reported
 *  scenario line is directly replayable). */
int
cmdFuzzone(Args args)
{
    std::string line, out;
    Tick maxTicks = FuzzOptions{}.maxTicks;
    bool checkReplay = true;
    ObsCli obs;
    while (!args.done()) {
        const std::string a = args.next();
        if (a == "--scenario")
            line = args.value(a);
        else if (a == "--out" || a == "-o")
            out = args.value(a);
        else if (a == "--max-ticks")
            maxTicks = args.uvalue(a);
        else if (a == "--no-replay")
            checkReplay = false;
        else if (obs.tryParse(a, args)) {
        } else
            fatal("fuzzone: unknown option '%s'", a.c_str());
    }
    obs.apply("fuzzone");
    // Workers share the campaign's stderr; keep them quiet unless -v.
    if (obs.verbosity <= 1)
        logVerbosity = 0;
    fatal_if(line.empty(), "fuzzone: --scenario is required");
    fatal_if(out.empty(), "fuzzone: --out is required");
    return fuzzWorkerMain(line, out, maxTicks, checkReplay);
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage(argv[0]);

    const std::string cmd = argv[1];
    logVerbosity = 1;
    Args rest(argv[0], argc - 2, argv + 2);

    if (cmd == "record")
        return cmdRecord(rest);
    if (cmd == "replay")
        return cmdReplay(rest);
    if (cmd == "synth")
        return cmdSynth(rest);
    if (cmd == "sweep")
        return cmdSweep(rest);
    if (cmd == "report")
        return cmdReport(rest);
    if (cmd == "merge")
        return cmdMerge(rest);
    if (cmd == "cell")
        return cmdCell(rest);
    if (cmd == "fuzz")
        return cmdFuzz(rest);
    if (cmd == "fuzzone")
        return cmdFuzzone(rest);
    if (cmd == "info")
        return cmdInfo(rest);
    if (cmd == "help" || cmd == "--help" || cmd == "-h") {
        usage(argv[0], stdout);
        return 0;
    }
    std::fprintf(stderr, "unknown command '%s'\n", cmd.c_str());
    return usage(argv[0]);
}
