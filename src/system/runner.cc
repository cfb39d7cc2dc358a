#include "system/runner.hh"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/log.hh"
#include "metrics/run_result_schema.hh"
#include "system/sweep_engine.hh"

namespace wastesim
{

namespace
{

constexpr const char *cacheMagic = "wastesim-sweep-v3";

} // namespace

std::string
sweepConfigTag(unsigned scale, const SimParams &p)
{
    std::ostringstream os;
    // describe() spells out any non-default MC placement, so the
    // topology token alone fingerprints the full geometry.
    os << "scale=" << scale << ",topo=" << p.topo.describe()
       << ",l1=" << p.l1Sets << "x" << p.l1Ways
       << "@" << p.l1Latency << ",l2=" << p.l2Sets << "x" << p.l2Ways
       << "@" << p.l2Latency << ",link=" << p.linkLatency
       << ",wb=" << p.writeBufferEntries << ",wct=" << p.wcTimeout
       << ",nack=" << p.nackRetryDelay << ",lr=" << p.loadRetryDelay
       << ",bloom=" << p.bloomFilters << ",dram=" << p.dram.numRanks
       << "x" << p.dram.numBanksPerRank << "x" << p.dram.linesPerRow
       << "/" << p.dram.tCas << "-" << p.dram.tRcd << "-"
       << p.dram.tRp << "-" << p.dram.tBurst
       << (p.dram.partialReads ? ",partial" : "");
    return os.str();
}

void
writeRunResult(std::ostream &os, const RunResult &r)
{
    // The cell-block layout is owned by the metric registry: the
    // schema adapter iterates the registered fields in line order, so
    // the on-disk format and the metric schema cannot drift apart.
    writeRunResultBlock(os, r, runResultBlockVersion);
}

bool
readRunResult(std::istream &is, RunResult &r)
{
    return readRunResultBlock(is, r, runResultBlockVersion);
}

RunResult
runOne(ProtocolName protocol, const Workload &wl, SimParams params)
{
    System sys(protocol, wl, params);
    return sys.run();
}

RunResult
runOne(ProtocolName protocol, BenchmarkName bench, unsigned scale,
       SimParams params)
{
    auto wl = makeBenchmark(bench, scale, params.topo);
    return runOne(protocol, *wl, params);
}

namespace
{

/** Programmatic jobs override (0 = none); see setSweepJobs(). */
unsigned sweepJobsOverride = 0;

} // namespace

unsigned
effectiveSweepJobs(std::size_t num_tasks)
{
    unsigned jobs = std::max(1u, std::thread::hardware_concurrency());
    if (const char *env = std::getenv("WASTESIM_JOBS")) {
        char *end = nullptr;
        errno = 0;
        const unsigned long v = std::strtoul(env, &end, 10);
        if (end != env && *end == '\0' && errno != ERANGE && v >= 1 &&
            v <= 1024)
            jobs = static_cast<unsigned>(v);
        else
            warn("ignoring invalid WASTESIM_JOBS='%s'", env);
    }
    if (sweepJobsOverride > 0)
        jobs = sweepJobsOverride;
    return static_cast<unsigned>(
        std::min<std::size_t>(jobs, std::max<std::size_t>(1, num_tasks)));
}

void
setSweepJobs(unsigned jobs)
{
    sweepJobsOverride = jobs;
}

Sweep
runSweep(const std::vector<const Workload *> &workloads,
         const std::vector<ProtocolName> &protocols, SimParams params)
{
    Sweep sweep;
    for (ProtocolName p : protocols)
        sweep.protoNames.emplace_back(protocolName(p));
    for (const Workload *wl : workloads)
        sweep.benchNames.push_back(wl->name());
    sweep.results.assign(workloads.size(),
                         std::vector<RunResult>(protocols.size()));

    // Flatten the grid into (workload, protocol) tasks and let a
    // fixed-slot pool chew through them; each task writes its own
    // results cell, so figure order is deterministic regardless of
    // which thread finishes first.
    const std::size_t num_tasks = workloads.size() * protocols.size();
    if (num_tasks == 0)
        return sweep;

    const unsigned jobs = effectiveSweepJobs(num_tasks);
    std::atomic<std::size_t> next{0};

    auto worker = [&]() {
        for (std::size_t i = next.fetch_add(1); i < num_tasks;
             i = next.fetch_add(1)) {
            const std::size_t b = i / protocols.size();
            const std::size_t p = i % protocols.size();
            inform("running %s on %s", protocolName(protocols[p]),
                   workloads[b]->name().c_str());
            sweep.results[b][p] =
                runOne(protocols[p], *workloads[b], params);
        }
    };

    if (jobs <= 1) {
        worker();
        return sweep;
    }

    std::vector<std::thread> pool;
    pool.reserve(jobs);
    for (unsigned t = 0; t < jobs; ++t)
        pool.emplace_back(worker);
    for (auto &t : pool)
        t.join();
    return sweep;
}

Sweep
runSweep(const std::vector<BenchmarkName> &benches,
         const std::vector<ProtocolName> &protocols, unsigned scale,
         SimParams params)
{
    // Single-job sweeps stream one workload at a time (the old
    // serial behavior) so peak memory stays at one trace; parallel
    // sweeps materialize everything so rows can run concurrently.
    if (effectiveSweepJobs(benches.size() * protocols.size()) <= 1) {
        Sweep sweep;
        for (ProtocolName p : protocols)
            sweep.protoNames.emplace_back(protocolName(p));
        for (BenchmarkName b : benches) {
            auto wl = makeBenchmark(b, scale, params.topo);
            const Sweep row = runSweep({wl.get()}, protocols, params);
            sweep.benchNames.push_back(row.benchNames.at(0));
            sweep.results.push_back(row.results.at(0));
        }
        return sweep;
    }

    std::vector<std::unique_ptr<Workload>> built;
    built.reserve(benches.size());
    for (BenchmarkName b : benches)
        built.push_back(makeBenchmark(b, scale, params.topo));
    std::vector<const Workload *> workloads;
    workloads.reserve(built.size());
    for (const auto &wl : built)
        workloads.push_back(wl.get());
    return runSweep(workloads, protocols, params);
}

Sweep
runFullSweep(unsigned scale, SimParams params)
{
    std::vector<BenchmarkName> benches(allBenchmarks,
                                       allBenchmarks + numBenchmarks);
    std::vector<ProtocolName> protocols(allProtocols,
                                        allProtocols + numProtocols);
    return runSweep(benches, protocols, scale, params);
}

bool
saveSweep(const Sweep &s, const std::string &path)
{
    std::ofstream os(path);
    if (!os)
        return false;
    os << cacheMagic << '\n';
    os << (s.configTag.empty() ? "-" : s.configTag) << '\n';
    os << s.benchNames.size() << ' ' << s.protoNames.size() << '\n';
    os.precision(17);
    for (const auto &b : s.benchNames)
        os << b << '\n';
    for (const auto &p : s.protoNames)
        os << p << '\n';
    for (const auto &row : s.results)
        for (const auto &r : row)
            writeRunResult(os, r);
    return static_cast<bool>(os);
}

bool
loadSweep(Sweep &s, const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        return false;
    std::string magic;
    std::getline(is, magic);
    if (magic != cacheMagic)
        return false;
    std::string tag;
    std::getline(is, tag);
    std::size_t nb = 0, np = 0;
    is >> nb >> np;
    is.ignore();
    // Corrupt counts must fail the load, not drive the allocations
    // below; real grids are at most benchmarks x protocols sized.
    if (!is || nb > 1024 || np > 1024)
        return false;
    s = Sweep{};
    if (tag != "-")
        s.configTag = tag;
    for (std::size_t i = 0; i < nb; ++i) {
        std::string line;
        std::getline(is, line);
        s.benchNames.push_back(line);
    }
    for (std::size_t i = 0; i < np; ++i) {
        std::string line;
        std::getline(is, line);
        s.protoNames.push_back(line);
    }
    s.results.assign(nb, std::vector<RunResult>(np));
    for (std::size_t b = 0; b < nb; ++b)
        for (std::size_t p = 0; p < np; ++p)
            if (!readRunResult(is, s.results[b][p]))
                return false;
    return true;
}

Sweep
cachedFullSweep(unsigned scale, SimParams params,
                std::function<Sweep(unsigned, SimParams)> compute)
{
    std::string path = "wastesim_sweep.cache";
    if (const char *env = std::getenv("WASTESIM_CACHE"))
        path = env;
    const bool no_cache = std::getenv("WASTESIM_NO_CACHE") != nullptr;

    // The cache is per-cell (sweep_engine.hh): each (benchmark,
    // protocol) result is keyed by the full configuration
    // fingerprint, so a `--scale 4` or `--mesh 8x8` sweep misses on
    // its own cells without invalidating anything else in the file.
    const SweepSpec spec = SweepSpec::fullGrid(scale, params);
    CellCache cache;
    if (!no_cache) {
        // Salvage mode: a corrupt cell costs one re-simulation, not
        // the whole cache.
        CacheLoadReport rep;
        cache.load(path, rep, CacheLoadMode::Salvage);
        if (rep.badCells > 0 || rep.truncated)
            warn("sweep cache '%s' was damaged (%s); %zu cell(s) "
                 "dropped and re-simulated",
                 path.c_str(), rep.error.c_str(), rep.badCells);
    }

    if (compute) {
        // Injected whole-sweep producer (tests): cache hits only when
        // every cell of this configuration is present.
        bool all_hit = !no_cache;
        for (std::size_t i = 0; all_hit && i < spec.numCells(); ++i)
            all_hit = cache.has(spec.cellKey(spec.cellAt(i)));
        if (!all_hit) {
            Sweep s = compute(scale, params);
            s.configTag = sweepConfigTag(scale, params);
            if (s.results.size() == spec.benches.size() &&
                !s.results.empty() &&
                s.results[0].size() == spec.protocols.size()) {
                for (std::size_t i = 0; i < spec.numCells(); ++i) {
                    const SweepCell c = spec.cellAt(i);
                    cache.put(spec.cellKey(c),
                              s.results[c.benchIdx][c.protoIdx]);
                }
                if (!no_cache && !cache.save(path))
                    warn("could not write sweep cache to %s",
                         path.c_str());
            } else {
                warn("sweep producer returned a %zux%zu grid; "
                     "expected %zux%zu — not caching it",
                     s.results.size(),
                     s.results.empty() ? 0 : s.results[0].size(),
                     spec.benches.size(), spec.protocols.size());
            }
            return s;
        }
        // Fall through: every cell is cached, assemble from disk.
    }

    SweepEngine engine(spec);
    // Finished cells hit the disk as they complete (atomic rename),
    // so an interrupted sweep resumes from its completed cells; the
    // last cell's autosave doubles as the final cache write.
    if (!no_cache)
        engine.setAutosave(path);
    return std::move(engine.run(cache).at(0));
}

} // namespace wastesim
