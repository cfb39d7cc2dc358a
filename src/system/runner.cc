#include "system/runner.hh"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <sstream>
#include <thread>

#include "common/log.hh"
#include "metrics/run_result_schema.hh"

namespace wastesim
{

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
    // A Workload is a description; each run generates its own ops.
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

} // namespace wastesim
