#include "system/sweep_engine.hh"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>

#include "common/crc32.hh"
#include "common/log.hh"
#include "obs/debug.hh"
#include "obs/timeline.hh"
#include "system/worker_pool.hh"

namespace wastesim
{

namespace
{

constexpr const char *cellCacheMagicV2 = "wastesim-cells-v2";

/** Canonical text form of one cell result (cache value). */
std::string
serializeResult(const RunResult &r)
{
    std::ostringstream os;
    os.precision(17);
    writeRunResult(os, r);
    return os.str();
}

/** This process's resident set in MB, from /proc/self/statm (0 when
 *  it cannot be read). */
double
residentMb()
{
    std::ifstream statm("/proc/self/statm");
    std::size_t pages = 0, resident = 0;
    if (!(statm >> pages >> resident))
        return 0;
    return resident * static_cast<double>(sysconf(_SC_PAGESIZE)) / 1e6;
}

/** A cell running past this many times the median finished cell is
 *  stalled: a thread slot warns, a process slot is killed. */
constexpr double stallFactor = 4.0;

/** The adaptive deadline never kills a worker sooner than this. */
constexpr double minAdaptiveDeadlineMs = 30000;

/** How long the sweep loop waits for a completion before it polls
 *  the stop check, the heartbeat and the worker processes again. */
constexpr std::chrono::milliseconds loopTick{15};

/** One-line form of a quarantine reason (the record is line-framed). */
std::string
sanitizeReason(std::string reason)
{
    for (char &c : reason)
        if (c == '\n' || c == '\r')
            c = ' ';
    return reason;
}

} // namespace

// --- SweepSpec --------------------------------------------------------------

SweepSpec
SweepSpec::fullGrid(unsigned scale, SimParams params)
{
    SweepSpec spec;
    spec.topologies = {params.topo};
    spec.benches.assign(allBenchmarks, allBenchmarks + numBenchmarks);
    spec.protocols.assign(allProtocols, allProtocols + numProtocols);
    spec.scale = scale;
    spec.params = std::move(params);
    return spec;
}

SweepCell
SweepSpec::cellAt(std::size_t flat) const
{
    SweepCell c;
    c.protoIdx = static_cast<unsigned>(flat % protocols.size());
    flat /= protocols.size();
    c.benchIdx = static_cast<unsigned>(flat % benches.size());
    c.topoIdx = static_cast<unsigned>(flat / benches.size());
    return c;
}

SimParams
SweepSpec::paramsFor(unsigned topo_idx) const
{
    SimParams p = params;
    p.topo = topologies.at(topo_idx);
    return p;
}

std::string
SweepSpec::cellKey(const SweepCell &c) const
{
    return sweepConfigTag(scale, paramsFor(c.topoIdx)) + ",bench=" +
           benchmarkName(benches.at(c.benchIdx)) + ",proto=" +
           protocolName(protocols.at(c.protoIdx));
}

// --- CellCache --------------------------------------------------------------

bool
CellCache::load(const std::string &path)
{
    CacheLoadReport rep;
    return load(path, rep, CacheLoadMode::Strict);
}

bool
CellCache::load(const std::string &path, CacheLoadReport &rep,
                CacheLoadMode mode)
{
    cells_.clear();
    quarantine_.clear();
    rep = CacheLoadReport{};
    std::ifstream is(path, std::ios::binary);
    if (!is)
        return false;
    rep.found = true;
    std::string magic;
    std::getline(is, magic);
    if (magic != cellCacheMagicV2) {
        rep.error = "unrecognized cache magic";
        return false;
    }
    rep.formatOk = true;
    const bool intact = loadV2(is, rep, mode);
    if (mode == CacheLoadMode::Strict &&
        (!intact || rep.badCells > 0)) {
        cells_.clear();
        quarantine_.clear();
        return false;
    }
    // Salvage: whatever survived the scan is served; dropped cells
    // are simply recomputed by the next sweep.
    return true;
}

bool
CellCache::loadV2(std::istream &is, CacheLoadReport &rep,
                  CacheLoadMode mode)
{
    std::size_t n = 0, nq = 0;
    is >> n >> nq;
    is.ignore();
    if (!is || n > (1u << 20) || nq > (1u << 20)) {
        rep.truncated = true;
        rep.error = "cache header: unreadable cell counts";
        return false;
    }
    for (std::size_t i = 0; i < n; ++i) {
        const long long off = static_cast<long long>(is.tellg());
        std::string key;
        std::getline(is, key);
        if (!is || key.empty()) {
            rep.truncated = true;
            rep.error = "cell " + std::to_string(i) +
                        ": missing key at byte offset " +
                        std::to_string(off);
            return false;
        }
        auto cell_err = [&](const std::string &why) {
            return "cell " + std::to_string(i) + " ('" + key +
                   "') at byte offset " + std::to_string(off) + ": " +
                   why;
        };
        std::string meta;
        std::getline(is, meta);
        std::size_t nbytes = 0;
        std::uint32_t want_crc = 0;
        {
            std::istringstream ms(meta);
            char eq = 0;
            ms >> eq >> nbytes >> std::hex >> want_crc;
            if (!is || !ms || eq != '=' || nbytes == 0 ||
                nbytes > (1u << 22)) {
                rep.truncated = true;
                rep.error = cell_err("malformed block header '" +
                                     meta + "'");
                return false;
            }
        }
        std::string block(nbytes, '\0');
        is.read(block.data(), static_cast<std::streamsize>(nbytes));
        if (static_cast<std::size_t>(is.gcount()) != nbytes) {
            rep.truncated = true;
            ++rep.badCells;
            rep.badKeys.push_back(key);
            rep.error = cell_err(
                "truncated block (" + std::to_string(is.gcount()) +
                " of " + std::to_string(nbytes) + " bytes)");
            return false;
        }
        // Per-cell integrity: the declared length was sound, so a bad
        // block is skippable damage — salvage resyncs at the next key.
        std::string why;
        const std::uint32_t got_crc = crc32(block);
        RunResult r;
        if (got_crc != want_crc) {
            char buf[64];
            std::snprintf(buf, sizeof(buf),
                          "checksum mismatch (stored %08x, computed "
                          "%08x)",
                          want_crc, got_crc);
            why = buf;
        } else {
            std::istringstream bs(block);
            if (!readRunResult(bs, r))
                why = "unparseable result block";
        }
        if (!why.empty()) {
            ++rep.badCells;
            rep.badKeys.push_back(key);
            if (rep.error.empty())
                rep.error = cell_err(why);
            if (mode == CacheLoadMode::Strict)
                return false;
            continue;
        }
        cells_[key] = serializeResult(r);
        ++rep.cells;
    }
    for (std::size_t i = 0; i < nq; ++i) {
        const long long off = static_cast<long long>(is.tellg());
        std::string key, meta;
        std::getline(is, key);
        std::getline(is, meta);
        unsigned attempts = 0;
        std::string reason;
        std::istringstream ms(meta);
        char bang = 0;
        ms >> bang >> attempts;
        std::getline(ms, reason);
        if (!is || !ms || key.empty() || bang != '!') {
            rep.truncated = true;
            rep.error = "quarantine record " + std::to_string(i) +
                        " at byte offset " + std::to_string(off) +
                        ": malformed";
            return false;
        }
        if (!reason.empty() && reason.front() == ' ')
            reason.erase(0, 1);
        quarantine_[key] = CellFailure{attempts, reason};
        ++rep.quarantined;
    }
    return true;
}

std::string
CellCache::serialized() const
{
    std::ostringstream os;
    os << cellCacheMagicV2 << '\n' << cells_.size() << ' '
       << quarantine_.size() << '\n';
    // std::map iterates in key order: the file is canonical, so any
    // two caches holding the same cells are byte-identical.
    for (const auto &[key, block] : cells_) {
        char meta[32];
        std::snprintf(meta, sizeof(meta), "= %zu %08x", block.size(),
                      crc32(block));
        os << key << '\n' << meta << '\n' << block;
    }
    for (const auto &[key, cf] : quarantine_)
        os << key << '\n'
           << "! " << cf.attempts << ' ' << cf.reason << '\n';
    return os.str();
}

bool
CellCache::save(const std::string &path) const
{
    std::ofstream os(path, std::ios::binary);
    if (!os)
        return false;
    os << serialized();
    return static_cast<bool>(os);
}

bool
CellCache::saveAtomic(const std::string &path) const
{
    // A per-process staging file: concurrent writers to one path
    // never interleave in one temp file, and every rename installs a
    // complete cache.
    const std::string tmp = path + ".tmp." + std::to_string(::getpid());
    if (!save(tmp)) {
        std::remove(tmp.c_str());
        return false;
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

bool
CellCache::has(const std::string &key) const
{
    return cells_.count(key) != 0;
}

bool
CellCache::get(const std::string &key, RunResult &out) const
{
    auto it = cells_.find(key);
    if (it == cells_.end())
        return false;
    std::istringstream is(it->second);
    return readRunResult(is, out);
}

void
CellCache::put(const std::string &key, const RunResult &r)
{
    cells_[key] = serializeResult(r);
    quarantine_.erase(key);
}

void
CellCache::quarantine(const std::string &key, unsigned attempts,
                      const std::string &reason)
{
    if (cells_.count(key))
        return;
    quarantine_[key] = CellFailure{attempts, sanitizeReason(reason)};
}

bool
CellCache::isQuarantined(const std::string &key, CellFailure *out) const
{
    auto it = quarantine_.find(key);
    if (it == quarantine_.end())
        return false;
    if (out)
        *out = it->second;
    return true;
}

void
CellCache::clearQuarantine(const std::string &key)
{
    quarantine_.erase(key);
}

bool
CellCache::merge(const CellCache &other, std::string *err)
{
    for (const auto &[key, block] : other.cells_) {
        auto it = cells_.find(key);
        if (it != cells_.end() && it->second != block) {
            if (err)
                *err = "conflicting results for cell '" + key + "'";
            return false;
        }
    }
    cells_.insert(other.cells_.begin(), other.cells_.end());
    for (const auto &[key, cf] : other.quarantine_) {
        if (cells_.count(key))
            continue;
        auto it = quarantine_.find(key);
        if (it == quarantine_.end())
            quarantine_[key] = cf;
        else if (cf.attempts > it->second.attempts ||
                 (cf.attempts == it->second.attempts &&
                  cf.reason < it->second.reason))
            it->second = cf;
    }
    // A result on either side lifts the quarantine: some shard got
    // the cell to complete.
    for (auto it = quarantine_.begin(); it != quarantine_.end();) {
        if (cells_.count(it->first))
            it = quarantine_.erase(it);
        else
            ++it;
    }
    return true;
}

// --- SweepEngine ------------------------------------------------------------

SweepEngine::SweepEngine(SweepSpec spec) : spec_(std::move(spec))
{
    fatal_if(spec_.topologies.empty(),
             "sweep engine: at least one topology is required");
    fatal_if(spec_.benches.empty() || spec_.protocols.empty(),
             "sweep engine: empty benchmark or protocol list");
}

void
SweepEngine::setShard(unsigned shard, unsigned num_shards)
{
    fatal_if(num_shards == 0 || shard >= num_shards,
             "sweep engine: shard %u/%u is not a valid slice", shard,
             num_shards);
    shard_ = shard;
    numShards_ = num_shards;
}

std::vector<std::size_t>
SweepEngine::shardCellIndices() const
{
    std::vector<std::size_t> idx;
    const std::size_t n = spec_.numCells();
    idx.reserve(n / numShards_ + 1);
    // Stride the flat (figure-order) index space so every shard gets
    // an even mix of topologies and protocols: slicing contiguous
    // ranges would hand one shard all the 16x16 cells.
    for (std::size_t i = shard_; i < n; i += numShards_)
        idx.push_back(i);
    return idx;
}

SweepPlan
planSweep(const SweepSpec &spec, const CellCache &cache,
          const std::vector<std::size_t> &owned, bool retry_quarantined,
          const std::function<void(const SweepCell &, bool)> &on_served)
{
    const std::size_t num_benches = spec.benches.size();
    const std::size_t num_protos = spec.protocols.size();

    SweepPlan plan;
    plan.sweeps.resize(spec.topologies.size());
    for (Sweep &s : plan.sweeps) {
        for (BenchmarkName b : spec.benches)
            s.benchNames.emplace_back(benchmarkName(b));
        for (ProtocolName p : spec.protocols)
            s.protoNames.emplace_back(protocolName(p));
        s.results.assign(num_benches,
                         std::vector<RunResult>(num_protos));
        s.holes.assign(num_benches,
                       std::vector<std::string>(num_protos));
    }

    for (std::size_t flat : owned) {
        const SweepCell c = spec.cellAt(flat);
        const std::string key = spec.cellKey(c);
        Sweep &s = plan.sweeps[c.topoIdx];
        CellFailure cf;
        if (cache.get(key, s.results[c.benchIdx][c.protoIdx])) {
            ++plan.hits;
            on_served(c, true);
        } else if (!retry_quarantined && cache.isQuarantined(key, &cf)) {
            // A poisoned cell stays a hole: re-running a known-bad
            // simulation on every report would wedge the pipeline.
            ++plan.quarantined;
            s.holes[c.benchIdx][c.protoIdx] = cf.reason;
            warn("cell '%s' is quarantined (%u attempts; %s); "
                 "rendering it as a hole — retry-quarantined "
                 "recomputes it",
                 key.c_str(), cf.attempts, cf.reason.c_str());
            on_served(c, false);
        } else {
            plan.pending.push_back(flat);
        }
    }

    // Biggest meshes first: a 16x16 cell can cost orders of magnitude
    // more than a 2x2 one, so it must not start last.  Stable order
    // (tile count, then flat index) keeps the queue deterministic.
    auto tiles = [&](std::size_t flat) {
        return spec.topologies[spec.cellAt(flat).topoIdx].numTiles();
    };
    std::stable_sort(plan.pending.begin(), plan.pending.end(),
                     [&](std::size_t a, std::size_t b) {
                         return tiles(a) > tiles(b);
                     });
    return plan;
}

std::vector<Sweep>
SweepEngine::run(CellCache &cache)
{
    using Clock = std::chrono::steady_clock;
    const std::size_t num_benches = spec_.benches.size();

    // Wall-clock observation: the lifecycle timeline and heartbeat.
    const bool want_timeline = !timelinePath_.empty();
    Timeline timeline;
    const auto t0 = Clock::now();
    auto now_us = [&t0] {
        return std::chrono::duration<double, std::micro>(Clock::now() -
                                                         t0)
            .count();
    };
    auto label = [&](const SweepCell &c) {
        return std::string(protocolName(spec_.protocols[c.protoIdx])) +
               "/" + benchmarkName(spec_.benches[c.benchIdx]) + "@" +
               spec_.topologies[c.topoIdx].describe();
    };
    auto mark = [&](const std::string &what, unsigned lane) {
        if (want_timeline)
            timeline.instant("sweep", what, now_us(), 1, lane);
    };
    auto save_timeline = [&] {
        if (want_timeline && !timeline.save(timelinePath_))
            warn("cannot write sweep timeline '%s'",
                 timelinePath_.c_str());
    };
    if (want_timeline)
        timeline.threadName(1, 999, "cache");

    // Serve hits, skip quarantined cells, queue the rest.
    const std::vector<std::size_t> owned = shardCellIndices();
    SweepPlan plan = planSweep(
        spec_, cache, owned, retryQuarantined_,
        [&](const SweepCell &c, bool hit) {
            mark((hit ? "hit " : "quarantined ") + label(c), 999);
        });
    std::vector<Sweep> sweeps = std::move(plan.sweeps);
    statTotal_ = owned.size();
    statHit_ = plan.hits;
    statQuarantined_ = plan.quarantined;
    statComputed_ = statRetries_ = statKills_ = 0;
    interrupted_ = false;
    const bool procs = sup_.workers > 0;
    const unsigned num_slots =
        procs ? sup_.workers : effectiveSweepJobs(plan.pending.size());
    DPRINTF_NT(Sweep,
               "shard %u/%u: %zu cells, %zu cached, %zu quarantined, "
               "%zu to run on %u %s slots",
               shard_, numShards_, statTotal_, statHit_,
               statQuarantined_, plan.pending.size(), num_slots,
               procs ? "process" : "thread");
    if (plan.pending.empty()) {
        save_timeline();
        return sweeps;
    }

    // A cell attempt, and the slot computing one.
    struct Task
    {
        std::size_t flat = 0;
        unsigned attempt = 0; //!< 0-based; only process slots retry
    };
    struct Slot
    {
        Task task;
        double startUs = 0;
        bool busy = false;
        bool warned = false; //!< its stall warning was printed
        std::thread thread;  //!< a thread slot's computation
    };
    std::deque<Task> ready;
    for (std::size_t flat : plan.pending)
        ready.push_back(Task{flat, 0});
    std::deque<std::pair<Clock::time_point, Task>> delayed;
    std::vector<Slot> slots(num_slots);
    std::optional<WorkerPool> pool;
    if (procs)
        pool.emplace(num_slots, sup_.program, cellOutputMagic);
    if (want_timeline)
        for (unsigned i = 0; i < num_slots; ++i)
            timeline.threadName(1, i, "worker " + std::to_string(i));

    // Thread slots post their results here; the loop waits on it.
    std::mutex postMutex;
    std::condition_variable postCv;
    std::vector<std::pair<unsigned, RunResult>> posted;
    // Workloads are built once per (topology, benchmark) and shared
    // by that pair's cells; each run streams its own ops, so a
    // Workload holds no trace.
    std::vector<std::unique_ptr<Workload>> workloads(
        spec_.topologies.size() * num_benches);

    const std::size_t to_run = ready.size();
    std::size_t remaining = to_run;
    std::vector<double> durationsUs;
    std::uint64_t events = 0;
    long workerPeakKb = 0;
    bool autosaveWarned = false;

    // Incremental resume: every finished cell lands on disk at once,
    // so killing this process loses at most the in-flight cells.  The
    // full-file rewrite is deliberate: a cell is at least tens of
    // milliseconds of simulation while serializing a realistic cache
    // (<1 MB) is ~1 ms, and rewriting whole files is what keeps every
    // on-disk state a complete, loadable cache.
    auto autosave = [&] {
        if (!autosave_.empty() && !cache.saveAtomic(autosave_) &&
            !autosaveWarned) {
            autosaveWarned = true;
            warn("could not autosave sweep cache to %s",
                 autosave_.c_str());
        }
    };

    // The stall rule's yardstick: the median finished cell, once
    // three have finished.
    auto median_us = [&] {
        if (durationsUs.size() < 3)
            return std::numeric_limits<double>::infinity();
        std::vector<double> d = durationsUs;
        const std::size_t mid = d.size() / 2;
        std::nth_element(d.begin(), d.begin() + mid, d.end());
        return d[mid];
    };
    // A process slot's hard deadline: the explicit one, else the
    // stall rule promoted to a kill.
    auto deadline_ms = [&]() -> double {
        if (sup_.deadlineMs > 0)
            return sup_.deadlineMs;
        return std::max(stallFactor * median_us() / 1e3,
                        minAdaptiveDeadlineMs);
    };

    auto worker_args = [&](const SweepCell &c, unsigned attempt,
                           const std::string &out) {
        const Topology &topo = spec_.topologies[c.topoIdx];
        std::string tiles;
        for (NodeId n : topo.memCtrlTiles()) {
            if (!tiles.empty())
                tiles += ",";
            tiles += std::to_string(n);
        }
        std::vector<std::string> args{
            "cell",
            "--mesh",
            std::to_string(topo.meshX()) + "x" +
                std::to_string(topo.meshY()),
            "--mc-tiles",
            tiles,
            "--bench",
            benchmarkName(spec_.benches[c.benchIdx]),
            "--protocol",
            protocolName(spec_.protocols[c.protoIdx]),
            "--out",
            out,
        };
        args.insert(args.end(), sup_.workerArgs.begin(),
                    sup_.workerArgs.end());
        if (sup_.faults.any()) {
            args.push_back("--fault-inject");
            args.push_back(sup_.faults.describe());
            args.push_back("--fault-seed");
            args.push_back(std::to_string(sup_.faultSeed));
            args.push_back("--fault-attempt");
            args.push_back(std::to_string(attempt));
        }
        return args;
    };

    auto start = [&](unsigned i, const Task &t) {
        Slot &s = slots[i];
        const SweepCell c = spec_.cellAt(t.flat);
        s.task = t;
        s.startUs = now_us();
        s.busy = true;
        s.warned = false;
        if (pool) {
            const pid_t pid =
                pool->spawn(i, worker_args(c, t.attempt, pool->outPath(i)));
            inform("worker %u: running %s (attempt %u, pid %d)", i,
                   label(c).c_str(), t.attempt + 1,
                   static_cast<int>(pid));
            DPRINTF_NT(Supervisor, "spawn pid %d slot %u attempt %u: %s",
                       static_cast<int>(pid), i, t.attempt + 1,
                       label(c).c_str());
            return;
        }
        inform("running %s on %s (%s)",
               protocolName(spec_.protocols[c.protoIdx]),
               benchmarkName(spec_.benches[c.benchIdx]),
               spec_.topologies[c.topoIdx].describe().c_str());
        const Workload *wl = nullptr;
        if (!compute_) {
            auto &w = workloads[c.topoIdx * num_benches + c.benchIdx];
            if (!w)
                w = makeBenchmark(spec_.benches[c.benchIdx], spec_.scale,
                                  spec_.topologies[c.topoIdx]);
            wl = w.get();
        }
        s.thread = std::thread([&, i, c, wl] {
            RunResult r =
                wl ? runOne(spec_.protocols[c.protoIdx], *wl,
                            spec_.paramsFor(c.topoIdx))
                   : compute_(spec_, c);
            std::lock_guard<std::mutex> lk(postMutex);
            posted.emplace_back(i, std::move(r));
            postCv.notify_one();
        });
    };

    auto finish = [&](unsigned i, const RunResult &r) {
        Slot &s = slots[i];
        s.busy = false;
        const SweepCell c = spec_.cellAt(s.task.flat);
        sweeps[c.topoIdx].results[c.benchIdx][c.protoIdx] = r;
        sweeps[c.topoIdx].holes[c.benchIdx][c.protoIdx].clear();
        cache.put(spec_.cellKey(c), r);
        ++statComputed_;
        --remaining;
        events += r.eventsExecuted;
        const double end_us = now_us();
        durationsUs.push_back(end_us - s.startUs);
        if (want_timeline)
            timeline.complete("sweep", label(c), s.startUs,
                              end_us - s.startUs, 1, i);
        DPRINTF_NT(Sweep, "slot %u finished %s in %.1f ms", i,
                   label(c).c_str(), (end_us - s.startUs) / 1e3);
        autosave();
    };

    // A process slot's failed attempt: retry it after a backoff, or
    // quarantine the cell once its retries are spent.
    auto fail = [&](unsigned i, const std::string &reason) {
        Slot &s = slots[i];
        s.busy = false;
        const Task t = s.task;
        const SweepCell c = spec_.cellAt(t.flat);
        const std::string key = spec_.cellKey(c);
        if (t.attempt < sup_.maxRetries) {
            ++statRetries_;
            const std::uint64_t delay =
                retryBackoffMs(sup_, key, t.attempt);
            warn("cell '%s' attempt %u/%u failed (%s); retrying in "
                 "%llu ms",
                 key.c_str(), t.attempt + 1, sup_.maxRetries + 1,
                 reason.c_str(), static_cast<unsigned long long>(delay));
            delayed.emplace_back(
                Clock::now() + std::chrono::milliseconds(delay),
                Task{t.flat, t.attempt + 1});
            mark("retry " + label(c) + " (" + reason + ")", i);
            return;
        }
        cache.quarantine(key, t.attempt + 1, reason);
        sweeps[c.topoIdx].holes[c.benchIdx][c.protoIdx] = reason;
        ++statQuarantined_;
        --remaining;
        warn("cell '%s' QUARANTINED after %u attempts (last failure: "
             "%s); reports will render it as a hole",
             key.c_str(), t.attempt + 1, reason.c_str());
        mark("quarantine " + label(c) + " (" + reason + ")", i);
        autosave();
    };

    auto lastBeat = Clock::now();
    auto heartbeat = [&] {
        if (progressMs_ == 0 ||
            Clock::now() - lastBeat < std::chrono::milliseconds(progressMs_))
            return;
        lastBeat = Clock::now();
        const double elapsed_s = now_us() / 1e6;
        const std::size_t finished = to_run - remaining;
        std::string eta = "n/a";
        if (finished > 0) {
            // Finished cells per wall second already fold in the
            // slot parallelism.
            char buf[32];
            std::snprintf(buf, sizeof(buf), "%.0fs",
                          remaining * elapsed_s / finished);
            eta = buf;
        }
        char procs_info[96] = "";
        if (pool)
            std::snprintf(procs_info, sizeof(procs_info),
                          ", %zu retries, %zu deadline kills, worker "
                          "peak rss %ld MB",
                          statRetries_, statKills_, workerPeakKb / 1024);
        std::fprintf(stderr,
                     "sweep: %zu/%zu cells done, %.3g events/sec, rss "
                     "%.0f MB, eta %s%s\n",
                     statTotal_ - remaining, statTotal_,
                     elapsed_s > 0 ? events / elapsed_s : 0.0,
                     residentMb(), eta.c_str(), procs_info);
        if (pool)
            return; // a stalled worker meets its deadline instead
        const double median = median_us();
        for (Slot &s : slots) {
            const double run_us = now_us() - s.startUs;
            if (s.busy && !s.warned && run_us > stallFactor * median) {
                s.warned = true;
                warn("sweep cell '%s' running %.1fs (median cell "
                     "%.1fs): possible stall",
                     spec_.cellKey(spec_.cellAt(s.task.flat)).c_str(),
                     run_us / 1e6, median / 1e6);
            }
        }
    };

    while (remaining > 0) {
        const int stop = stopCheck_ ? stopCheck_() : 0;
        if (stop >= 2) {
            const bool computing =
                std::any_of(slots.begin(), slots.end(),
                            [](const Slot &s) { return s.busy; });
            if (!pool && computing) {
                // A thread cannot be cancelled, and every finished
                // cell is on disk already.
                save_timeline();
                std::fprintf(stderr, "sweep: stopped with cells still "
                                     "computing; completed cells are "
                                     "saved\n");
                std::fflush(nullptr);
                std::_Exit(130);
            }
            pool.reset(); // kills and reaps every worker
            interrupted_ = true;
            break;
        }

        const auto now = Clock::now();
        while (!delayed.empty() && delayed.front().first <= now) {
            ready.push_back(delayed.front().second);
            delayed.pop_front();
        }
        bool computing = false;
        for (unsigned i = 0; i < num_slots; ++i) {
            if (!slots[i].busy && stop == 0 && !ready.empty()) {
                start(i, ready.front());
                ready.pop_front();
            }
            computing |= slots[i].busy;
        }
        if (!computing && stop > 0) {
            // Drained: nothing in flight, nothing may start.
            interrupted_ = true;
            break;
        }

        if (pool) {
            const std::vector<WorkerExit> exits =
                pool->poll(deadline_ms());
            for (const WorkerExit &e : exits) {
                workerPeakKb = std::max(workerPeakKb, e.maxRssKb);
                const std::string key =
                    spec_.cellKey(spec_.cellAt(slots[e.slot].task.flat));
                if (e.deadlineKilled) {
                    ++statKills_;
                    warn("cell '%s' %s: killed its worker", key.c_str(),
                         e.reason.c_str());
                }
                RunResult r;
                std::string err;
                if (!e.exitedWith(0))
                    fail(e.slot, e.reason);
                else if (!e.outputOk)
                    fail(e.slot, "corrupt output: " + e.outputError);
                else if (!parseWorkerOutput(e.payload, key, r, &err))
                    fail(e.slot, "corrupt output: " + err);
                else
                    finish(e.slot, r);
            }
            if (exits.empty())
                std::this_thread::sleep_for(loopTick);
        } else {
            std::vector<std::pair<unsigned, RunResult>> got;
            {
                std::unique_lock<std::mutex> lk(postMutex);
                postCv.wait_for(lk, loopTick,
                                [&] { return !posted.empty(); });
                got.swap(posted);
            }
            for (auto &[i, r] : got) {
                slots[i].thread.join();
                finish(i, r);
            }
        }
        heartbeat();
    }

    save_timeline();
    return sweeps;
}

} // namespace wastesim
