#include "system/sweep_engine.hh"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include "common/crc32.hh"
#include "common/log.hh"
#include "obs/debug.hh"
#include "obs/timeline.hh"

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

/** One-line form of a quarantine reason (the record is line-framed). */
std::string
sanitizeReason(std::string reason)
{
    for (char &c : reason)
        if (c == '\n' || c == '\r')
            c = ' ';
    return reason;
}

/**
 * Write @p bytes to @p path through a per-process staging file
 * renamed over the target: readers (and crashes) only ever observe a
 * complete file.  Concurrent writers to one path must not interleave
 * in one temp file — last rename wins, but every rename installs a
 * self-consistent cache.
 */
bool
writeFileAtomic(const std::string &path, const std::string &bytes)
{
    const std::string tmp =
        path + ".tmp." + std::to_string(::getpid());
    {
        std::ofstream os(tmp, std::ios::binary);
        if (!os)
            return false;
        os << bytes;
        if (!os) {
            os.close();
            std::remove(tmp.c_str());
            return false;
        }
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return false;
    }
    return true;
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
    return writeFileAtomic(path, serialized());
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
    const std::size_t num_topos = spec_.topologies.size();
    const std::size_t num_benches = spec_.benches.size();

    // Wall-clock observation (lifecycle timeline + progress monitor).
    const bool want_timeline = !timelinePath_.empty();
    Timeline timeline;
    const auto sweep_t0 = std::chrono::steady_clock::now();
    auto now_us = [&sweep_t0] {
        return std::chrono::duration<double, std::micro>(
                   std::chrono::steady_clock::now() - sweep_t0)
            .count();
    };
    auto cell_label = [&](const SweepCell &c) {
        return std::string(protocolName(spec_.protocols[c.protoIdx])) +
               "/" + benchmarkName(spec_.benches[c.benchIdx]) + "@" +
               spec_.topologies[c.topoIdx].describe();
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
            if (want_timeline)
                timeline.instant("sweep",
                                 (hit ? "hit " : "quarantined ") +
                                     cell_label(c),
                                 now_us(), 1, 999);
        });
    std::vector<Sweep> sweeps = std::move(plan.sweeps);
    const std::vector<std::size_t> pending = std::move(plan.pending);
    statTotal_ = owned.size();
    statHit_ = plan.hits;
    statQuarantined_ = plan.quarantined;
    statComputed_ = 0;
    interrupted_ = false;
    DPRINTF_NT(Sweep,
               "shard %u/%u: %zu cells, %zu cached, %zu quarantined, "
               "%zu to run",
               shard_, numShards_, statTotal_, statHit_,
               statQuarantined_, pending.size());
    if (pending.empty()) {
        save_timeline();
        return sweeps;
    }

    // Workloads are built once per (topology, benchmark) and shared
    // by that slot's cells; each run streams its own ops, so a
    // Workload holds no trace.
    const std::size_t num_slots = num_topos * num_benches;
    std::vector<std::unique_ptr<Workload>> workloads(num_slots);
    std::vector<std::unique_ptr<std::once_flag>> built(num_slots);
    for (auto &f : built)
        f = std::make_unique<std::once_flag>();

    const unsigned jobs = effectiveSweepJobs(pending.size());

    // Progress/stall state, shared with the monitor thread.  A cell's
    // lifetime is tracked on its worker's slot; completed durations
    // feed the median the stall detector compares against.
    struct InFlight
    {
        std::size_t flat = 0;
        double startUs = 0;
        bool active = false;
        bool warned = false;
    };
    std::mutex progressMutex;
    std::condition_variable progressCv;
    std::vector<InFlight> inFlight(std::max(1u, jobs));
    std::vector<double> cellDurationsUs;
    std::size_t completedCells = 0;
    std::uint64_t eventsDone = 0;
    bool sweepDone = false;
    const bool track_cells = progressMs_ != 0 || want_timeline;

    if (want_timeline) {
        for (unsigned w = 0; w < std::max(1u, jobs); ++w)
            timeline.threadName(1, w, "worker " + std::to_string(w));
    }

    std::thread monitor;
    if (progressMs_ != 0) {
        monitor = std::thread([&] {
            std::unique_lock<std::mutex> lk(progressMutex);
            while (!sweepDone) {
                progressCv.wait_for(
                    lk, std::chrono::milliseconds(progressMs_));
                if (sweepDone)
                    break;
                const double elapsed_us = now_us();
                const double elapsed_s = elapsed_us / 1e6;
                const double eps =
                    elapsed_s > 0 ? eventsDone / elapsed_s : 0;
                std::string eta = "n/a";
                if (completedCells > 0) {
                    // Completed cells per wall second already folds in
                    // the worker parallelism.
                    const double rate = completedCells / elapsed_s;
                    const double eta_s =
                        (pending.size() - completedCells) / rate;
                    char buf[32];
                    std::snprintf(buf, sizeof(buf), "%.0fs", eta_s);
                    eta = buf;
                }
                std::fprintf(stderr,
                             "sweep: %zu/%zu cells done, %.3g "
                             "events/sec, rss %.0f MB, eta %s\n",
                             statHit_ + completedCells, statTotal_,
                             eps, residentMb(), eta.c_str());

                if (cellDurationsUs.size() >= 3) {
                    std::vector<double> d = cellDurationsUs;
                    const std::size_t mid = d.size() / 2;
                    std::nth_element(d.begin(), d.begin() + mid,
                                     d.end());
                    const double median_us = d[mid];
                    for (InFlight &f : inFlight) {
                        if (!f.active || f.warned)
                            continue;
                        const double run_us = elapsed_us - f.startUs;
                        if (run_us > 4 * median_us) {
                            f.warned = true;
                            warn("sweep cell '%s' running %.1fs "
                                 "(median cell %.1fs): possible stall",
                                 spec_.cellKey(spec_.cellAt(f.flat))
                                     .c_str(),
                                 run_us / 1e6, median_us / 1e6);
                        }
                    }
                }
            }
        });
    }

    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> computedCount{0};
    std::atomic<bool> stopped{false};
    std::mutex cacheMutex;

    // Autosave plumbing: the cache is snapshotted to a string under
    // cacheMutex (memory-only, fast) but written to disk outside it,
    // so workers never queue behind each other's file I/O.  The
    // sequence number keeps a late writer from regressing the file to
    // an older snapshot; failures warn once, not once per cell.
    std::mutex autosaveMutex;
    std::uint64_t autosaveSeq = 0;     // guarded by cacheMutex
    std::uint64_t autosaveWritten = 0; // guarded by autosaveMutex
    std::atomic<bool> autosaveWarned{false};

    auto run_cell = [&](std::size_t flat, unsigned wid) {
        const SweepCell c = spec_.cellAt(flat);
        inform("running %s on %s (%s)",
               protocolName(spec_.protocols[c.protoIdx]),
               benchmarkName(spec_.benches[c.benchIdx]),
               spec_.topologies[c.topoIdx].describe().c_str());

        const double cell_start = now_us();
        if (track_cells) {
            std::lock_guard<std::mutex> lk(progressMutex);
            inFlight[wid] = InFlight{flat, cell_start, true, false};
        }

        RunResult r;
        if (compute_) {
            r = compute_(spec_, c);
        } else {
            const std::size_t slot =
                c.topoIdx * num_benches + c.benchIdx;
            std::call_once(*built[slot], [&] {
                workloads[slot] = makeBenchmark(
                    spec_.benches[c.benchIdx], spec_.scale,
                    spec_.topologies[c.topoIdx]);
            });
            r = runOne(spec_.protocols[c.protoIdx], *workloads[slot],
                       spec_.paramsFor(c.topoIdx));
        }

        sweeps[c.topoIdx].results[c.benchIdx][c.protoIdx] = r;
        ++computedCount;

        const double cell_end = now_us();
        DPRINTF_NT(Sweep, "worker %u finished %s in %.1f ms", wid,
                   cell_label(c).c_str(),
                   (cell_end - cell_start) / 1e3);
        if (want_timeline) {
            timeline.complete("sweep", cell_label(c), cell_start,
                              cell_end - cell_start, 1, wid);
        }
        if (track_cells) {
            std::lock_guard<std::mutex> lk(progressMutex);
            inFlight[wid].active = false;
            cellDurationsUs.push_back(cell_end - cell_start);
            ++completedCells;
            eventsDone += r.eventsExecuted;
        }

        // Incremental resume: every finished cell lands on disk
        // immediately, so killing this process loses at most the
        // in-flight simulations.  The full-file rewrite per cell is
        // deliberate: a cell is at least tens of milliseconds of
        // simulation while serializing a realistic cache (<1 MB) is
        // ~1 ms, and rewriting whole files is what keeps every
        // on-disk state a complete, loadable cache.
        std::string snapshot;
        std::uint64_t seq = 0;
        {
            std::lock_guard<std::mutex> lock(cacheMutex);
            cache.put(spec_.cellKey(c), r);
            if (!autosave_.empty()) {
                snapshot = cache.serialized();
                seq = ++autosaveSeq;
            }
        }
        if (seq != 0) {
            std::lock_guard<std::mutex> lock(autosaveMutex);
            if (seq > autosaveWritten) {
                if (writeFileAtomic(autosave_, snapshot))
                    autosaveWritten = seq;
                else if (!autosaveWarned.exchange(true))
                    warn("could not autosave sweep cache to %s",
                         autosave_.c_str());
            }
        }
    };

    auto worker = [&](unsigned wid) {
        for (std::size_t i = next.fetch_add(1); i < pending.size();
             i = next.fetch_add(1)) {
            // Graceful drain: once the stop check fires, in-flight
            // cells finish (their autosave flushed them already) and
            // no new ones start.
            if (stopCheck_ && stopCheck_()) {
                stopped.store(true);
                break;
            }
            run_cell(pending[i], wid);
        }
    };

    if (jobs <= 1) {
        worker(0);
    } else {
        std::vector<std::thread> pool;
        pool.reserve(jobs);
        for (unsigned t = 0; t < jobs; ++t)
            pool.emplace_back(worker, t);
        for (auto &t : pool)
            t.join();
    }

    if (progressMs_ != 0) {
        {
            std::lock_guard<std::mutex> lk(progressMutex);
            sweepDone = true;
        }
        progressCv.notify_all();
        monitor.join();
    }
    save_timeline();

    statComputed_ = computedCount.load();
    interrupted_ = stopped.load();
    return sweeps;
}

} // namespace wastesim
