#include "system/supervisor.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <deque>
#include <limits>
#include <sstream>
#include <thread>

#include "common/log.hh"
#include "common/rng.hh"
#include "obs/debug.hh"
#include "obs/timeline.hh"
#include "system/worker_pool.hh"

namespace wastesim
{

namespace
{

std::uint64_t
fnv1a64(const std::string &s)
{
    std::uint64_t h = 1469598103934665603ULL;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    return h;
}

/** Seed for the per-(cell, attempt) deterministic draws. */
std::uint64_t
mixSeed(std::uint64_t seed, const std::string &cell_id,
        unsigned attempt)
{
    return fnv1a64(cell_id) ^ (seed * 0x9e3779b97f4a7c15ULL) ^
           (static_cast<std::uint64_t>(attempt) *
            0xbf58476d1ce4e5b9ULL);
}

} // namespace

// --- FaultSpec --------------------------------------------------------------

std::string
FaultSpec::describe() const
{
    char buf[96];
    std::snprintf(buf, sizeof(buf), "crash:%g,hang:%g,corrupt:%g",
                  crash, hang, corrupt);
    return buf;
}

bool
FaultSpec::parse(const std::string &spec, FaultSpec &out,
                 std::string *err)
{
    FaultSpec f;
    bool seen_crash = false, seen_hang = false, seen_corrupt = false;
    std::size_t pos = 0;
    while (pos < spec.size()) {
        std::size_t comma = spec.find(',', pos);
        if (comma == std::string::npos)
            comma = spec.size();
        const std::string item = spec.substr(pos, comma - pos);
        pos = comma + 1;
        if (item.empty())
            continue;
        const std::size_t colon = item.find(':');
        if (colon == std::string::npos) {
            if (err)
                *err = "fault spec item '" + item +
                       "' is not NAME:PROB";
            return false;
        }
        const std::string name = item.substr(0, colon);
        const std::string pstr = item.substr(colon + 1);
        char *end = nullptr;
        const double p = std::strtod(pstr.c_str(), &end);
        // Negated >=/<= form so NaN is rejected too, and an explicit
        // empty check: strtod("") "consumes" the whole empty string,
        // which the end-pointer test alone would accept as 0.
        if (pstr.empty() || end != pstr.c_str() + pstr.size() ||
            !(p >= 0 && p <= 1)) {
            if (err)
                *err = "fault probability '" + pstr +
                       "' is not in [0, 1]";
            return false;
        }
        bool *seen = nullptr;
        if (name == "crash") {
            f.crash = p;
            seen = &seen_crash;
        } else if (name == "hang") {
            f.hang = p;
            seen = &seen_hang;
        } else if (name == "corrupt") {
            f.corrupt = p;
            seen = &seen_corrupt;
        } else {
            if (err)
                *err = "unknown fault kind '" + name +
                       "' (crash, hang, corrupt)";
            return false;
        }
        if (*seen) {
            if (err)
                *err = "duplicate fault kind '" + name + "'";
            return false;
        }
        *seen = true;
    }
    if (f.crash + f.hang + f.corrupt > 1.0) {
        if (err)
            *err = "fault probabilities sum to more than 1";
        return false;
    }
    out = f;
    return true;
}

FaultKind
faultDraw(const FaultSpec &faults, std::uint64_t seed,
          const std::string &cell_id, unsigned attempt)
{
    if (!faults.any())
        return FaultKind::None;
    Rng rng(mixSeed(seed, cell_id, attempt));
    const double u = rng.real();
    if (u < faults.crash) {
        // The crash flavor varies deterministically so every kill
        // path (signal death, kill -9, spurious exit) gets exercised.
        switch (rng.below(3)) {
          case 0:
            return FaultKind::CrashSegv;
          case 1:
            return FaultKind::CrashKill;
          default:
            return FaultKind::CrashExit;
        }
    }
    if (u < faults.crash + faults.hang)
        return FaultKind::Hang;
    if (u < faults.crash + faults.hang + faults.corrupt)
        return FaultKind::Corrupt;
    return FaultKind::None;
}

// --- worker hand-off --------------------------------------------------------

std::string
formatWorkerOutput(const std::string &cell_id, const RunResult &r)
{
    std::ostringstream os;
    os.precision(17);
    os << cell_id << '\n';
    writeRunResult(os, r);
    return formatHandoff(cellOutputMagic, os.str());
}

void
corruptWorkerOutput(std::string &file_bytes, std::uint64_t seed,
                    unsigned attempt)
{
    const std::size_t hdr = file_bytes.find('\n');
    if (hdr == std::string::npos || hdr + 1 >= file_bytes.size())
        return;
    const std::size_t base = hdr + 1;
    const std::size_t span = file_bytes.size() - base;
    Rng rng(mixSeed(seed ^ 0xC02259F7u, "corrupt", attempt));
    const unsigned flips = 1 + static_cast<unsigned>(rng.below(4));
    // Any payload flip breaks the header CRC; XOR is never a no-op.
    for (unsigned i = 0; i < flips; ++i)
        file_bytes[base + rng.below(span)] ^=
            static_cast<char>(0xA5);
}

bool
parseWorkerOutput(const std::string &payload,
                  const std::string &expect_cell_id, RunResult &out,
                  std::string *err)
{
    auto fail = [&](const std::string &why) {
        if (err)
            *err = why;
        return false;
    };
    const std::size_t nl = payload.find('\n');
    if (nl == std::string::npos)
        return fail("output payload has no cell key line");
    const std::string id = payload.substr(0, nl);
    if (id != expect_cell_id)
        return fail("output is for cell '" + id + "', expected '" +
                    expect_cell_id + "'");
    std::istringstream bs(payload.substr(nl + 1));
    if (!readRunResult(bs, out))
        return fail("unparseable result block");
    return true;
}

// --- SweepSupervisor --------------------------------------------------------

SweepSupervisor::SweepSupervisor(SweepSpec spec, SupervisorConfig cfg)
    : spec_(std::move(spec)), cfg_(std::move(cfg))
{
    fatal_if(spec_.topologies.empty(),
             "supervisor: at least one topology is required");
    fatal_if(spec_.benches.empty() || spec_.protocols.empty(),
             "supervisor: empty benchmark or protocol list");
    fatal_if(cfg_.workers == 0, "supervisor: needs at least 1 worker");
    fatal_if(cfg_.numShards == 0 || cfg_.shard >= cfg_.numShards,
             "supervisor: shard %u/%u is not a valid slice",
             cfg_.shard, cfg_.numShards);
}

std::vector<Sweep>
SweepSupervisor::run(CellCache &cache)
{
    using clock = std::chrono::steady_clock;
    const bool want_timeline = !cfg_.timelinePath.empty();
    Timeline timeline;
    const auto t0 = clock::now();
    auto now_us = [&t0] {
        return std::chrono::duration<double, std::micro>(
                   clock::now() - t0)
            .count();
    };
    auto cell_label = [&](const SweepCell &c) {
        return std::string(protocolName(spec_.protocols[c.protoIdx])) +
               "/" + benchmarkName(spec_.benches[c.benchIdx]) + "@" +
               spec_.topologies[c.topoIdx].describe();
    };
    if (want_timeline) {
        timeline.threadName(1, 999, "cache");
        for (unsigned w = 0; w < cfg_.workers; ++w)
            timeline.threadName(1, w, "worker " + std::to_string(w));
    }

    // Serve hits and honor quarantine records, exactly like the
    // threaded engine; only the misses go to worker processes.
    std::vector<std::size_t> owned;
    for (std::size_t i = cfg_.shard; i < spec_.numCells();
         i += cfg_.numShards)
        owned.push_back(i);
    SweepPlan plan = planSweep(
        spec_, cache, owned, cfg_.retryQuarantined,
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
    statComputed_ = statRetries_ = statKills_ = 0;
    interrupted_ = false;
    DPRINTF_NT(Supervisor,
               "%zu cells: %zu cached, %zu quarantined, %zu to run "
               "on %u workers",
               statTotal_, statHit_, statQuarantined_, pending.size(),
               cfg_.workers);

    auto save_timeline = [&] {
        if (want_timeline && !timeline.save(cfg_.timelinePath))
            warn("cannot write sweep timeline '%s'",
                 cfg_.timelinePath.c_str());
    };
    if (pending.empty()) {
        save_timeline();
        return sweeps;
    }

    struct Task
    {
        std::size_t flat = 0;
        unsigned attempt = 0; //!< 0-based attempt index
    };
    struct Running
    {
        Task task;
        double startUs = 0;
    };

    std::deque<Task> ready;
    for (std::size_t flat : pending)
        ready.push_back(Task{flat, 0});
    std::deque<std::pair<clock::time_point, Task>> delayed;
    WorkerPool pool(cfg_.workers, cfg_.program, cellOutputMagic);
    std::vector<Running> running(cfg_.workers);
    std::vector<double> durationsMs;
    std::size_t remainingCells = pending.size();
    bool autosaveWarned = false;

    auto autosave = [&] {
        if (cfg_.autosavePath.empty())
            return;
        if (!cache.saveAtomic(cfg_.autosavePath) && !autosaveWarned) {
            autosaveWarned = true;
            warn("could not autosave sweep cache to %s",
                 cfg_.autosavePath.c_str());
        }
    };

    auto backoffDelayMs = [&](const std::string &key,
                              unsigned failed_attempt) {
        const unsigned exp = std::min(failed_attempt, 6u);
        const double base = static_cast<double>(cfg_.backoffBaseMs) *
                            static_cast<double>(1u << exp);
        // Deterministic jitter in [0.5, 1.5): spreads retry bursts
        // without making reruns behave differently.
        Rng rng(mixSeed(cfg_.faultSeed ^ 0xB0FF5EEDu, key,
                        failed_attempt));
        return static_cast<std::uint64_t>(
            std::max(1.0, base * (0.5 + rng.real())));
    };

    // The per-cell hard deadline: explicit wins; otherwise adapt to
    // 4x the median completed cell once three cells finished — the
    // stall warning threshold, promoted to a kill.
    auto deadlineMsNow = [&]() -> double {
        if (cfg_.deadlineMs > 0)
            return cfg_.deadlineMs;
        if (durationsMs.size() < 3)
            return std::numeric_limits<double>::infinity();
        std::vector<double> d = durationsMs;
        const std::size_t mid = d.size() / 2;
        std::nth_element(d.begin(), d.begin() + mid, d.end());
        return std::max<double>(cfg_.stallKillFactor * d[mid],
                                cfg_.minAdaptiveDeadlineMs);
    };

    auto spawn = [&](unsigned slot, const Task &t) {
        const SweepCell c = spec_.cellAt(t.flat);
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
            pool.outPath(slot),
        };
        args.insert(args.end(), cfg_.workerParamArgs.begin(),
                    cfg_.workerParamArgs.end());
        if (cfg_.faults.any()) {
            args.push_back("--fault-inject");
            args.push_back(cfg_.faults.describe());
            args.push_back("--fault-seed");
            args.push_back(std::to_string(cfg_.faultSeed));
            args.push_back("--fault-attempt");
            args.push_back(std::to_string(t.attempt));
        }
        const pid_t pid = pool.spawn(slot, args);
        running[slot] = Running{t, now_us()};
        inform("worker %u: running %s (attempt %u, pid %d)", slot,
               cell_label(c).c_str(), t.attempt + 1,
               static_cast<int>(pid));
        DPRINTF_NT(Supervisor, "spawn pid %d slot %u attempt %u: %s",
                   static_cast<int>(pid), slot, t.attempt + 1,
                   cell_label(c).c_str());
    };

    auto onFailure = [&](const Task &t, const std::string &reason,
                         unsigned slot_idx) {
        const SweepCell c = spec_.cellAt(t.flat);
        const std::string key = spec_.cellKey(c);
        if (t.attempt < cfg_.maxRetries) {
            ++statRetries_;
            const std::uint64_t delay =
                backoffDelayMs(key, t.attempt);
            warn("cell '%s' attempt %u/%u failed (%s); retrying in "
                 "%llu ms",
                 key.c_str(), t.attempt + 1, cfg_.maxRetries + 1,
                 reason.c_str(),
                 static_cast<unsigned long long>(delay));
            delayed.emplace_back(
                clock::now() + std::chrono::milliseconds(delay),
                Task{t.flat, t.attempt + 1});
            if (want_timeline)
                timeline.instant("sweep",
                                 "retry " + cell_label(c) + " (" +
                                     reason + ")",
                                 now_us(), 1, slot_idx);
        } else {
            const unsigned attempts = t.attempt + 1;
            cache.quarantine(key, attempts, reason);
            sweeps[c.topoIdx].holes[c.benchIdx][c.protoIdx] = reason;
            ++statQuarantined_;
            --remainingCells;
            warn("cell '%s' QUARANTINED after %u attempts (last "
                 "failure: %s); reports will render it as a hole",
                 key.c_str(), attempts, reason.c_str());
            if (want_timeline)
                timeline.instant("sweep",
                                 "quarantine " + cell_label(c) + " (" +
                                     reason + ")",
                                 now_us(), 1, slot_idx);
            autosave();
        }
    };

    auto onSuccess = [&](const Task &t, const RunResult &r,
                         double start_us, unsigned slot_idx) {
        const SweepCell c = spec_.cellAt(t.flat);
        sweeps[c.topoIdx].results[c.benchIdx][c.protoIdx] = r;
        sweeps[c.topoIdx].holes[c.benchIdx][c.protoIdx].clear();
        cache.put(spec_.cellKey(c), r);
        ++statComputed_;
        --remainingCells;
        const double end_us = now_us();
        durationsMs.push_back((end_us - start_us) / 1e3);
        if (want_timeline)
            timeline.complete("sweep", cell_label(c), start_us,
                              end_us - start_us, 1, slot_idx);
        DPRINTF_NT(Supervisor, "slot %u finished %s in %.1f ms",
                   slot_idx, cell_label(c).c_str(),
                   (end_us - start_us) / 1e3);
        autosave();
    };

    auto lastBeat = clock::now();
    while (remainingCells > 0) {
        // Second signal: every worker is killed and reaped; completed
        // cells are on disk.
        if (pool.stopIfForced()) {
            interrupted_ = true;
            break;
        }
        const int drain = drainRequestCount();

        const auto now = clock::now();
        while (!delayed.empty() && delayed.front().first <= now) {
            ready.push_back(delayed.front().second);
            delayed.pop_front();
        }

        for (unsigned i = 0; i < pool.size(); ++i) {
            if (!pool.busy(i) && drain == 0 && !ready.empty()) {
                spawn(i, ready.front());
                ready.pop_front();
            }
        }
        const unsigned busy = pool.numBusy();
        if (busy == 0) {
            if (drain > 0) {
                // Drained: nothing in flight, nothing may start.
                interrupted_ = true;
                break;
            }
            if (ready.empty() && !delayed.empty()) {
                // Everything is backing off; sleep to the next retry.
                std::this_thread::sleep_until(delayed.front().first);
                continue;
            }
        }

        const std::vector<WorkerExit> exits = pool.poll(deadlineMsNow());
        for (const WorkerExit &e : exits) {
            const Running &w = running[e.slot];
            const std::string key = spec_.cellKey(spec_.cellAt(w.task.flat));
            if (e.deadlineKilled) {
                ++statKills_;
                warn("cell '%s' %s: killed its worker", key.c_str(),
                     e.reason.c_str());
            }
            RunResult r;
            std::string err;
            if (!e.exitedWith(0))
                onFailure(w.task, e.reason, e.slot);
            else if (!e.outputOk)
                onFailure(w.task, "corrupt output: " + e.outputError,
                          e.slot);
            else if (!parseWorkerOutput(e.payload, key, r, &err))
                onFailure(w.task, "corrupt output: " + err, e.slot);
            else
                onSuccess(w.task, r, w.startUs, e.slot);
        }

        if (cfg_.progressMs != 0 &&
            std::chrono::duration<double, std::milli>(clock::now() -
                                                      lastBeat)
                    .count() >= cfg_.progressMs) {
            lastBeat = clock::now();
            std::fprintf(stderr,
                         "supervise: %zu/%zu cells done (%zu hit, "
                         "%zu computed, %zu quarantined), %u "
                         "running, %zu retries, %zu deadline kills\n",
                         statTotal_ - remainingCells, statTotal_,
                         statHit_, statComputed_, statQuarantined_,
                         busy, statRetries_, statKills_);
        }

        if (exits.empty())
            std::this_thread::sleep_for(
                std::chrono::milliseconds(15));
    }

    save_timeline();
    return sweeps;
}

} // namespace wastesim
