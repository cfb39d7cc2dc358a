/**
 * @file
 * Scale-out sweep engine: the (topology x benchmark x protocol) grid
 * as a flat cell list with an incremental per-cell result cache and
 * process-level sharding.
 *
 * runSweep() parallelizes one grid over one machine's threads with an
 * all-or-nothing disk cache; at 8x8 and 16x16 meshes the grid costs
 * orders of magnitude more than the paper's 4x4, so this engine
 * treats every (topology, benchmark, protocol) combination as an
 * independently cached, independently schedulable cell:
 *
 *  - **Incremental cache** (CellCache): each cell is keyed by the
 *    full configuration fingerprint (sweepConfigTag + bench +
 *    protocol), so growing `--mesh-list` — or changing nothing —
 *    recomputes only the missing cells instead of invalidating the
 *    whole sweep.
 *
 *  - **Dynamic work queue**: pending cells are ordered biggest-mesh
 *    first and pulled by a pool of worker threads (effectiveSweepJobs)
 *    from an atomic cursor, so a straggling 16x16 cell starts early
 *    instead of serializing the sweep tail.
 *
 *  - **Sharding**: `setShard(i, N)` restricts the engine to the
 *    deterministic slice {cells | flat index % N == i}.  Each shard
 *    (separate process or host) writes a partial CellCache;
 *    CellCache::merge() combines partials, and the merged file is
 *    byte-identical to a single-process sweep's cache because cells
 *    are serialized in canonical key order.
 *
 *  - **Integrity**: the v2 cache format carries a CRC-32 and byte
 *    length per cell block, so a corrupt or truncated cell is
 *    detected at load (and either reported or salvaged around) rather
 *    than silently served.  Poisoned cells — ones the supervisor gave
 *    up on — are recorded as quarantine entries with their failure
 *    reason, so reports can render them as annotated holes instead of
 *    erroring or re-running known-bad simulations.
 */

#ifndef WASTESIM_SYSTEM_SWEEP_ENGINE_HH
#define WASTESIM_SYSTEM_SWEEP_ENGINE_HH

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "system/runner.hh"

namespace wastesim
{

/** One point of the sweep grid (indexes into a SweepSpec). */
struct SweepCell
{
    unsigned topoIdx = 0;
    unsigned benchIdx = 0;
    unsigned protoIdx = 0;
};

/** The grid a SweepEngine runs. */
struct SweepSpec
{
    /** Topologies to sweep (the `--mesh-list` axis); at least one. */
    std::vector<Topology> topologies{Topology{}};
    std::vector<BenchmarkName> benches;   //!< figure order
    std::vector<ProtocolName> protocols;  //!< figure order
    unsigned scale = 1;
    /** Base parameters; params.topo is replaced per topology. */
    SimParams params = SimParams::scaled();

    /** The paper's full 9-protocol x 6-benchmark grid on params.topo. */
    static SweepSpec fullGrid(unsigned scale, SimParams params);

    std::size_t
    numCells() const
    {
        return topologies.size() * benches.size() * protocols.size();
    }

    /** Cell at @p flat in figure order (topology-major, then
     *  benchmark, then protocol). */
    SweepCell cellAt(std::size_t flat) const;

    /** Base parameters with topology @p topo_idx installed. */
    SimParams paramsFor(unsigned topo_idx) const;

    /**
     * Cache key of one cell: the full configuration fingerprint plus
     * the cell coordinates.  Two cells share a key iff they describe
     * the same simulation.
     */
    std::string cellKey(const SweepCell &c) const;
};

/** Quarantine record of a poisoned cell: why the last attempt failed
 *  and how many attempts were spent before giving up. */
struct CellFailure
{
    unsigned attempts = 0;
    std::string reason;
};

/** How CellCache::load treats a damaged file. */
enum class CacheLoadMode
{
    /** Any corrupt or truncated cell fails the whole load (and clears
     *  the cache); the report names the first bad cell and its byte
     *  offset.  What `merge` wants: a damaged shard should be
     *  surfaced, not silently thinned. */
    Strict,
    /** Corrupt cells are dropped (reported via badKeys) and a
     *  structural truncation stops the scan, keeping everything read
     *  so far.  What `sweep`/`report` want: salvaged cells are served,
     *  dropped ones are simply re-simulated. */
    Salvage,
};

/** What CellCache::load found; valid in both modes, success or not. */
struct CacheLoadReport
{
    bool found = false;     //!< the file existed and was readable
    bool formatOk = false;  //!< magic was a known cache format
    bool truncated = false; //!< structural damage stopped the scan
    std::size_t cells = 0;       //!< result cells loaded
    std::size_t quarantined = 0; //!< quarantine records loaded
    std::size_t badCells = 0;    //!< cells dropped (or, strict: hit)
    /** Keys of the dropped cells (when recoverable from the file). */
    std::vector<std::string> badKeys;
    /** Human-readable description of the first problem, naming the
     *  cell and its byte offset in the file. */
    std::string error;
};

/**
 * Per-cell sweep result store, on disk as a text file in canonical
 * (key-sorted) order: equal cell sets always serialize to identical
 * bytes, which is what makes sharded-and-merged caches comparable to
 * single-process ones with cmp(1).
 *
 * Format v2 ("wastesim-cells-v2") prefixes every cell block with its
 * byte length and CRC-32, and appends quarantine records after the
 * result cells.  Any other magic, the retired v1 format included, is
 * not a cell cache: it loads nothing.
 */
class CellCache
{
  public:
    /** Strict load from @p path; false (and empty cache) when the
     *  file is missing, a legacy-format cache, or corrupt. */
    bool load(const std::string &path);

    /**
     * Load with an outcome report.  Strict mode returns false on any
     * damage (cache cleared); Salvage mode returns true whenever the
     * magic was recognized, keeping every intact cell and listing the
     * dropped ones in @p rep.
     */
    bool load(const std::string &path, CacheLoadReport &rep,
              CacheLoadMode mode);

    /** The canonical file bytes (magic, counts, key-ordered cells,
     *  key-ordered quarantine records); what save()/saveAtomic()
     *  write.  Snapshotting to a string lets the engine serialize
     *  under its cache lock but perform the disk write outside it. */
    std::string serialized() const;

    /** Write all cells in canonical order; false on I/O error. */
    bool save(const std::string &path) const;

    /**
     * save() through a temporary file renamed over @p path, so a
     * reader (or a crash) never observes a half-written cache.  The
     * engine's incremental autosave rewrites the file after every
     * computed cell; atomic replacement is what makes a killed
     * shard's cache always loadable for resume.
     */
    bool saveAtomic(const std::string &path) const;

    bool has(const std::string &key) const;

    /** Fetch and deserialize; false when absent. */
    bool get(const std::string &key, RunResult &out) const;

    /** Insert a result (and lift any quarantine on the key: a cell
     *  that finally computed is no longer poison). */
    void put(const std::string &key, const RunResult &r);

    /** Record @p key as poisoned: @p attempts were spent, the last
     *  failing for @p reason.  No-op if the key has a result. */
    void quarantine(const std::string &key, unsigned attempts,
                    const std::string &reason);

    /** True when @p key is quarantined; fills @p out when given. */
    bool isQuarantined(const std::string &key,
                       CellFailure *out = nullptr) const;

    void clearQuarantine(const std::string &key);

    /**
     * Absorb every cell of @p other.  A key present on both sides
     * must carry an identical result (the cells are deterministic
     * simulations of the same configuration); a contradiction leaves
     * this cache unchanged and reports the offending key via @p err.
     * Quarantine records merge too: a real result on either side
     * beats a quarantine, and two quarantines keep the higher attempt
     * count (ties: the lexicographically smaller reason, so merge
     * order cannot change the output bytes).
     */
    bool merge(const CellCache &other, std::string *err = nullptr);

    std::size_t size() const { return cells_.size(); }

    std::size_t numQuarantined() const { return quarantine_.size(); }

    const std::map<std::string, CellFailure> &
    quarantined() const
    {
        return quarantine_;
    }

  private:
    bool loadV2(std::istream &is, CacheLoadReport &rep,
                CacheLoadMode mode);

    /** key -> serialized RunResult block (precision-17 text). */
    std::map<std::string, std::string> cells_;
    /** key -> why the supervisor gave up on the cell. */
    std::map<std::string, CellFailure> quarantine_;
};

/** What a sweep run starts from (planSweep()). */
struct SweepPlan
{
    /** One figure-ordered Sweep per topology: hits filled in,
     *  quarantined cells annotated as holes. */
    std::vector<Sweep> sweeps;
    /** Flat indices left to compute, biggest meshes first. */
    std::vector<std::size_t> pending;
    std::size_t hits = 0;
    std::size_t quarantined = 0;
};

/**
 * The start shared by SweepEngine and SweepSupervisor: serve the
 * @p owned cells' cache hits, honor quarantine records (unless
 * @p retry_quarantined) and queue the rest.  @p on_served sees
 * every hit (true) or quarantined (false) cell.
 */
SweepPlan planSweep(
    const SweepSpec &spec, const CellCache &cache,
    const std::vector<std::size_t> &owned, bool retry_quarantined,
    const std::function<void(const SweepCell &, bool)> &on_served);

/**
 * Runs (a shard of) a SweepSpec against a CellCache: cached cells are
 * served, missing cells are computed on a worker pool and inserted.
 */
class SweepEngine
{
  public:
    /** Computes one cell; injectable so tests can count/spoof cell
     *  computations without paying for simulations. */
    using CellFn =
        std::function<RunResult(const SweepSpec &, const SweepCell &)>;

    explicit SweepEngine(SweepSpec spec);

    /** Restrict to shard @p shard of @p num_shards (fatal on
     *  shard >= num_shards or num_shards == 0). */
    void setShard(unsigned shard, unsigned num_shards);

    void setCompute(CellFn fn) { compute_ = std::move(fn); }

    /**
     * Partial-cache resume: persist the cache to @p path (atomic
     * rename) after every computed cell, so a killed run resumes
     * from its completed cells instead of recomputing the slice.
     * Empty path (the default) disables autosaving.
     */
    void setAutosave(std::string path) { autosave_ = std::move(path); }

    /**
     * Wall-clock progress heartbeat: every @p ms milliseconds a
     * monitor thread reports done/total cells, aggregate events/sec
     * and an ETA to stderr, and warns (once per cell, with its cache
     * key) when an in-flight cell exceeds 4x the median completed
     * cell time — the stall fingerprint.  0 disables the monitor.
     */
    void setProgress(unsigned ms) { progressMs_ = ms; }

    /**
     * Write a wall-clock cell-lifecycle trace-event JSON to @p path
     * after the run: one complete event per computed cell on its
     * worker's lane, plus instants for cache-served cells.
     */
    void setTimeline(std::string path)
    {
        timelinePath_ = std::move(path);
    }

    /** Recompute quarantined cells instead of honoring their records
     *  (`--retry-quarantined`).  Off by default: a poisoned cell is
     *  rendered as a hole, not re-run on every report. */
    void setRetryQuarantined(bool on) { retryQuarantined_ = on; }

    /**
     * Cooperative cancellation (SIGINT/SIGTERM graceful drain): the
     * predicate is polled between cells; once it returns true,
     * workers finish their in-flight cell — whose autosave flushes it
     * to disk — and stop pulling new ones.  interrupted() reports
     * whether a run was cut short this way.
     */
    void setStopCheck(std::function<bool()> fn)
    {
        stopCheck_ = std::move(fn);
    }

    const SweepSpec &spec() const { return spec_; }

    /** Flat indices of this shard's cells, in figure order. */
    std::vector<std::size_t> shardCellIndices() const;

    /**
     * Run this shard's slice.  Returns one figure-ordered Sweep per
     * topology; with an active shard only the cells this slice owns
     * are filled in (the partial cache, not the Sweeps, is the
     * product of a sharded run).  Quarantined cells are annotated as
     * holes on the Sweeps (Sweep::holes) and skipped.
     */
    std::vector<Sweep> run(CellCache &cache);

    /** Cells in this shard's slice (after the last run()). */
    std::size_t cellsTotal() const { return statTotal_; }
    /** ...of which were served from the cache. */
    std::size_t cellsHit() const { return statHit_; }
    /** ...of which were simulated. */
    std::size_t cellsComputed() const { return statComputed_; }
    /** ...of which were skipped as quarantined (holes). */
    std::size_t cellsQuarantined() const { return statQuarantined_; }

    /** True when the last run() was cut short by the stop check. */
    bool interrupted() const { return interrupted_; }

  private:
    SweepSpec spec_;
    unsigned shard_ = 0;
    unsigned numShards_ = 1;
    CellFn compute_;
    std::string autosave_;
    unsigned progressMs_ = 0;
    std::string timelinePath_;
    bool retryQuarantined_ = false;
    std::function<bool()> stopCheck_;

    std::size_t statTotal_ = 0;
    std::size_t statHit_ = 0;
    std::size_t statComputed_ = 0;
    std::size_t statQuarantined_ = 0;
    bool interrupted_ = false;
};

} // namespace wastesim

#endif // WASTESIM_SYSTEM_SWEEP_ENGINE_HH
