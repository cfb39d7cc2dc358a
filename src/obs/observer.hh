/**
 * @file
 * Per-System observation bundle and the process-wide observability
 * configuration.
 *
 * ObsConfig is deliberately global (one CLI invocation, one set of
 * flags) and deliberately NOT part of SimParams: observability must
 * never change a sweepConfigTag fingerprint, so enabling it can never
 * invalidate or miss a sweep cache.
 *
 * A SimObserver is created by System::run() when any observation is
 * requested, and published through a thread-local pointer so that
 * deep components (directory slices, DRAM channels, the barrier) can
 * emit timeline spans without threading an observer reference through
 * every constructor — the same pattern as log.hh's debugLineDump.
 * Concurrent sweep workers each observe their own System.  When no
 * observer is installed, every emission site is a thread-local load
 * and a null check.
 */

#ifndef WASTESIM_OBS_OBSERVER_HH
#define WASTESIM_OBS_OBSERVER_HH

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hh"
#include "obs/sampler.hh"
#include "obs/timeline.hh"

namespace wastesim
{

class EventQueue;

/** What to observe (set once from the CLI, read by System::run). */
struct ObsConfig
{
    /** Sampling window in ticks; 0 disables the sampler. */
    Tick sampleWindow = 0;
    /** Sampler JSON output path (%p -> protocol, %b -> benchmark). */
    std::string sampleOut;
    /** Sim-time trace-event JSON path (%p/%b expanded). */
    std::string timelineOut;
    /** Per-window per-link heatmap CSV path (%p/%b expanded). */
    std::string heatmapOut;

    bool
    active() const
    {
        return sampleWindow != 0 || !timelineOut.empty() ||
               !heatmapOut.empty();
    }
};

/** The process-wide observation config. */
ObsConfig &obsConfig();

/** Expand %p/%b placeholders in an output-path pattern. */
std::string expandObsPath(const std::string &pattern,
                          const std::string &protocol,
                          const std::string &benchmark);

/** Everything one observed simulation records. */
class SimObserver
{
  public:
    SimObserver(const ObsConfig &cfg, EventQueue &eq);

    const ObsConfig cfg; //!< snapshot of the config at run start

    Sampler sampler;
    Timeline timeline;

    bool wantTimeline() const { return wantTimeline_; }

    /** Current sim time (for components without an EventQueue). */
    Tick now() const;

    // --- per-link heatmap -------------------------------------------------
    /** Snapshot provider: the Network's per-link flit counters, in
     *  (src, dst) order, and the tiles each counter's link joins.
     *  Installed by System. */
    std::function<std::vector<std::uint64_t>()> linkSnapshot;
    std::function<std::pair<NodeId, NodeId>(std::size_t)> linkEnds;

    /** Baseline the heatmap at window start (after linkSnapshot is
     *  installed). */
    void heatmapBegin(Tick start);

    /** Close a heatmap window at @p end: diff the link counters against
     *  the previous snapshot and append non-zero deltas as CSV. */
    void heatmapWindow(Tick end);

    /** The accumulated CSV ("window,start,end,src,dst,flits"). */
    const std::string &heatmapCsv() const { return heatmapCsv_; }

  private:
    EventQueue &eq_;
    bool wantTimeline_;
    std::vector<std::uint64_t> prevLinks_;
    Tick heatmapStart_ = 0;
    unsigned heatmapIdx_ = 0;
    std::string heatmapCsv_;
};

/** The observer watching the simulation on this thread (or null). */
SimObserver *simObserver();
void setSimObserver(SimObserver *o);

/** RAII installer for the thread-local observer. */
class ScopedSimObserver
{
  public:
    explicit ScopedSimObserver(SimObserver *o) : prev_(simObserver())
    {
        setSimObserver(o);
    }
    ~ScopedSimObserver() { setSimObserver(prev_); }
    ScopedSimObserver(const ScopedSimObserver &) = delete;
    ScopedSimObserver &operator=(const ScopedSimObserver &) = delete;

  private:
    SimObserver *prev_;
};

} // namespace wastesim

#endif // WASTESIM_OBS_OBSERVER_HH
