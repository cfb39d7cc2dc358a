/**
 * @file
 * Simple in-order core model (Section 4.2): all non-memory work takes
 * its stated cycle count, loads block the core, stores are
 * non-blocking through the L1's 32-entry write machinery, and
 * barriers drain writes before arrival.
 *
 * The core attributes every stalled cycle to one of the Fig. 5.2
 * categories: Busy, On-chip hit, ToMC, Mem, FromMC, or Sync.
 */

#ifndef WASTESIM_CORE_CORE_HH
#define WASTESIM_CORE_CORE_HH

#include <functional>

#include "common/types.hh"
#include "core/barrier.hh"
#include "protocol/protocol.hh"
#include "sim/event_queue.hh"
#include "workload/workload.hh"

namespace wastesim
{

/** Fig. 5.2 execution-time breakdown for one core. */
struct TimeBreakdown
{
    double busy = 0;
    double onChip = 0;
    double toMc = 0;
    double mem = 0;
    double fromMc = 0;
    double sync = 0;

    double
    total() const
    {
        return busy + onChip + toMc + mem + fromMc + sync;
    }

    void reset() { *this = TimeBreakdown{}; }

    TimeBreakdown &
    operator+=(const TimeBreakdown &o)
    {
        busy += o.busy;
        onChip += o.onChip;
        toMc += o.toMc;
        mem += o.mem;
        fromMc += o.fromMc;
        sync += o.sync;
        return *this;
    }
};

/** One in-order core executing a trace. */
class Core
{
  public:
    /** Hooks the system provides. */
    struct Hooks
    {
        /** Called when this core's Epoch op executes. */
        std::function<void()> onEpoch;
        /** Called when this core finishes its trace. */
        std::function<void(CoreId)> onDone;
        /** Self-invalidation region set per barrier index. */
        std::function<const BarrierInfo &(unsigned)> barrierInfo;
    };

    Core(CoreId id, EventQueue &eq, L1Cache &l1, Barrier &barrier,
         const Trace &trace, Hooks hooks);

    /** Kick off execution (schedules the first op). */
    void start();

    const TimeBreakdown &time() const { return time_; }
    void resetTime() { time_.reset(); }

    bool done() const { return done_; }
    std::size_t opsExecuted() const { return pc_; }

  private:
    void next();

    void attribute(const MemTiming &t);

    CoreId id_;
    EventQueue &eq_;
    L1Cache &l1_;
    Barrier &barrier_;
    Trace::Cursor cursor_;
    Hooks hooks_;

    std::size_t pc_ = 0;
    bool done_ = false;
    TimeBreakdown time_;
};

} // namespace wastesim

#endif // WASTESIM_CORE_CORE_HH
