/**
 * @file
 * Global barrier for the fork-join workloads.  All cores arrive, then
 * every release callback fires at the same tick (which is when DeNovo
 * self-invalidation and Bloom-filter clearing take effect).
 */

#ifndef WASTESIM_CORE_BARRIER_HH
#define WASTESIM_CORE_BARRIER_HH

#include <functional>
#include <vector>

#include "common/types.hh"

namespace wastesim
{

/** A reusable N-party barrier. */
class Barrier
{
  public:
    explicit Barrier(unsigned parties) : parties_(parties) {}

    /**
     * Core @p c arrives; @p released fires when all parties have
     * arrived (synchronously for the last arrival).
     */
    void arrive(CoreId c, std::function<void()> released);

    unsigned waiting() const { return static_cast<unsigned>(
        waiters_.size()); }

    /** Completed barrier episodes (timeline phase index). */
    unsigned phase() const { return phase_; }

  private:
    unsigned parties_;
    std::vector<std::function<void()>> waiters_;
    unsigned phase_ = 0;
    /** Tick the first party arrived at the current episode. */
    Tick obsStart_ = 0;
};

} // namespace wastesim

#endif // WASTESIM_CORE_BARRIER_HH
