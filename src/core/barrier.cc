#include "core/barrier.hh"

#include <string>

#include "common/log.hh"
#include "obs/observer.hh"

namespace wastesim
{

void
Barrier::arrive(CoreId c, std::function<void()> released)
{
    (void)c;
    SimObserver *o = simObserver();
    if (waiters_.empty() && o)
        obsStart_ = o->now();
    waiters_.push_back(std::move(released));
    panic_if(waiters_.size() > parties_, "barrier over-subscribed");
    if (waiters_.size() == parties_) {
        if (o && o->wantTimeline()) {
            // The span covers first-arrival to release: the skew the
            // fork-join phases pay at each join.
            o->timeline.complete(
                "barrier", "phase " + std::to_string(phase_),
                static_cast<double>(obsStart_),
                static_cast<double>(o->now() - obsStart_), 0, 2000);
        }
        ++phase_;
        auto ws = std::move(waiters_);
        waiters_.clear();
        for (auto &w : ws)
            w();
    }
}

} // namespace wastesim
