#include "obs/observer.hh"

#include "sim/event_queue.hh"

namespace wastesim
{

ObsConfig &
obsConfig()
{
    static ObsConfig cfg;
    return cfg;
}

std::string
expandObsPath(const std::string &pattern, const std::string &protocol,
              const std::string &benchmark)
{
    std::string out;
    out.reserve(pattern.size() + protocol.size() + benchmark.size());
    for (std::size_t i = 0; i < pattern.size(); ++i) {
        if (pattern[i] == '%' && i + 1 < pattern.size()) {
            const char c = pattern[i + 1];
            if (c == 'p') {
                out += protocol;
                ++i;
                continue;
            }
            if (c == 'b') {
                out += benchmark;
                ++i;
                continue;
            }
        }
        out += pattern[i];
    }
    return out;
}

SimObserver::SimObserver(const ObsConfig &config, EventQueue &eq)
    : cfg(config), eq_(eq), wantTimeline_(!config.timelineOut.empty())
{
}

Tick
SimObserver::now() const
{
    return eq_.now();
}

void
SimObserver::heatmapBegin(Tick start)
{
    if (!linkSnapshot)
        return;
    prevLinks_ = linkSnapshot();
    heatmapStart_ = start;
    heatmapIdx_ = 0;
    heatmapCsv_ = "window,start,end,src,dst,flits\n";
}

void
SimObserver::heatmapWindow(Tick end)
{
    if (!linkSnapshot)
        return;
    const std::vector<std::uint64_t> cur = linkSnapshot();
    for (std::size_t i = 0; i < cur.size(); ++i) {
        const std::uint64_t delta =
            cur[i] - (i < prevLinks_.size() ? prevLinks_[i] : 0);
        if (delta == 0)
            continue;
        const auto [src, dst] = linkEnds(i);
        heatmapCsv_ +=
            std::to_string(heatmapIdx_) + "," +
            std::to_string(heatmapStart_) + "," +
            std::to_string(end) + "," + std::to_string(src) + "," +
            std::to_string(dst) + "," + std::to_string(delta) + "\n";
    }
    prevLinks_ = cur;
    heatmapStart_ = end;
    ++heatmapIdx_;
}

namespace
{

thread_local SimObserver *tlsObserver = nullptr;

} // namespace

SimObserver *
simObserver()
{
    return tlsObserver;
}

void
setSimObserver(SimObserver *o)
{
    tlsObserver = o;
}

} // namespace wastesim
