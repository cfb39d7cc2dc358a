#include "workload/workload.hh"

#include <algorithm>
#include <cstring>
#include <new>

#include "common/log.hh"

namespace wastesim
{

const BenchmarkName allBenchmarks[numBenchmarks] = {
    BenchmarkName::Fluidanimate, BenchmarkName::LU,
    BenchmarkName::FFT,          BenchmarkName::Radix,
    BenchmarkName::Barnes,       BenchmarkName::KdTree,
};

const char *
benchmarkName(BenchmarkName b)
{
    switch (b) {
      case BenchmarkName::Fluidanimate: return "fluidanimate";
      case BenchmarkName::LU: return "LU";
      case BenchmarkName::FFT: return "FFT";
      case BenchmarkName::Radix: return "radix";
      case BenchmarkName::Barnes: return "barnes";
      case BenchmarkName::KdTree: return "kD-tree";
      default: return "?";
    }
}

bool
benchmarkFromName(const std::string &s, BenchmarkName &out)
{
    for (BenchmarkName b : allBenchmarks) {
        if (s == benchmarkName(b)) {
            out = b;
            return true;
        }
    }
    return false;
}

Trace::Trace(const Trace &o)
    : len_(o.len_), cap_(o.len_), ops_(o.ops_), loads_(o.loads_),
      stores_(o.stores_), base_(o.base_), last_(o.last_),
      hasEpoch_(o.hasEpoch_)
{
    if (len_ == 0)
        return;
    buf_ = static_cast<unsigned char *>(std::malloc(len_));
    if (!buf_)
        throw std::bad_alloc();
    std::memcpy(buf_, o.buf_, len_);
}

void
Trace::grow()
{
    const std::size_t cap = std::max<std::size_t>(256, cap_ * 2);
    auto *p = static_cast<unsigned char *>(std::realloc(buf_, cap));
    if (!p)
        throw std::bad_alloc();
    buf_ = p;
    cap_ = cap;
}

void
Trace::trim()
{
    if (len_ == cap_)
        return;
    if (len_ == 0) {
        std::free(buf_);
        buf_ = nullptr;
        cap_ = 0;
        return;
    }
    // Shrinking in place cannot fail in practice; if it does, the
    // old, larger buffer is still valid.
    if (auto *p = static_cast<unsigned char *>(std::realloc(buf_, len_))) {
        buf_ = p;
        cap_ = len_;
    }
}

void
Trace::append(const Trace &next)
{
    if (next.ops_ == 0)
        return;
    panic_if(next.base_ != last_,
             "appended trace window starts from address %#llx, not "
             "%#llx",
             static_cast<unsigned long long>(next.base_),
             static_cast<unsigned long long>(last_));
    while (cap_ - len_ < next.len_)
        grow();
    std::memcpy(buf_ + len_, next.buf_, next.len_);
    len_ += next.len_;
    ops_ += next.ops_;
    loads_ += next.loads_;
    stores_ += next.stores_;
    last_ = next.last_;
    hasEpoch_ |= next.hasEpoch_;
}

bool
Trace::operator==(const Trace &o) const
{
    return ops_ == o.ops_ && len_ == o.len_ && base_ == o.base_ &&
           (len_ == 0 || std::memcmp(buf_, o.buf_, len_) == 0);
}

std::size_t
WholeTraces::totalOps() const
{
    std::size_t n = 0;
    for (const auto &t : traces)
        n += t.size();
    return n;
}

std::size_t
WholeTraces::bytes() const
{
    std::size_t n = 0;
    for (const auto &t : traces)
        n += t.bytes();
    return n;
}

void
TraceSink::epochAll()
{
    for (Trace &t : traces_)
        t.push_back(Op{Op::Type::Epoch, 0, 0});
}

std::suspend_always
TraceSink::barrierAll(std::vector<RegionId> self_invalidate)
{
    const auto idx =
        static_cast<std::uint32_t>(firstBarrier_ + barriers_.size());
    barriers_.push_back(BarrierInfo{std::move(self_invalidate)});
    for (Trace &t : traces_)
        t.push_back(Op{Op::Type::Barrier, 0, idx});
    return {};
}

TraceSource::TraceSource(const Workload &wl)
    : sink_(wl.numCores()), gen_(wl.generate(sink_)),
      cursors_(wl.numCores()), held_(wl.numCores(), 0)
{
}

const Trace &
TraceSource::window(CoreId c) const
{
    return sink_.lent_ ? sink_.lent_->traces[c] : sink_.traces_[c];
}

std::span<const BarrierInfo>
TraceSource::barriers() const
{
    if (sink_.lent_)
        return sink_.lent_->barriers;
    return sink_.barriers_;
}

const BarrierInfo &
TraceSource::barrier(std::uint32_t idx) const
{
    if (sink_.lent_)
        return sink_.lent_->barriers.at(idx);
    panic_if(idx < sink_.firstBarrier_ ||
                 idx - sink_.firstBarrier_ >= sink_.barriers_.size(),
             "barrier %u is not in trace window %u", idx, windows_);
    return sink_.barriers_[idx - sink_.firstBarrier_];
}

bool
TraceSource::next()
{
    if (genDone_)
        return false;
    for (Trace &t : sink_.traces_)
        t.restart();
    sink_.firstBarrier_ += static_cast<std::uint32_t>(sink_.barriers_.size());
    sink_.barriers_.clear();
    sink_.lent_ = nullptr;
    genDone_ = !gen_.resume();
    ++windows_;
    std::size_t bytes = 0;
    for (CoreId c = 0; c < sink_.traces_.size(); ++c) {
        bytes += sink_.traces_[c].bytes();
        const Trace &w = window(c);
        counts_.loads += w.loads();
        counts_.stores += w.stores();
        counts_.ops += w.size();
    }
    peakBytes_ = std::max(peakBytes_, bytes);
    return true;
}

std::size_t
TraceSource::opsHeld(CoreId c) const
{
    return held_[c] == windows_ ? cursors_[c].left() : window(c).size();
}

bool
TraceSource::advance(CoreId c)
{
    for (;;) {
        if (held_[c] == windows_) {
            if (genDone_) {
                // No window follows: free this core's buffer.
                sink_.traces_[c] = Trace{};
                return false;
            }
            for (CoreId k = 0; k < cursors_.size(); ++k)
                panic_if(opsHeld(k) != 0,
                         "core %u asked for trace window %u while core "
                         "%u still holds %zu ops of window %u",
                         c, windows_ + 1, k, opsHeld(k), windows_);
            next();
        }
        held_[c] = windows_;
        cursors_[c] = window(c).cursor();
        if (!cursors_[c].done())
            return true;
    }
}

const OpCounts &
Workload::opCounts() const
{
    std::call_once(countsOnce_, [this] {
        TraceSource src(*this);
        while (src.next()) {
        }
        counts_ = src.counts();
    });
    return counts_;
}

void
Workload::keepOpCounts(const TraceSource &src) const
{
    if (src.ended())
        std::call_once(countsOnce_, [&] { counts_ = src.counts(); });
}

WholeTraces
materialize(const Workload &wl)
{
    WholeTraces w;
    w.traces.resize(wl.numCores());
    TraceSource src(wl);
    while (src.next()) {
        for (CoreId c = 0; c < wl.numCores(); ++c)
            w.traces[c].append(src.window(c));
        const auto bs = src.barriers();
        w.barriers.insert(w.barriers.end(), bs.begin(), bs.end());
    }
    for (Trace &t : w.traces)
        t.trim();
    return w;
}

bool
HeldWorkload::hasEpoch() const
{
    return std::any_of(whole_.traces.begin(), whole_.traces.end(),
                       [](const Trace &t) { return t.hasEpoch(); });
}

Phases
HeldWorkload::generate(TraceSink &out) const
{
    out.lend(whole_);
    co_return;
}

// makeBenchmark() is defined in workload/factory-style fashion at the
// bottom of each benchmark's translation unit; the dispatcher lives in
// fft.cc's sibling, see makeBenchmark in benchmarks.cc-style below.

std::unique_ptr<Workload> makeFluidanimate(unsigned scale,
                                           Topology topo);
std::unique_ptr<Workload> makeLu(unsigned scale, Topology topo);
std::unique_ptr<Workload> makeFft(unsigned scale, Topology topo);
std::unique_ptr<Workload> makeRadix(unsigned scale, Topology topo);
std::unique_ptr<Workload> makeBarnes(unsigned scale, Topology topo);
std::unique_ptr<Workload> makeKdTree(unsigned scale, Topology topo);

std::unique_ptr<Workload>
makeBenchmark(BenchmarkName b, unsigned scale, Topology topo)
{
    fatal_if(scale == 0, "benchmark scale must be >= 1");
    std::unique_ptr<Workload> wl;
    switch (b) {
      case BenchmarkName::Fluidanimate:
        wl = makeFluidanimate(scale, std::move(topo));
        break;
      case BenchmarkName::LU: wl = makeLu(scale, std::move(topo)); break;
      case BenchmarkName::FFT: wl = makeFft(scale, std::move(topo)); break;
      case BenchmarkName::Radix:
        wl = makeRadix(scale, std::move(topo));
        break;
      case BenchmarkName::Barnes:
        wl = makeBarnes(scale, std::move(topo));
        break;
      case BenchmarkName::KdTree:
        wl = makeKdTree(scale, std::move(topo));
        break;
      default: panic("unknown benchmark");
    }
    return wl;
}

} // namespace wastesim
