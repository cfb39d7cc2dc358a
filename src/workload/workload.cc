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
    : len_(o.len_), cap_(o.len_), ops_(o.ops_), last_(o.last_),
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

bool
Trace::operator==(const Trace &o) const
{
    return ops_ == o.ops_ && len_ == o.len_ &&
           (len_ == 0 || std::memcmp(buf_, o.buf_, len_) == 0);
}

std::size_t
Workload::totalOps() const
{
    std::size_t n = 0;
    for (const auto &t : traces_)
        n += t.size();
    return n;
}

std::size_t
Workload::traceBytes() const
{
    std::size_t n = 0;
    for (const auto &t : traces_)
        n += t.bytes();
    return n;
}

void
Workload::trimTraces()
{
    for (auto &t : traces_)
        t.trim();
}

void
Workload::barrierAll(std::vector<RegionId> self_invalidate)
{
    const auto idx = static_cast<std::uint32_t>(barriers_.size());
    barriers_.push_back(BarrierInfo{std::move(self_invalidate)});
    for (CoreId c = 0; c < numCores(); ++c)
        traces_[c].push_back(Op{Op::Type::Barrier, 0, idx});
}

void
Workload::epochAll()
{
    for (CoreId c = 0; c < numCores(); ++c)
        traces_[c].push_back(Op{Op::Type::Epoch, 0, 0});
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
    wl->trimTraces();
    return wl;
}

} // namespace wastesim
