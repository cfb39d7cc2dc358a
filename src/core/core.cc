#include "core/core.hh"

#include "common/log.hh"

namespace wastesim
{

Core::Core(CoreId id, EventQueue &eq, L1Cache &l1, Barrier &barrier,
           TraceSource &source, Hooks hooks)
    : id_(id), eq_(eq), l1_(l1), barrier_(barrier), source_(source),
      cursor_(source.cursor(id)), hooks_(std::move(hooks))
{
}

void
Core::start()
{
    eq_.schedule(0, [this] { next(); });
}

void
Core::attribute(const MemTiming &t)
{
    if (t.immediate) {
        time_.busy += 1;
        return;
    }
    const double total = static_cast<double>(t.tEnd - t.issued);
    if (!t.usedMemory) {
        time_.onChip += total;
        return;
    }
    // Clamp each leg; retries can perturb the intermediate stamps.
    double to_mc = t.tMcArrive >= t.issued
        ? static_cast<double>(t.tMcArrive - t.issued) : 0.0;
    double mem = t.tMemDone >= t.tMcArrive
        ? static_cast<double>(t.tMemDone - t.tMcArrive) : 0.0;
    if (to_mc + mem > total) {
        const double scale = total / (to_mc + mem);
        to_mc *= scale;
        mem *= scale;
    }
    time_.toMc += to_mc;
    time_.mem += mem;
    time_.fromMc += total - to_mc - mem;
}

void
Core::next()
{
    if (cursor_.done() && !source_.advance(id_)) {
        done_ = true;
        if (hooks_.onDone)
            hooks_.onDone(id_);
        return;
    }

    const Op op = cursor_.next();
    ++pc_;
    switch (op.type) {
      case Op::Type::Work:
        time_.busy += op.arg;
        eq_.schedule(op.arg, [this] { next(); });
        break;

      case Op::Type::Load:
        l1_.load(op.addr, [this](const MemTiming &t) {
            attribute(t);
            eq_.schedule(1, [this] { next(); });
        });
        break;

      case Op::Type::Store: {
        const Tick t0 = eq_.now();
        l1_.store(op.addr, [this, t0] {
            // Structural stalls (write machinery full) show up as
            // on-chip time; an accepted store costs one busy cycle.
            const Tick stalled = eq_.now() - t0;
            if (stalled > 0)
                time_.onChip += static_cast<double>(stalled);
            time_.busy += 1;
            eq_.schedule(1, [this] { next(); });
        });
        break;
      }

      case Op::Type::Barrier: {
        const Tick t0 = eq_.now();
        const unsigned idx = op.arg;
        l1_.drainWrites([this, t0, idx] {
            barrier_.arrive(id_, [this, t0, idx] {
                const BarrierInfo &bi = source_.barrier(idx);
                l1_.barrierRelease(bi.selfInvalidate);
                time_.sync += static_cast<double>(eq_.now() - t0);
                eq_.schedule(1, [this] { next(); });
            });
        });
        break;
      }

      case Op::Type::Epoch:
        if (hooks_.onEpoch)
            hooks_.onEpoch();
        next();
        break;

      default:
        panic("unknown op type");
    }
}

} // namespace wastesim
