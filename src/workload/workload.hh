/**
 * @file
 * Workload abstraction: each benchmark regenerates the paper's
 * application behaviour as per-core, barrier-synchronized memory
 * access traces plus the software-level region information DeNovo
 * consumes (regions, communication regions, bypass hints,
 * self-invalidation sets).
 *
 * A Workload is a description: topology, region table and generator
 * parameters.  Its generator is a coroutine that stops after each
 * barrier, and each run streams it through its own TraceSource, which
 * holds one barrier phase of every core's trace at a time.  Workloads
 * held whole in memory (HeldWorkload: a loaded trace file, a test
 * script) are one-window streams.
 *
 * This substitutes for the paper's Simics full-system runs: the
 * measured quantities (traffic, waste, stall breakdowns) are
 * functions of the address stream, layout and synchronization, all of
 * which the traces reproduce; data values never matter.
 */

#ifndef WASTESIM_WORKLOAD_WORKLOAD_HH
#define WASTESIM_WORKLOAD_WORKLOAD_HH

#include <concepts>
#include <coroutine>
#include <cstdlib>
#include <exception>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/topology.hh"
#include "common/types.hh"
#include "workload/region_table.hh"

namespace wastesim
{

/**
 * One trace operation, as generators append it and readers decode it.
 * A Trace stores each op in a few bytes and decodes this 16-byte form
 * one op at a time.  The constructor keeps the natural
 * `Op{type, addr, arg}` spelling.
 */
struct Op
{
    enum class Type : unsigned char
    {
        Load,       //!< read the word at addr
        Store,      //!< write the word at addr
        Work,       //!< compute for `arg` cycles
        Barrier,    //!< global barrier; arg indexes barrierInfo
        Epoch       //!< start of the measurement window
    };

    Op() = default;
    constexpr Op(Type t, Addr a, std::uint32_t n)
        : addr(a), arg(n), type(t)
    {
    }

    bool operator==(const Op &) const = default;

    Addr addr = 0;
    std::uint32_t arg = 0;
    Type type = Type::Work;
};

/**
 * One core's operation sequence, held as a byte stream.  Each op is
 * one type byte followed by an LEB128 varint: for Load and Store the
 * zigzag-coded byte-address delta from this trace's previous Load or
 * Store, for Work, Barrier and Epoch its `arg`.  Generated streams
 * take 2-3 bytes per op.
 *
 * A Trace is append-only and read forward only: a Cursor decodes it
 * from the start, and range-for yields each Op by value.  There is
 * no random access.  A trace may be one window of a longer stream
 * (restart()); its first delta is then from the address the previous
 * window ended at.  The encoding is canonical, so two traces hold
 * the same ops exactly when their bytes and delta bases are equal.
 */
class Trace
{
  public:
    /** Longest encoding of one op: the type byte and a 64-bit varint. */
    static constexpr std::size_t maxOpBytes = 1 + 10;

    /** Forward decoder; it reads the trace in place. */
    class Cursor
    {
      public:
        Cursor() = default;

        /** True once every op has been decoded. */
        bool done() const { return left_ == 0; }

        /** Ops not yet decoded. */
        std::size_t left() const { return left_; }

        /** Decode the next op; requires !done(). */
        Op
        next()
        {
            const auto type = static_cast<Op::Type>(*p_++);
            std::uint64_t v = 0;
            unsigned shift = 0;
            unsigned char b = 0;
            do {
                b = *p_++;
                v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
                shift += 7;
            } while (b & 0x80);
            --left_;
            if (type == Op::Type::Load || type == Op::Type::Store) {
                addr_ += (v >> 1) ^ (0 - (v & 1));
                return Op{type, addr_, 0};
            }
            return Op{type, 0, static_cast<std::uint32_t>(v)};
        }

      private:
        friend class Trace;
        Cursor(const unsigned char *p, std::size_t n, Addr base)
            : p_(p), left_(n), addr_(base)
        {
        }

        const unsigned char *p_ = nullptr;
        std::size_t left_ = 0; //!< ops not yet decoded
        Addr addr_ = 0;        //!< previous Load/Store address
    };

    /** Iterator for range-for; dereferencing yields an Op by value. */
    class Iterator
    {
      public:
        Op operator*() const { return op_; }

        Iterator &
        operator++()
        {
            if (!cur_.done())
                op_ = cur_.next();
            ++pos_;
            return *this;
        }

        bool operator==(const Iterator &o) const { return pos_ == o.pos_; }

      private:
        friend class Trace;
        Iterator(Cursor c, std::size_t pos) : cur_(c), pos_(pos)
        {
            if (!cur_.done())
                op_ = cur_.next();
        }

        Cursor cur_;
        std::size_t pos_;
        Op op_;
    };

    Trace() = default;
    Trace(const Trace &o);
    Trace(Trace &&o) noexcept
        : buf_(std::exchange(o.buf_, nullptr)),
          len_(std::exchange(o.len_, 0)), cap_(std::exchange(o.cap_, 0)),
          ops_(std::exchange(o.ops_, 0)),
          loads_(std::exchange(o.loads_, 0)),
          stores_(std::exchange(o.stores_, 0)),
          base_(std::exchange(o.base_, 0)), last_(std::exchange(o.last_, 0)),
          hasEpoch_(std::exchange(o.hasEpoch_, false))
    {
    }
    Trace &
    operator=(Trace o) noexcept
    {
        std::swap(buf_, o.buf_);
        std::swap(len_, o.len_);
        std::swap(cap_, o.cap_);
        std::swap(ops_, o.ops_);
        std::swap(loads_, o.loads_);
        std::swap(stores_, o.stores_);
        std::swap(base_, o.base_);
        std::swap(last_, o.last_);
        std::swap(hasEpoch_, o.hasEpoch_);
        return *this;
    }
    ~Trace() { std::free(buf_); }

    /**
     * Append one op.  Generation is bound by this call, so it makes
     * one capacity check per op and then writes the type byte and
     * varint through a raw pointer.  Appending byte by byte through
     * std::vector::push_back made workload generation 15-80% slower
     * than storing 16-byte Ops (4-vCPU x86-64 host); this form is
     * faster than storing Ops.
     */
    void
    push_back(const Op &op)
    {
        if (cap_ - len_ < maxOpBytes)
            grow();
        unsigned char *p = buf_ + len_;
        *p++ = static_cast<unsigned char>(op.type);
        std::uint64_t v = op.arg;
        if (op.type == Op::Type::Load || op.type == Op::Type::Store) {
            loads_ += op.type == Op::Type::Load;
            stores_ += op.type == Op::Type::Store;
            const std::uint64_t d = op.addr - last_;
            last_ = op.addr;
            v = (d << 1) ^ static_cast<std::uint64_t>(
                               static_cast<std::int64_t>(d) >> 63);
        } else if (op.type == Op::Type::Epoch) {
            hasEpoch_ = true;
        }
        while (v >= 0x80) {
            *p++ = static_cast<unsigned char>(v | 0x80);
            v >>= 7;
        }
        *p++ = static_cast<unsigned char>(v);
        len_ = static_cast<std::size_t>(p - buf_);
        ++ops_;
    }

    /** Number of ops. */
    std::size_t size() const { return ops_; }

    /** Number of Load ops and of Store ops. */
    std::size_t loads() const { return loads_; }
    std::size_t stores() const { return stores_; }

    /** True if the trace holds an Epoch op. */
    bool hasEpoch() const { return hasEpoch_; }

    /** Bytes allocated for the stream (its capacity). */
    std::size_t bytes() const { return cap_; }

    /** Release the growth slack once the trace is complete. */
    void trim();

    /**
     * Drop every op but keep the buffer and the address-delta chain:
     * the next op is encoded relative to the last one dropped, so the
     * bytes of successive restarts concatenate to one trace's.
     */
    void
    restart()
    {
        len_ = 0;
        ops_ = 0;
        loads_ = 0;
        stores_ = 0;
        base_ = last_;
        hasEpoch_ = false;
    }

    /** Append @p next, which must have been written after this trace's
     *  last op (its delta base is this trace's last address). */
    void append(const Trace &next);

    Cursor cursor() const { return Cursor(buf_, ops_, base_); }
    Iterator begin() const { return Iterator(cursor(), 0); }
    Iterator end() const { return Iterator(Cursor{}, ops_); }

    bool operator==(const Trace &o) const;

  private:
    void grow();

    unsigned char *buf_ = nullptr; //!< malloc'd so growth can realloc
    std::size_t len_ = 0;          //!< bytes written
    std::size_t cap_ = 0;          //!< bytes allocated
    std::size_t ops_ = 0;
    std::size_t loads_ = 0, stores_ = 0;
    Addr base_ = 0;                //!< address the first delta is from
    Addr last_ = 0;                //!< previous Load/Store address
    bool hasEpoch_ = false;
};

/** What happens at one barrier (indexed by Op::arg). */
struct BarrierInfo
{
    /** Regions to self-invalidate when the barrier releases
     *  (DeNovo only; written-this-phase data). */
    std::vector<RegionId> selfInvalidate;
};

/** Every core's whole trace and every barrier of one run. */
struct WholeTraces
{
    std::vector<Trace> traces;
    std::vector<BarrierInfo> barriers;

    /** Ops across all cores. */
    std::size_t totalOps() const;

    /** Bytes allocated for all cores' traces. */
    std::size_t bytes() const;
};

/**
 * A workload generator: a coroutine that appends ops to a TraceSink
 * and suspends at each `co_await out.barrierAll(...)`, so whoever
 * resumes it holds one barrier phase at a time.  A generator may
 * `co_await` a helper that is itself a Phases coroutine; a barrier in
 * the helper suspends the whole chain, and the next resume continues
 * inside the helper.
 */
class [[nodiscard]] Phases
{
  public:
    struct promise_type;
    using Handle = std::coroutine_handle<promise_type>;

    struct promise_type
    {
        Phases
        get_return_object()
        {
            return Phases(Handle::from_promise(*this));
        }
        std::suspend_always initial_suspend() noexcept { return {}; }

        /** A finished helper continues its caller; the root stops. */
        struct Return
        {
            bool await_ready() noexcept { return false; }
            std::coroutine_handle<>
            await_suspend(Handle h) noexcept
            {
                promise_type &p = h.promise();
                if (!p.caller)
                    return std::noop_coroutine();
                p.root->leaf = p.caller;
                return p.caller;
            }
            void await_resume() noexcept {}
        };
        Return final_suspend() noexcept { return {}; }
        void return_void() {}
        void unhandled_exception() { std::terminate(); }

        Handle caller;             //!< generator awaiting this helper
        promise_type *root = this; //!< outermost generator
        Handle leaf;               //!< root only: innermost running one
    };

    Phases(Phases &&o) noexcept : h_(std::exchange(o.h_, {})) {}
    Phases &operator=(Phases &&) = delete;
    ~Phases()
    {
        if (h_)
            h_.destroy();
    }

    /** Run to the next barrier or the end; false once finished. */
    bool
    resume()
    {
        if (!h_.done())
            h_.promise().leaf.resume();
        return !h_.done();
    }

    /** Awaiting a helper runs it in place of its caller. */
    auto
    operator co_await() && noexcept
    {
        struct Call
        {
            Handle helper;
            bool await_ready() noexcept { return false; }
            Handle
            await_suspend(Handle caller) noexcept
            {
                promise_type &p = helper.promise();
                p.caller = caller;
                p.root = caller.promise().root;
                p.root->leaf = helper;
                return helper;
            }
            void await_resume() noexcept {}
        };
        return Call{h_};
    }

  private:
    explicit Phases(Handle h) : h_(h) { h.promise().leaf = h; }

    Handle h_;
};

/**
 * Where a generator writes: one Trace per core plus the barriers of
 * the phase being generated.  A TraceSource owns it and empties it
 * before each phase; each core's address-delta chain carries over, so
 * the phases' bytes concatenate to the whole trace's.
 */
class TraceSink
{
  public:
    explicit TraceSink(unsigned cores) : traces_(cores) {}

    void
    load(CoreId c, Addr a)
    {
        traces_[c].push_back(Op{Op::Type::Load, a, 0});
    }

    void
    store(CoreId c, Addr a)
    {
        traces_[c].push_back(Op{Op::Type::Store, a, 0});
    }

    void
    work(CoreId c, std::uint32_t cycles)
    {
        if (cycles > 0)
            traces_[c].push_back(Op{Op::Type::Work, 0, cycles});
    }

    /** Insert the measurement-epoch marker for every core. */
    void epochAll();

    /** Insert a barrier for every core; `co_await` the result to end
     *  the phase there. */
    [[nodiscard]] std::suspend_always
    barrierAll(std::vector<RegionId> self_invalidate);

    /** barrierAll() over the regions listed.  (g++ 12 rejects a
     *  braced list inside a co_await expression.) */
    template <std::convertible_to<RegionId>... Ids>
    [[nodiscard]] std::suspend_always
    barrierAll(Ids... self_invalidate)
    {
        return barrierAll(std::vector<RegionId>{self_invalidate...});
    }

    /** Present @p whole, which must outlive the phase, as this phase. */
    void lend(const WholeTraces &whole) { lent_ = &whole; }

  private:
    friend class TraceSource;

    std::vector<Trace> traces_;
    std::vector<BarrierInfo> barriers_; //!< this phase's barriers
    std::uint32_t firstBarrier_ = 0;    //!< Op::arg of barriers_[0]
    const WholeTraces *lent_ = nullptr;
};

/** Load and Store counts of a whole run, and its total op count. */
struct OpCounts
{
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t ops = 0;
};

class Workload;

/**
 * One run's stream of trace windows, where a window is one barrier
 * phase of every core.  Each System owns one: its cores read their
 * window through cursor(c) and call advance(c) when it runs dry.  By
 * then every core has passed the barrier that ends the window, so the
 * source generates the next one into the same per-core buffers.  It
 * keeps only the BarrierInfos the current window references.
 */
class TraceSource
{
  public:
    explicit TraceSource(const Workload &wl);
    TraceSource(const TraceSource &) = delete;
    TraceSource &operator=(const TraceSource &) = delete;

    /** Core @p c's position in its current window. */
    Trace::Cursor &cursor(CoreId c) { return cursors_[c]; }

    /**
     * Core @p c's cursor ran dry: point it at its next window,
     * generating that window if @p c is the first core to need it.
     * Panics if another core still holds ops of the current window.
     * @return false once @p c's stream has ended.
     */
    bool advance(CoreId c);

    /** Ops @p c has not yet read from the windows generated so far. */
    std::size_t opsHeld(CoreId c) const;

    /** Generate the next window; false once the stream has ended.
     *  Whole-stream readers (materialize(), opCounts()) use this. */
    bool next();

    /** Core @p c's current window. */
    const Trace &window(CoreId c) const;

    /** The current window's barriers, in Op::arg order. */
    std::span<const BarrierInfo> barriers() const;

    /** What happens at barrier @p idx; it must be in the window. */
    const BarrierInfo &barrier(std::uint32_t idx) const;

    /** Windows generated so far. */
    std::uint32_t windows() const { return windows_; }

    /** Op counts of the windows generated so far. */
    const OpCounts &counts() const { return counts_; }

    /** True once the stream's last window has been generated. */
    bool ended() const { return genDone_; }

    /** High-water mark of the bytes allocated for the windows. */
    std::size_t peakBytes() const { return peakBytes_; }

  private:
    TraceSink sink_;
    Phases gen_;
    bool genDone_ = false; //!< the current window is the last
    std::uint32_t windows_ = 0;
    OpCounts counts_; //!< of the windows generated so far
    std::size_t peakBytes_ = 0;
    std::vector<Trace::Cursor> cursors_;
    std::vector<std::uint32_t> held_; //!< window each cursor reads
};

/**
 * A benchmark instance: its topology, region table and generator
 * parameters.  A Workload is immutable once built, and several
 * threads may stream one at once: every TraceSource runs its own
 * generate() coroutine, which keeps all generation state.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Benchmark name as used in the figures. */
    virtual std::string name() const = 0;

    /** Input-size description (Table 4.2). */
    virtual std::string inputDesc() const = 0;

    /** Whether the ops hold an Epoch marker.  Stated before any op is
     *  generated; a run that disagrees panics. */
    virtual bool hasEpoch() const { return true; }

    /** Append this workload's ops to @p out, suspending at each
     *  barrier.  Called once per TraceSource. */
    virtual Phases generate(TraceSink &out) const = 0;

    const RegionTable &regions() const { return regions_; }

    /** Topology the workload was generated for. */
    const Topology &topo() const { return topo_; }

    /** Cores the workload drives (== topo().numTiles()). */
    unsigned numCores() const { return topo_.numTiles(); }

    /** Load, Store and total op counts; the first call streams the
     *  workload once, unless keepOpCounts() came first, and later
     *  calls return the cached counts. */
    const OpCounts &opCounts() const;

    /** Cache the counts of @p src, a stream of this workload, if it
     *  has ended, so that opCounts() need not stream it again. */
    void keepOpCounts(const TraceSource &src) const;

    /** Total ops across all cores (reporting). */
    std::size_t totalOps() const { return opCounts().ops; }

  protected:
    explicit Workload(Topology topo = Topology{}) : topo_(std::move(topo)) {}

    /** Allocate @p bytes of address space, line aligned. */
    Addr
    alloc(Addr bytes)
    {
        const Addr base = nextAddr_;
        nextAddr_ += (bytes + bytesPerLine - 1) & ~Addr(bytesPerLine - 1);
        return base;
    }

    Topology topo_;
    RegionTable regions_;
    Addr nextAddr_ = 1u << 20; //!< keep address 0 unused

  private:
    mutable std::once_flag countsOnce_;
    mutable OpCounts counts_;
};

/** Drain a fresh stream of @p wl into whole traces (record, tests). */
WholeTraces materialize(const Workload &wl);

/**
 * A workload whose whole traces are held in memory: loaded from a
 * file, or scripted by a test.  Its stream is one window.
 */
class HeldWorkload : public Workload
{
  public:
    /** True if any core's trace holds an Epoch op. */
    bool hasEpoch() const override;

    Phases generate(TraceSink &out) const override;

    const WholeTraces &whole() const { return whole_; }

  protected:
    explicit HeldWorkload(Topology topo = Topology{})
        : Workload(std::move(topo))
    {
        whole_.traces.resize(topo_.numTiles());
    }

    WholeTraces whole_;
};

/** The six benchmarks of Table 4.2. */
enum class BenchmarkName
{
    Fluidanimate,
    LU,
    FFT,
    Radix,
    Barnes,
    KdTree,
    NumBenchmarks
};

constexpr unsigned numBenchmarks =
    static_cast<unsigned>(BenchmarkName::NumBenchmarks);

/** All benchmarks in figure order. */
extern const BenchmarkName allBenchmarks[numBenchmarks];

/** Printable name. */
const char *benchmarkName(BenchmarkName b);

/** Parse a figure name back to a BenchmarkName; false if unknown. */
bool benchmarkFromName(const std::string &s, BenchmarkName &out);

/**
 * Build a benchmark at the default (scaled) input size.
 * @param scale size multiplier: 1 = default sweep size; larger values
 *        approach the paper's inputs at higher simulation cost.
 * @param topo  system topology to decompose the work over; defaults
 *        to the paper's 4x4 system.
 */
std::unique_ptr<Workload> makeBenchmark(BenchmarkName b,
                                        unsigned scale = 1,
                                        Topology topo = Topology{});

} // namespace wastesim

#endif // WASTESIM_WORKLOAD_WORKLOAD_HH
