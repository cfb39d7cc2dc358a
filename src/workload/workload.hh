/**
 * @file
 * Workload abstraction: each benchmark regenerates the paper's
 * application behaviour as per-core, barrier-synchronized memory
 * access traces plus the software-level region information DeNovo
 * consumes (regions, communication regions, bypass hints,
 * self-invalidation sets).
 *
 * This substitutes for the paper's Simics full-system runs: the
 * measured quantities (traffic, waste, stall breakdowns) are
 * functions of the address stream, layout and synchronization, all of
 * which the traces reproduce; data values never matter.
 */

#ifndef WASTESIM_WORKLOAD_WORKLOAD_HH
#define WASTESIM_WORKLOAD_WORKLOAD_HH

#include <cstdlib>
#include <memory>
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
 * no random access.  The encoding is canonical, so two traces hold
 * the same ops exactly when their bytes are equal.
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
        Cursor(const unsigned char *p, std::size_t n) : p_(p), left_(n) {}

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
          ops_(std::exchange(o.ops_, 0)), last_(std::exchange(o.last_, 0)),
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

    /** True if the trace holds an Epoch op. */
    bool hasEpoch() const { return hasEpoch_; }

    /** Bytes allocated for the stream (its capacity). */
    std::size_t bytes() const { return cap_; }

    /** Release the growth slack once the trace is complete. */
    void trim();

    Cursor cursor() const { return Cursor(buf_, ops_); }
    Iterator begin() const { return Iterator(cursor(), 0); }
    Iterator end() const { return Iterator(Cursor{}, ops_); }

    bool operator==(const Trace &o) const;

  private:
    void grow();

    unsigned char *buf_ = nullptr; //!< malloc'd so growth can realloc
    std::size_t len_ = 0;          //!< bytes written
    std::size_t cap_ = 0;          //!< bytes allocated
    std::size_t ops_ = 0;
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

/** A fully generated benchmark instance. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Benchmark name as used in the figures. */
    virtual std::string name() const = 0;

    /** Input-size description (Table 4.2). */
    virtual std::string inputDesc() const = 0;

    const RegionTable &regions() const { return regions_; }
    const std::vector<Trace> &traces() const { return traces_; }
    const std::vector<BarrierInfo> &barriers() const { return barriers_; }

    /** Topology the workload was generated for. */
    const Topology &topo() const { return topo_; }

    /** Cores the workload drives (== topo().numTiles()). */
    unsigned
    numCores() const
    {
        return static_cast<unsigned>(traces_.size());
    }

    /** Total ops across all cores (reporting). */
    std::size_t totalOps() const;

    /** Bytes allocated for all cores' traces. */
    std::size_t traceBytes() const;

    /** Release every trace's growth slack; the generator factories
     *  call it once, after generation. */
    void trimTraces();

  protected:
    explicit Workload(Topology topo = Topology{})
        : topo_(std::move(topo)), traces_(topo_.numTiles())
    {
    }

    // --- helpers for generators ---

    /** Append an op to core @p c's trace. */
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

    /** Insert a barrier for every core. */
    void barrierAll(std::vector<RegionId> self_invalidate = {});

    /** Insert the measurement-epoch marker for every core. */
    void epochAll();

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
    std::vector<Trace> traces_;
    std::vector<BarrierInfo> barriers_;
    Addr nextAddr_ = 1u << 20; //!< keep address 0 unused
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
