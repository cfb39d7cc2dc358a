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

#include <memory>
#include <string>
#include <vector>

#include "common/topology.hh"
#include "common/types.hh"
#include "workload/region_table.hh"

namespace wastesim
{

/**
 * One trace operation.  Fields are laid out widest first so an Op
 * packs into 16 bytes (traces hold every op of a run in memory); the
 * constructor keeps the natural `Op{type, addr, arg}` spelling.
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

    Addr addr = 0;
    std::uint32_t arg = 0;
    Type type = Type::Work;
};

static_assert(sizeof(Op) == 16, "Op must pack into 16 bytes");

/** Per-core operation sequence. */
using Trace = std::vector<Op>;

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
