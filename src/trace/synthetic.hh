/**
 * @file
 * Parameterized synthetic workload generator.
 *
 * Turns the six hard-coded Table-4.2 benchmarks into an unbounded
 * scenario space: seeded, deterministic per-core access streams with
 * tunable sharing degree, read/write mix, access pattern (strided,
 * uniform random, hot-set), region count/size and barrier phasing —
 * the axes the paper's waste and traffic results are sensitive to.
 *
 * Generation is bit-reproducible: the same SynthParams always produce
 * the same ops, so synthetic scenarios can be recorded, replayed
 * and compared across protocols like any benchmark.
 */

#ifndef WASTESIM_TRACE_SYNTHETIC_HH
#define WASTESIM_TRACE_SYNTHETIC_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "workload/workload.hh"

namespace wastesim
{

/** Tuning knobs for SyntheticWorkload. */
struct SynthParams
{
    enum class Pattern
    {
        Stride, //!< sequential with a fixed word stride per core
        Random, //!< uniform random words within the target region
        HotSet  //!< skewed: most accesses hit a small hot subset
    };

    std::uint64_t seed = 1;
    Pattern pattern = Pattern::Stride;

    unsigned opsPerCore = 16384; //!< memory accesses per core, total
    unsigned phases = 4;         //!< barrier-delimited compute phases

    unsigned sharedRegions = 8;       //!< number of shared regions
    unsigned regionBytes = 16 * 1024; //!< bytes per shared region
    unsigned privateBytes = 8 * 1024; //!< per-core private arena

    /**
     * Cores per sharing cluster.  Shared regions are partitioned
     * among numCores/sharingDegree clusters; a core only touches the
     * regions of its own cluster, so 1 = private-ish, numCores = all
     * cores contend on everything.
     */
    unsigned sharingDegree = 4;

    double readFraction = 0.7;   //!< loads / (loads + stores)
    double sharedFraction = 0.5; //!< accesses hitting shared regions

    unsigned strideWords = 4;    //!< Pattern::Stride step
    double hotFraction = 0.1;    //!< Pattern::HotSet hot-subset size
    double hotProbability = 0.9; //!< Pattern::HotSet hit probability

    unsigned workCycles = 2; //!< compute cycles between accesses
    bool bypassShared = false; //!< mark shared regions as L2-bypass

    static const char *patternName(Pattern p);
    static bool patternFromName(const std::string &s, Pattern &out);

    /** One-line parameter summary (reports, CLI). */
    std::string describe() const;

    bool operator==(const SynthParams &) const = default;
};

/** A generated synthetic scenario. */
class SyntheticWorkload : public Workload
{
  public:
    explicit SyntheticWorkload(const SynthParams &p,
                               Topology topo = Topology{});

    std::string name() const override;
    std::string inputDesc() const override { return params_.describe(); }
    Phases generate(TraceSink &out) const override;

    const SynthParams &params() const { return params_; }

  private:
    /** Allocate the private and shared regions; form the clusters. */
    void layout();

    SynthParams params_;
    std::vector<Addr> privBase_;      //!< per core
    std::vector<Addr> sharedBase_;    //!< per shared region
    std::vector<RegionId> sharedRegion_;
    std::vector<std::vector<unsigned>> clusterRegions_;
};

/** Convenience factory mirroring makeBenchmark(). */
std::unique_ptr<Workload> makeSynthetic(const SynthParams &p = {},
                                        Topology topo = Topology{});

/**
 * Curated pressure scenarios (the ROADMAP "synthetic scenario
 * library"), selectable as `wastesim synth --preset NAME`:
 *
 *  - "hotset64":  64 cores (8x8 mesh) hammering a small hot subset of
 *    globally shared data — the sharer-list stress that exposed the
 *    16-bit sharer-vector wraparound and now drives the SharerMask
 *    word-scan path.  The generic "hotsetN" form (N a square tile
 *    count, e.g. hotset16, hotset256) curates the same scenario for
 *    an NxN-tile mesh.
 *  - "all2all":   every core reads and writes every shared region
 *    (sharing degree = core count) — maximum invalidation and
 *    self-invalidation pressure.
 *  - "mc-corner": a single memory controller on corner tile 0 with a
 *    memory-resident working set — the NoC hotspot scenario for MC
 *    placement studies (maxLinkFlits).
 *
 * On a hit, @p sp receives the preset's parameters and @p topo the
 * topology the scenario is curated for.  Callers that override the
 * topology (e.g. --mesh) re-derive the parameters for the final
 * geometry with synthPresetFor().  Returns false for unknown names.
 */
bool synthPresetFromName(const std::string &name, SynthParams &sp,
                         Topology &topo);

/**
 * Topology-aware preset parameters: the scenario named @p name
 * derived for @p topo — sharing degree, region count and region sizes
 * scale with the tile count, so hotset64 generalizes to hotsetN on
 * any mesh (at each preset's curated topology the derived parameters
 * equal the historical fixed ones).  Returns false for unknown names.
 */
bool synthPresetFor(const std::string &name, const Topology &topo,
                    SynthParams &sp);

/** All preset names, for usage text and tests. */
const std::vector<std::string> &synthPresetNames();

} // namespace wastesim

#endif // WASTESIM_TRACE_SYNTHETIC_HH
