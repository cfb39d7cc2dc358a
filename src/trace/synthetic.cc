#include "trace/synthetic.hh"

#include <algorithm>
#include <set>
#include <sstream>
#include <vector>

#include "common/log.hh"
#include "common/rng.hh"

namespace wastesim
{

const char *
SynthParams::patternName(Pattern p)
{
    switch (p) {
      case Pattern::Stride: return "stride";
      case Pattern::Random: return "random";
      case Pattern::HotSet: return "hotset";
      default: return "?";
    }
}

bool
SynthParams::patternFromName(const std::string &s, Pattern &out)
{
    for (Pattern p :
         {Pattern::Stride, Pattern::Random, Pattern::HotSet}) {
        if (s == patternName(p)) {
            out = p;
            return true;
        }
    }
    return false;
}

std::string
SynthParams::describe() const
{
    std::ostringstream os;
    os << patternName(pattern) << " seed=" << seed
       << " ops/core=" << opsPerCore << " phases=" << phases
       << " shared=" << sharedRegions << "x" << regionBytes << "B"
       << " degree=" << sharingDegree << " read=" << readFraction
       << " sharedFrac=" << sharedFraction;
    if (pattern == Pattern::Stride)
        os << " stride=" << strideWords;
    if (pattern == Pattern::HotSet)
        os << " hot=" << hotFraction << "@" << hotProbability;
    if (bypassShared)
        os << " bypass";
    return os.str();
}

SyntheticWorkload::SyntheticWorkload(const SynthParams &p,
                                     Topology topo)
    : Workload(std::move(topo)), params_(p)
{
    fatal_if(params_.opsPerCore == 0, "synthetic: opsPerCore must be > 0");
    fatal_if(params_.phases == 0, "synthetic: phases must be > 0");
    fatal_if(params_.sharedRegions == 0,
             "synthetic: sharedRegions must be > 0");
    fatal_if(params_.regionBytes < bytesPerLine,
             "synthetic: regionBytes must be at least one line");
    fatal_if(params_.privateBytes < bytesPerLine,
             "synthetic: privateBytes must be at least one line");
    fatal_if(params_.sharingDegree == 0 ||
                 params_.sharingDegree > numCores(),
             "synthetic: sharingDegree must be in [1, %u]",
             numCores());
    fatal_if(params_.strideWords == 0,
             "synthetic: strideWords must be > 0");
    // Negated >=/<= forms so NaN (which compares false to anything)
    // is rejected instead of reaching float-to-unsigned casts.
    fatal_if(!(params_.readFraction >= 0 && params_.readFraction <= 1) ||
                 !(params_.sharedFraction >= 0 &&
                   params_.sharedFraction <= 1),
             "synthetic: fractions must lie in [0, 1]");
    fatal_if(params_.pattern == SynthParams::Pattern::HotSet &&
                 (!(params_.hotFraction > 0 &&
                    params_.hotFraction <= 1) ||
                  !(params_.hotProbability >= 0 &&
                    params_.hotProbability <= 1)),
             "synthetic: hotFraction must lie in (0, 1] and "
             "hotProbability in [0, 1]");
    layout();
}

std::string
SyntheticWorkload::name() const
{
    return std::string("synth-") +
           SynthParams::patternName(params_.pattern) + "-s" +
           std::to_string(params_.seed);
}

void
SyntheticWorkload::layout()
{
    const SynthParams &p = params_;

    // --- address space -----------------------------------------------------

    const unsigned cores = numCores();

    privBase_.resize(cores);
    for (CoreId c = 0; c < cores; ++c) {
        privBase_[c] = alloc(p.privateBytes);
        Region r;
        r.name = "synth.priv." + std::to_string(c);
        r.base = privBase_[c];
        r.size = p.privateBytes;
        regions_.add(std::move(r));
    }

    sharedBase_.resize(p.sharedRegions);
    sharedRegion_.resize(p.sharedRegions);
    for (unsigned i = 0; i < p.sharedRegions; ++i) {
        sharedBase_[i] = alloc(p.regionBytes);
        Region r;
        r.name = "synth.shared." + std::to_string(i);
        r.base = sharedBase_[i];
        r.size = p.regionBytes;
        r.bypass = p.bypassShared;
        sharedRegion_[i] = regions_.add(std::move(r));
    }

    // --- sharing clusters --------------------------------------------------

    // Cores form numCores/sharingDegree clusters; shared region i
    // belongs to cluster i % numClusters, so every region has exactly
    // one cluster (= sharingDegree cores) touching it.
    const unsigned numClusters =
        std::max(1u, cores / p.sharingDegree);
    clusterRegions_.resize(numClusters);
    for (unsigned i = 0; i < p.sharedRegions; ++i)
        clusterRegions_[i % numClusters].push_back(i);
    // Clusters left without a region (more clusters than regions)
    // fall back to the full region set.
    std::vector<unsigned> allRegions(p.sharedRegions);
    for (unsigned i = 0; i < p.sharedRegions; ++i)
        allRegions[i] = i;
    for (auto &regs : clusterRegions_)
        if (regs.empty())
            regs = allRegions;
}

Phases
SyntheticWorkload::generate(TraceSink &out) const
{
    const SynthParams &p = params_;
    const unsigned cores = numCores();

    auto clusterOf = [&](CoreId c) -> const std::vector<unsigned> & {
        return clusterRegions_[(c / p.sharingDegree) %
                               clusterRegions_.size()];
    };

    // --- deterministic per-core streams ------------------------------------

    // One RNG per core, seeded independently of generation order, so
    // the same params always reproduce the same trace.
    std::vector<Rng> rng;
    rng.reserve(cores);
    for (CoreId c = 0; c < cores; ++c)
        rng.emplace_back(p.seed * 0x9e3779b97f4a7c15ULL + c + 1);

    const unsigned privWords = p.privateBytes / bytesPerWord;
    const unsigned sharedWords = p.regionBytes / bytesPerWord;

    // Per-core stride cursors (one per target arena).
    std::vector<Addr> privCursor(cores, 0);
    std::vector<std::vector<Addr>> sharedCursor(
        cores, std::vector<Addr>(p.sharedRegions, 0));

    auto pickWord = [&](CoreId c, unsigned words,
                        Addr &cursor) -> Addr {
        switch (p.pattern) {
          case SynthParams::Pattern::Stride: {
              const Addr w = cursor % words;
              cursor += p.strideWords;
              return w;
          }
          case SynthParams::Pattern::Random:
            return rng[c].below(words);
          case SynthParams::Pattern::HotSet: {
              const unsigned hot_words = std::max(
                  1u,
                  static_cast<unsigned>(words * p.hotFraction));
              if (rng[c].chance(p.hotProbability))
                  return rng[c].below(hot_words);
              return rng[c].below(words);
          }
          default:
            panic("unknown synthetic pattern");
        }
    };

    // --- warm-up: touch one word per line of everything this core
    // will use, so the measurement window starts from a warm L2 like
    // the Table-4.2 generators do. -----------------------------------------

    for (CoreId c = 0; c < cores; ++c) {
        for (Addr off = 0; off < p.privateBytes; off += bytesPerLine)
            out.load(c, privBase_[c] + off);
        for (unsigned i : clusterOf(c))
            for (Addr off = 0; off < p.regionBytes; off += bytesPerLine)
                out.load(c, sharedBase_[i] + off);
    }
    co_await out.barrierAll();
    out.epochAll();

    // --- measured phases ---------------------------------------------------

    const unsigned opsPerPhase =
        std::max(1u, p.opsPerCore / p.phases);

    for (unsigned phase = 0; phase < p.phases; ++phase) {
        // Shared regions stored to this phase, for precise DeNovo
        // self-invalidation at the closing barrier.
        std::set<RegionId> written;

        for (CoreId c = 0; c < cores; ++c) {
            for (unsigned op = 0; op < opsPerPhase; ++op) {
                Addr addr;
                bool is_shared = rng[c].chance(p.sharedFraction);
                unsigned region_idx = 0;
                if (is_shared) {
                    const auto &regs = clusterOf(c);
                    region_idx = regs[rng[c].below(regs.size())];
                    const Addr w =
                        pickWord(c, sharedWords,
                                 sharedCursor[c][region_idx]);
                    addr = sharedBase_[region_idx] + w * bytesPerWord;
                } else {
                    const Addr w = pickWord(c, privWords,
                                            privCursor[c]);
                    addr = privBase_[c] + w * bytesPerWord;
                }

                if (rng[c].chance(p.readFraction)) {
                    out.load(c, addr);
                } else {
                    out.store(c, addr);
                    if (is_shared)
                        written.insert(sharedRegion_[region_idx]);
                }
                out.work(c, p.workCycles);
            }
        }

        co_await out.barrierAll(std::vector<RegionId>(written.begin(),
                                                      written.end()));
    }
}

std::unique_ptr<Workload>
makeSynthetic(const SynthParams &p, Topology topo)
{
    return std::make_unique<SyntheticWorkload>(p, std::move(topo));
}

namespace
{

/**
 * "hotsetN" names: N is a square tile count, so the scenario is
 * curated for a sqrt(N) x sqrt(N) mesh ("hotset64" -> 8x8).  Returns
 * 0 for anything that is not a hotset name with a valid count.
 */
unsigned
hotsetMeshDim(const std::string &name)
{
    if (name.rfind("hotset", 0) != 0 || name.size() <= 6)
        return 0;
    unsigned tiles = 0;
    for (std::size_t i = 6; i < name.size(); ++i) {
        const char c = name[i];
        if (c < '0' || c > '9')
            return 0;
        tiles = tiles * 10 + static_cast<unsigned>(c - '0');
        if (tiles > maxTiles)
            return 0;
    }
    for (unsigned d = 1; d * d <= tiles; ++d)
        if (d * d == tiles)
            return d;
    return 0;
}

} // namespace

bool
synthPresetFor(const std::string &name, const Topology &topo,
               SynthParams &sp)
{
    const unsigned tiles = topo.numTiles();
    if (hotsetMeshDim(name) != 0) {
        // All cores skew 95% of their shared traffic onto 5% of a
        // globally shared working set: wide sharer lists, constant
        // invalidation rounds.  The working set grows with the tile
        // count (512 B per tile per region) so the hot subset stays
        // contended at any mesh size; at the curated 8x8 topology the
        // parameters equal the historical fixed hotset64 values.
        SynthParams p;
        p.seed = 64;
        p.pattern = SynthParams::Pattern::HotSet;
        p.opsPerCore = 8192;
        p.sharedRegions = 4;
        p.regionBytes = std::max(bytesPerLine, 512 * tiles);
        p.sharingDegree = tiles; // one cluster: everybody shares
        p.sharedFraction = 0.8;
        p.readFraction = 0.75;
        p.hotFraction = 0.05;
        p.hotProbability = 0.95;
        sp = p;
        return true;
    }
    if (name == "all2all") {
        // Every core touches every shared region with a write-heavy
        // mix: the densest producer/consumer crossbar the generator
        // can express.  One region per core over a fixed 128 KB total
        // working set; at the curated 4x4 topology the parameters
        // equal the historical fixed values.
        SynthParams p;
        p.seed = 22;
        p.pattern = SynthParams::Pattern::Random;
        p.opsPerCore = 8192;
        p.sharedRegions = tiles;
        p.regionBytes = std::max(bytesPerLine, 128 * 1024 / tiles);
        p.sharingDegree = tiles;
        p.sharedFraction = 0.9;
        p.readFraction = 0.5;
        sp = p;
        return true;
    }
    if (name == "mc-corner") {
        // A working set far beyond the L2 funneled into few
        // controllers: the NoC hotspot worst case for maxLinkFlits.
        SynthParams p;
        p.seed = 7;
        p.pattern = SynthParams::Pattern::Random;
        p.opsPerCore = 4096;
        p.sharedRegions = 8;
        p.regionBytes = 128 * 1024;
        p.sharingDegree = std::min(4u, tiles);
        p.sharedFraction = 0.85;
        p.readFraction = 0.7;
        sp = p;
        return true;
    }
    return false;
}

bool
synthPresetFromName(const std::string &name, SynthParams &sp,
                    Topology &topo)
{
    if (const unsigned dim = hotsetMeshDim(name)) {
        topo = Topology(dim, dim);
        return synthPresetFor(name, topo, sp);
    }
    if (name == "all2all") {
        topo = Topology(4, 4);
        return synthPresetFor(name, topo, sp);
    }
    if (name == "mc-corner") {
        // One memory controller on corner tile 0: every miss
        // converges on one corner of the mesh.
        topo = Topology(4, 4, std::vector<NodeId>{0});
        return synthPresetFor(name, topo, sp);
    }
    return false;
}

const std::vector<std::string> &
synthPresetNames()
{
    static const std::vector<std::string> names{"hotset64", "all2all",
                                                "mc-corner"};
    return names;
}

} // namespace wastesim
