/**
 * @file
 * Barnes-Hut N-body force computation (SPLASH-2 barnes, Table 4.2:
 * 16 K bodies; scaled down).
 *
 * Paper-relevant properties reproduced:
 *  - AoS body/oct-node structures with many fields used only during
 *    tree construction, compiler padding, and a stride that is not a
 *    multiple of the cache line size (28 words = 112 B), so useful
 *    words straddle a varying number of lines — the Flex showcase;
 *  - a sequentialized tree-build phase (the DeNovo port lacks
 *    mutexes, Section 4.3);
 *  - small L2 working set (no bypass opportunity);
 *  - irregular tree traversal (Fetch/Evict waste that Flex cannot
 *    remove without hurting performance, Section 5.3).
 */

#include "common/rng.hh"
#include "workload/workload.hh"

namespace wastesim
{

namespace
{

class BarnesWorkload : public Workload
{
  public:
    BarnesWorkload(unsigned scale, Topology topo)
        : Workload(std::move(topo))
    {
        nBodies_ = 1024 * scale;
        nNodes_ = nBodies_ / 2;

        bodyBase_ = alloc(static_cast<Addr>(nBodies_) * strideWords *
                          bytesPerWord);
        nodeBase_ = alloc(static_cast<Addr>(nNodes_) * strideWords *
                          bytesPerWord);

        // Bodies: mass@0(2) pos@2(6) vel@8(6) acc@14(6) phi@20(2)
        // tree-only@22(6).  The force phase uses mass+pos+acc.
        Region bodies;
        bodies.name = "barnes.bodies";
        bodies.base = bodyBase_;
        bodies.size = static_cast<Addr>(nBodies_) * strideWords *
                      bytesPerWord;
        bodies.flex = true;
        bodies.strideWords = strideWords;
        bodies.usedFields = {0, 1, 2, 3, 4, 5, 6, 7,
                             14, 15, 16, 17, 18, 19};
        bodyId_ = regions_.add(bodies);

        // Oct-nodes: center@0(6) mass@6(2) children/tree-only@8(20).
        // The force phase uses center+mass only.
        Region nodes;
        nodes.name = "barnes.nodes";
        nodes.base = nodeBase_;
        nodes.size = static_cast<Addr>(nNodes_) * strideWords *
                     bytesPerWord;
        nodes.flex = true;
        nodes.strideWords = strideWords;
        nodes.usedFields = {0, 1, 2, 3, 4, 5, 6, 7};
        nodeId_ = regions_.add(nodes);
    }

    std::string name() const override { return "barnes"; }

    std::string
    inputDesc() const override
    {
        return std::to_string(nBodies_) + " bodies, " +
               std::to_string(nNodes_) + " oct-nodes";
    }

  private:
    /** 28 words = 112 bytes: deliberately not line-aligned. */
    static constexpr unsigned strideWords = 28;

    Addr
    bodyField(unsigned b, unsigned field) const
    {
        return bodyBase_ +
               (static_cast<Addr>(b) * strideWords + field) *
                   bytesPerWord;
    }

    Addr
    nodeField(unsigned n, unsigned field) const
    {
        return nodeBase_ +
               (static_cast<Addr>(n) * strideWords + field) *
                   bytesPerWord;
    }

    /** Sequentialized tree build: core 0 writes tree-only fields. */
    void
    treeBuild(TraceSink &out) const
    {
        for (unsigned n = 0; n < nNodes_; ++n) {
            for (unsigned f = 8; f < 14; ++f)
                out.store(0, nodeField(n, f));
            out.store(0, nodeField(n, 6));
            out.store(0, nodeField(n, 7));
            out.work(0, 2);
        }
        for (unsigned b = 0; b < nBodies_; ++b) {
            for (unsigned f = 22; f < 26; ++f)
                out.store(0, bodyField(b, f));
        }
    }

    /** First body of core @p c's balanced contiguous share. */
    unsigned
    bodyStart(CoreId c) const
    {
        return static_cast<unsigned>(
            static_cast<std::uint64_t>(nBodies_) * c / numCores());
    }

    /** Force phase: irregular traversal per body. */
    void
    forces(TraceSink &out, std::uint64_t seed) const
    {
        for (CoreId c = 0; c < numCores(); ++c) {
            Rng rng(seed ^ (0x9e3779b9ULL * (c + 1)));
            for (unsigned b = bodyStart(c); b < bodyStart(c + 1);
                 ++b) {
                // Walk ~12 tree nodes (zipf-ish: low-index nodes, the
                // top of the tree, are visited most).
                for (unsigned v = 0; v < 12; ++v) {
                    const unsigned span = 1u + static_cast<unsigned>(
                        rng.below(1u << (1 + v % 9)));
                    const unsigned n =
                        static_cast<unsigned>(rng.below(span) %
                                              nNodes_);
                    for (unsigned f = 0; f < 8; ++f)
                        out.load(c, nodeField(n, f));
                    out.work(c, 4);
                }
                // A few nearby bodies interact directly.
                for (unsigned v = 0; v < 4; ++v) {
                    const unsigned o = static_cast<unsigned>(
                        rng.below(nBodies_));
                    for (unsigned f = 0; f < 8; ++f)
                        out.load(c, bodyField(o, f));
                    out.work(c, 4);
                }
                // Accumulate into our own acceleration.
                for (unsigned f = 14; f < 20; ++f)
                    out.store(c, bodyField(b, f));
                out.work(c, 8);
            }
        }
    }

    /** Update phase: integrate positions/velocities. */
    void
    update(TraceSink &out) const
    {
        for (CoreId c = 0; c < numCores(); ++c) {
            for (unsigned b = bodyStart(c); b < bodyStart(c + 1);
                 ++b) {
                for (unsigned f = 14; f < 20; ++f)
                    out.load(c, bodyField(b, f));
                for (unsigned f = 8; f < 14; ++f) {
                    out.load(c, bodyField(b, f));
                    out.store(c, bodyField(b, f));
                }
                for (unsigned f = 2; f < 8; ++f)
                    out.store(c, bodyField(b, f));
                out.work(c, 6);
            }
        }
    }

    Phases
    iteration(TraceSink &out, std::uint64_t seed) const
    {
        treeBuild(out);
        co_await out.barrierAll(nodeId_, bodyId_);
        forces(out, seed);
        co_await out.barrierAll(bodyId_);
        update(out);
        co_await out.barrierAll(bodyId_);
    }

    Phases
    generate(TraceSink &out) const override
    {
        // Iterative: one warm-up iteration, one measured (Table 4.2).
        co_await iteration(out, 0x5eedULL);
        out.epochAll();
        co_await iteration(out, 0xf00dULL);
    }

    unsigned nBodies_, nNodes_;
    Addr bodyBase_, nodeBase_;
    RegionId bodyId_, nodeId_;
};

} // namespace

std::unique_ptr<Workload>
makeBarnes(unsigned scale, Topology topo)
{
    return std::make_unique<BarnesWorkload>(scale, std::move(topo));
}

} // namespace wastesim
