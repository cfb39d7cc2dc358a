/**
 * @file
 * Parallel SAH kD-tree construction (Choi et al., HPG 2010; Table
 * 4.2: the Stanford bunny; here a synthetic bunny-sized mesh).
 *
 * Paper-relevant properties reproduced:
 *  - an edge array that is streamed (read once per phase) and far
 *    larger than the L2 (bypass type 2 + Flex prefetch);
 *  - a triangle array that is randomly accessed, with only a subset
 *    of each struct's fields used in this phase (Flex);
 *  - structs containing pairs of pointers whose use depends on
 *    dynamic conditions (irreducible Evict waste, Section 5.3);
 *  - three measured iterations (Section 4.3).
 */

#include "common/rng.hh"
#include "workload/workload.hh"

namespace wastesim
{

namespace
{

class KdTreeWorkload : public Workload
{
  public:
    KdTreeWorkload(unsigned scale, Topology topo)
        : Workload(std::move(topo))
    {
        nTris_ = 4096 * scale;
        nEdges_ = 4 * nTris_;

        triBase_ = alloc(static_cast<Addr>(nTris_) * triWords *
                         bytesPerWord);
        edgeBase_ = alloc(static_cast<Addr>(nEdges_) * edgeWords *
                          bytesPerWord);
        nodeBase_ = alloc(static_cast<Addr>(nEdges_) * bytesPerWord);

        // Triangles: 16 words; this phase uses 6 (vertices' extent)
        // plus conditionally one of three pointer pairs.
        Region tris;
        tris.name = "kd.triangles";
        tris.base = triBase_;
        tris.size = static_cast<Addr>(nTris_) * triWords * bytesPerWord;
        tris.flex = true;
        tris.strideWords = triWords;
        tris.usedFields = {0, 1, 2, 3, 4, 5};
        triId_ = regions_.add(tris);

        // Edges: 8 words; 4 used (min/max + the active pointer pair);
        // streamed, bypassed, Flex-prefetched.
        Region edges;
        edges.name = "kd.edges";
        edges.base = edgeBase_;
        edges.size = static_cast<Addr>(nEdges_) * edgeWords *
                     bytesPerWord;
        edges.flex = true;
        edges.strideWords = edgeWords;
        edges.usedFields = {0, 1, 2, 3};
        edges.bypass = true;
        edges.stream = true;
        edgeId_ = regions_.add(edges);

        Region nodes;
        nodes.name = "kd.nodes";
        nodes.base = nodeBase_;
        nodes.size = static_cast<Addr>(nEdges_) * bytesPerWord;
        nodeId_ = regions_.add(nodes);
    }

    std::string name() const override { return "kD-tree"; }

    std::string
    inputDesc() const override
    {
        return std::to_string(nTris_) + " triangles, " +
               std::to_string(nEdges_) + " edges (synthetic bunny)";
    }

  private:
    static constexpr unsigned triWords = 16;
    static constexpr unsigned edgeWords = 8;

    Addr
    triField(unsigned t, unsigned f) const
    {
        return triBase_ +
               (static_cast<Addr>(t) * triWords + f) * bytesPerWord;
    }

    Addr
    edgeField(unsigned e, unsigned f) const
    {
        return edgeBase_ +
               (static_cast<Addr>(e) * edgeWords + f) * bytesPerWord;
    }

    /** One SAH sweep over a third of the edge array. */
    Phases
    iteration(TraceSink &out, unsigned iter, std::uint64_t seed) const
    {
        const unsigned span = nEdges_ / 3;
        const unsigned e0 = iter * span;
        // Floor division (remainder edges dropped), preserving the
        // original 16-core streams bit-for-bit.
        const unsigned per_core = span / numCores();

        for (CoreId c = 0; c < numCores(); ++c) {
            Rng rng(seed ^ (0x2545f491ULL * (c + 1)));
            unsigned node_cursor = e0 + c * per_core;
            for (unsigned i = 0; i < per_core; ++i) {
                const unsigned e = e0 + c * per_core + i;
                // Stream the edge's used fields.
                for (unsigned f = 0; f < 4; ++f)
                    out.load(c, edgeField(e, f));
                // Random triangle lookup: the phase's used fields...
                const unsigned t =
                    static_cast<unsigned>(rng.below(nTris_));
                for (unsigned f = 0; f < 6; ++f)
                    out.load(c, triField(t, f));
                // ...plus a dynamically chosen pointer pair.
                if (rng.chance(0.5)) {
                    const unsigned pair =
                        6 + 2 * static_cast<unsigned>(rng.below(3));
                    out.load(c, triField(t, pair));
                    out.load(c, triField(t, pair + 1));
                }
                // Append the classification to the node output.
                out.store(c, nodeBase_ +
                                 static_cast<Addr>(node_cursor++) *
                                     bytesPerWord);
                out.work(c, 3);
            }
        }
        co_await out.barrierAll(nodeId_);
    }

    Phases
    generate(TraceSink &out) const override
    {
        // One warm-up iteration, three measured (Section 4.3).
        co_await iteration(out, 0, 0x5eedULL);
        out.epochAll();
        for (unsigned it = 0; it < 3; ++it)
            co_await iteration(out, it, 0xbee5ULL + it);
    }

    unsigned nTris_, nEdges_;
    Addr triBase_, edgeBase_, nodeBase_;
    RegionId triId_, edgeId_, nodeId_;
};

} // namespace

std::unique_ptr<Workload>
makeKdTree(unsigned scale, Topology topo)
{
    return std::make_unique<KdTreeWorkload>(scale, std::move(topo));
}

} // namespace wastesim
