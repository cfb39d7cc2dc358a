/**
 * @file
 * Mesh topology geometry: coordinates, XY routing and hop counts for
 * a runtime-sized X-by-Y mesh (the paper's system is 4x4).
 *
 * The traffic metric of the paper is flit-hops; a "hop" here is one
 * link traversal.  Every message traverses at least the ejection link
 * of its destination tile, so a message from a tile to itself costs
 * one hop.
 */

#ifndef WASTESIM_NOC_MESH_HH
#define WASTESIM_NOC_MESH_HH

#include <cstdlib>
#include <vector>

#include "common/topology.hh"
#include "common/types.hh"

namespace wastesim
{

/** Geometry of one dimX-by-dimY mesh instance. */
class Mesh
{
  public:
    /** Defaults to the paper's 4x4 mesh. */
    explicit Mesh(unsigned dim_x = meshDim, unsigned dim_y = meshDim)
        : dimX_(dim_x), dimY_(dim_y)
    {
    }

    /** Geometry of @p topo's mesh. */
    explicit Mesh(const Topology &topo)
        : Mesh(topo.meshX(), topo.meshY())
    {
    }

    unsigned dimX() const { return dimX_; }
    unsigned dimY() const { return dimY_; }
    unsigned numTiles() const { return dimX_ * dimY_; }

    /** X coordinate of tile @p n. */
    unsigned xOf(NodeId n) const { return n % dimX_; }

    /** Y coordinate of tile @p n. */
    unsigned yOf(NodeId n) const { return n / dimX_; }

    /** Tile at (x, y). */
    NodeId
    tileAt(unsigned x, unsigned y) const
    {
        return y * dimX_ + x;
    }

    /** Manhattan distance between two tiles. */
    unsigned
    manhattan(NodeId a, NodeId b) const
    {
        int dx = static_cast<int>(xOf(a)) - static_cast<int>(xOf(b));
        int dy = static_cast<int>(yOf(a)) - static_cast<int>(yOf(b));
        return static_cast<unsigned>((dx < 0 ? -dx : dx) +
                                     (dy < 0 ? -dy : dy));
    }

    /**
     * Link traversals for a message from @p a to @p b, including the
     * final ejection link.
     */
    unsigned
    hops(NodeId a, NodeId b) const
    {
        return manhattan(a, b) + 1;
    }

    /**
     * Step iterator over the XY (dimension-order) route from a source
     * to a destination tile, inclusive of both endpoints.
     *
     * Walking the route in place lets the network charge per-link
     * counters without materializing a vector, and the number of
     * advance() steps plus the ejection link IS the hop count — one
     * walk yields both, so geometry and accounting cannot disagree.
     */
    class RouteWalker
    {
      public:
        RouteWalker(const Mesh &m, NodeId a, NodeId b)
            : mesh_(m), x_(m.xOf(a)), y_(m.yOf(a)), dstX_(m.xOf(b)),
              dstY_(m.yOf(b))
        {
        }

        /** Tile the walk currently stands on. */
        NodeId current() const { return mesh_.tileAt(x_, y_); }

        /** True when the walk has reached the destination tile. */
        bool atEnd() const { return x_ == dstX_ && y_ == dstY_; }

        /**
         * Step one link toward the destination (X first, then Y).
         * @return false (without moving) once at the destination.
         */
        bool
        advance()
        {
            if (x_ != dstX_)
                x_ = x_ < dstX_ ? x_ + 1 : x_ - 1;
            else if (y_ != dstY_)
                y_ = y_ < dstY_ ? y_ + 1 : y_ - 1;
            else
                return false;
            return true;
        }

      private:
        const Mesh &mesh_;
        unsigned x_, y_;
        unsigned dstX_, dstY_;
    };

    /**
     * A tile's output ports, in ascending order of the tile each
     * leads to: north (-dimX), west (-1), ejection (the tile itself),
     * east (+1) and south (+dimX).  On a one-column mesh the vertical
     * links lead to -1 and +1, so they take the west and east slots.
     */
    static constexpr unsigned numPorts = 5;

    /** Port of tile @p a whose link leads to @p b, a neighbor of
     *  @p a or @p a itself (the ejection link). */
    static unsigned
    portTo(NodeId a, NodeId b)
    {
        if (b == a)
            return 2;
        if (b == a + 1)
            return 3;
        if (b + 1 == a)
            return 1;
        return b > a ? 4 : 0;
    }

    /** Tile that port @p p of tile @p a leads to. */
    NodeId
    portTile(NodeId a, unsigned p) const
    {
        switch (p) {
          case 0: return a - dimX_;
          case 1: return a - 1;
          case 2: return a;
          case 3: return a + 1;
          default: return a + dimX_;
        }
    }

    /** Start a route walk from @p a to @p b. */
    RouteWalker route(NodeId a, NodeId b) const
    {
        return RouteWalker(*this, a, b);
    }

    /**
     * Enumerate the tiles visited by XY (dimension-order) routing from
     * @p a to @p b, inclusive of both endpoints.  Convenience wrapper
     * over RouteWalker for tests and offline analysis; the simulation
     * hot path walks the route in place instead.
     */
    std::vector<NodeId> xyRoute(NodeId a, NodeId b) const;

  private:
    unsigned dimX_;
    unsigned dimY_;
};

} // namespace wastesim

#endif // WASTESIM_NOC_MESH_HH
