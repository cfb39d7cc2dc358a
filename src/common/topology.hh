/**
 * @file
 * Runtime system topology: mesh dimensions, tile count, memory
 * controller placement and the address-to-component maps derived from
 * them.
 *
 * The paper evaluates one fixed 16-tile, 4x4-mesh, 4-memory-controller
 * system (Table 4.1); that configuration is the default-constructed
 * Topology, so everything built without an explicit topology
 * reproduces the paper bit-identically.  Non-default topologies (2x2
 * fast paths, 8x8 pressure scenarios, scaling sweeps) are carried in
 * SimParams and threaded through every layer that used to consume the
 * compile-time constants.
 */

#ifndef WASTESIM_COMMON_TOPOLOGY_HH
#define WASTESIM_COMMON_TOPOLOGY_HH

#include <string>
#include <utility>
#include <vector>

#include "common/types.hh"

namespace wastesim
{

/** Mesh geometry + memory-controller placement of one simulated chip. */
class Topology
{
  public:
    /** Mesh dimension cap: keeps sharer vectors sane.  Public so
     *  file loaders can reject out-of-range geometry with an error
     *  instead of a fatal(). */
    static constexpr unsigned maxDim = 64;

    /** The paper's system: 4x4 mesh, MCs on the four corner tiles. */
    Topology() : Topology(meshDim, meshDim) {}

    /**
     * An @p mesh_x by @p mesh_y mesh with @p num_mcs memory
     * controllers at the default placement (corners first, then
     * evenly spread).  @p num_mcs of 0 means "one per corner".
     * Calls fatal() on degenerate geometry.
     */
    Topology(unsigned mesh_x, unsigned mesh_y, unsigned num_mcs = 0);

    /** Explicit memory-controller placement (deduplicated, in-range
     *  tile ids required). */
    Topology(unsigned mesh_x, unsigned mesh_y,
             std::vector<NodeId> mc_tiles);

    unsigned meshX() const { return meshX_; }
    unsigned meshY() const { return meshY_; }

    /** Tiles = cores = L1s = L2 slices. */
    unsigned numTiles() const { return meshX_ * meshY_; }

    unsigned
    numMemCtrls() const
    {
        return static_cast<unsigned>(mcTiles_.size());
    }

    /** Tiles hosting memory controllers, in channel order. */
    const std::vector<NodeId> &memCtrlTiles() const { return mcTiles_; }

    /** Tile that hosts the memory controller for @p channel. */
    NodeId
    memCtrlTile(unsigned channel) const
    {
        return mcTiles_[channel % mcTiles_.size()];
    }

    /**
     * Home L2 slice of a line: sliceInterleaveLines-granular
     * interleave across the slices.
     */
    NodeId
    homeSlice(Addr line_addr) const
    {
        return static_cast<NodeId>(
            (line_addr / bytesPerLine / sliceInterleaveLines) %
            numTiles());
    }

    /** Memory channel of a line: line-address interleave across the
     *  controllers. */
    unsigned
    memChannel(Addr line_addr) const
    {
        return static_cast<unsigned>((line_addr / bytesPerLine) %
                                     numMemCtrls());
    }

    /** Dense endpoint-id space: L1s, then L2s, then MCs. */
    unsigned numFlatIds() const { return 2 * numTiles() + numMemCtrls(); }

    /** "4x4" / "8x2+2mc" style summary (reports, fingerprints). */
    std::string describe() const;

    /** Parse a "WxH" mesh spec; false on malformed input. */
    static bool parseMesh(const std::string &s, unsigned &x, unsigned &y);

    /**
     * Parse a comma-separated mesh list ("2x2,4x4,16x16") into (x, y)
     * dim pairs; false on malformed input.  Shared by every CLI that
     * accepts --mesh-list (the callers attach their own MC policy).
     */
    static bool
    parseMeshList(const std::string &s,
                  std::vector<std::pair<unsigned, unsigned>> &out);

    /**
     * Parse a comma-separated tile-id list ("0,5,10,15"); false on
     * malformed input (empty tokens, non-digits, ids >= maxTiles).
     * Shared by every CLI that accepts --mc-tiles.
     */
    static bool parseTileList(const std::string &s,
                              std::vector<NodeId> &out);

    bool operator==(const Topology &) const = default;

  private:
    unsigned meshX_ = meshDim;
    unsigned meshY_ = meshDim;
    std::vector<NodeId> mcTiles_;
};

} // namespace wastesim

#endif // WASTESIM_COMMON_TOPOLOGY_HH
