/**
 * @file
 * Fluidanimate-style SPH stencil (PARSEC fluidanimate, simmedium;
 * scaled down), modified to use the ghost-cell pattern for sharing
 * (Section 4.3: the DeNovo port has no mutexes).
 *
 * Paper-relevant properties reproduced:
 *  - cells preallocate space for 16 particles but hold fewer, so the
 *    unused tail of each field array becomes Evict waste that no
 *    optimization in the study can remove (Section 5.3);
 *  - accumulators are zeroed and arrays copied without being read
 *    (Write waste; bypass type 1);
 *  - the grid exceeds the L2 and the X-Y-Z traversal is unblocked,
 *    giving wildly varying L2 reuse distances (Section 5.3);
 *  - ghost-cell exchange at iteration boundaries.
 */

#include "common/rng.hh"
#include "workload/workload.hh"

namespace wastesim
{

namespace
{

class FluidWorkload : public Workload
{
  public:
    FluidWorkload(unsigned scale, Topology topo)
        : Workload(std::move(topo))
    {
        gx_ = 16;
        gy_ = 16;
        gz_ = 8 * scale;
        nCells_ = gx_ * gy_ * gz_;

        cellBase_ = alloc(static_cast<Addr>(nCells_) * cellWords *
                          bytesPerWord);
        ghostBase_ = alloc(static_cast<Addr>(numCores()) * ghostCells *
                           cellWords * bytesPerWord);

        Region cells;
        cells.name = "fluid.cells";
        cells.base = cellBase_;
        cells.size = static_cast<Addr>(nCells_) * cellWords *
                     bytesPerWord;
        cells.bypass = true; // read-then-overwritten every iteration
        cellsId_ = regions_.add(cells);

        Region ghosts;
        ghosts.name = "fluid.ghosts";
        ghosts.base = ghostBase_;
        ghosts.size = static_cast<Addr>(numCores()) * ghostCells *
                      cellWords * bytesPerWord;
        ghostId_ = regions_.add(ghosts);
    }

    std::string name() const override { return "fluidanimate"; }

    std::string
    inputDesc() const override
    {
        return std::to_string(gx_) + "x" + std::to_string(gy_) + "x" +
               std::to_string(gz_) +
               " grid, 16-particle cells (scaled simmedium)";
    }

  private:
    // Cell layout: p@0[16] v@16[16] a@32[16] dens@48[16].
    static constexpr unsigned cellWords = 64;
    static constexpr unsigned ghostCells = 48;

    Addr
    cellField(unsigned cell, unsigned field, unsigned slot) const
    {
        return cellBase_ +
               (static_cast<Addr>(cell) * cellWords + field * 16 +
                slot) *
                   bytesPerWord;
    }

    Addr
    ghostField(CoreId c, unsigned g, unsigned field,
               unsigned slot) const
    {
        return ghostBase_ +
               ((static_cast<Addr>(c) * ghostCells + g) * cellWords +
                field * 16 + slot) *
                   bytesPerWord;
    }

    /** X block (mesh column) owning grid column @p x. */
    unsigned
    xBlockOf(unsigned x) const
    {
        return x * topo().meshX() / gx_;
    }

    /** Y block (mesh row) owning grid row @p y. */
    unsigned
    yBlockOf(unsigned y) const
    {
        return y * topo().meshY() / gy_;
    }

    /** meshX-by-meshY X-Y tile of columns per core. */
    CoreId
    ownerOf(unsigned x, unsigned y) const
    {
        return yBlockOf(y) * topo().meshX() + xBlockOf(x);
    }

    unsigned
    cellIndex(unsigned x, unsigned y, unsigned z) const
    {
        return (z * gy_ + y) * gx_ + x;
    }

    unsigned
    occupancy(unsigned cell) const
    {
        return 4 + (cell * 2654435761u >> 24) % 9; // 4..12, fixed
    }

    template <typename Fn>
    void
    forOwnCells(CoreId c, Fn &&fn) const
    {
        for (unsigned z = 0; z < gz_; ++z)
            for (unsigned y = 0; y < gy_; ++y)
                for (unsigned x = 0; x < gx_; ++x)
                    if (ownerOf(x, y) == c)
                        fn(x, y, z);
    }

    Phases
    iteration(TraceSink &out) const
    {
        // 1. Clear accumulators: written without being read.
        for (CoreId c = 0; c < numCores(); ++c) {
            forOwnCells(c, [&](unsigned x, unsigned y, unsigned z) {
                const unsigned cell = cellIndex(x, y, z);
                const unsigned occ = occupancy(cell);
                for (unsigned s = 0; s < occ; ++s)
                    out.store(c, cellField(cell, 3, s)); // dens
            });
        }
        co_await out.barrierAll(cellsId_);

        // 2. Ghost exchange: read neighbor-tile border cells, write
        //    private ghost copies.
        for (CoreId c = 0; c < numCores(); ++c) {
            unsigned g = 0;
            forOwnCells(c, [&](unsigned x, unsigned y, unsigned z) {
                const bool border =
                    (x > 0 && xBlockOf(x) != xBlockOf(x - 1)) ||
                    (y > 0 && yBlockOf(y) != yBlockOf(y - 1));
                if (!border || g >= ghostCells || z % 4 != 0)
                    return;
                const unsigned nx = x > 0 ? x - 1 : x;
                const unsigned ny = y > 0 ? y - 1 : y;
                const unsigned ncell = cellIndex(nx, ny, z);
                const unsigned occ = occupancy(ncell);
                for (unsigned s = 0; s < occ; ++s) {
                    out.load(c, cellField(ncell, 0, s));
                    out.store(c, ghostField(c, g, 0, s));
                }
                ++g;
            });
        }
        co_await out.barrierAll(ghostId_);

        // 3. Density: stencil over own + neighbor cells' positions.
        for (CoreId c = 0; c < numCores(); ++c) {
            forOwnCells(c, [&](unsigned x, unsigned y, unsigned z) {
                const unsigned cell = cellIndex(x, y, z);
                const unsigned occ = occupancy(cell);
                for (unsigned s = 0; s < occ; ++s)
                    out.load(c, cellField(cell, 0, s));
                // Three neighbors in the unblocked X-Y-Z traversal.
                const unsigned nbs[3][3] = {
                    {x > 0 ? x - 1 : x, y, z},
                    {x, y > 0 ? y - 1 : y, z},
                    {x, y, z > 0 ? z - 1 : z}};
                for (const auto &nb : nbs) {
                    const unsigned ncell =
                        cellIndex(nb[0], nb[1], nb[2]);
                    const unsigned nocc = occupancy(ncell);
                    for (unsigned s = 0; s < nocc; ++s)
                        out.load(c, cellField(ncell, 0, s));
                }
                for (unsigned s = 0; s < occ; ++s) {
                    out.load(c, cellField(cell, 3, s));
                    out.store(c, cellField(cell, 3, s));
                }
                out.work(c, 8);
            });
        }
        co_await out.barrierAll(cellsId_);

        // 4. Force: read p/v and densities, accumulate accelerations.
        for (CoreId c = 0; c < numCores(); ++c) {
            forOwnCells(c, [&](unsigned x, unsigned y, unsigned z) {
                const unsigned cell = cellIndex(x, y, z);
                const unsigned occ = occupancy(cell);
                for (unsigned s = 0; s < occ; ++s) {
                    out.load(c, cellField(cell, 0, s));
                    out.load(c, cellField(cell, 1, s));
                    out.load(c, cellField(cell, 3, s));
                }
                const unsigned ncell =
                    cellIndex(x > 0 ? x - 1 : x, y, z);
                const unsigned nocc = occupancy(ncell);
                for (unsigned s = 0; s < nocc; ++s)
                    out.load(c, cellField(ncell, 0, s));
                for (unsigned s = 0; s < occ; ++s)
                    out.store(c, cellField(cell, 2, s)); // a
                out.work(c, 8);
            });
        }
        co_await out.barrierAll(cellsId_);

        // 5. Advance: read accelerations, overwrite p and v (the
        //    read-then-overwrite pattern bypass targets).
        for (CoreId c = 0; c < numCores(); ++c) {
            forOwnCells(c, [&](unsigned x, unsigned y, unsigned z) {
                const unsigned cell = cellIndex(x, y, z);
                const unsigned occ = occupancy(cell);
                for (unsigned s = 0; s < occ; ++s) {
                    out.load(c, cellField(cell, 2, s));
                    out.store(c, cellField(cell, 0, s));
                    out.store(c, cellField(cell, 1, s));
                }
                out.work(c, 4);
            });
        }
        co_await out.barrierAll(cellsId_);
    }

    Phases
    generate(TraceSink &out) const override
    {
        co_await iteration(out); // warm-up
        out.epochAll();
        co_await iteration(out); // measured
    }

    unsigned gx_, gy_, gz_, nCells_;
    Addr cellBase_, ghostBase_;
    RegionId cellsId_, ghostId_;
};

} // namespace

std::unique_ptr<Workload>
makeFluidanimate(unsigned scale, Topology topo)
{
    return std::make_unique<FluidWorkload>(scale, std::move(topo));
}

} // namespace wastesim
