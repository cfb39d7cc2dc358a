/**
 * @file
 * Blocked dense LU factorization (SPLASH-2 LU, aligned/contiguous
 * variant; Table 4.2: 512x512 with 16x16 blocks, scaled down).
 *
 * Paper-relevant properties reproduced:
 *  - aligned blocks: no false sharing;
 *  - frequent MESI Upgrade requests (lines are read shared before
 *    being written by their owner);
 *  - Evict waste from touching only the lower-triangular part of
 *    diagonal blocks (Section 5.3's "upper triangular" waste);
 *  - small L2 working set (little bypass opportunity).
 */

#include "workload/workload.hh"

namespace wastesim
{

namespace
{

class LuWorkload : public Workload
{
  public:
    LuWorkload(unsigned scale, Topology topo)
        : Workload(std::move(topo))
    {
        n_ = 128 * scale;
        nb_ = n_ / blockDim;
        const Addr bytes = static_cast<Addr>(n_) * n_ * elemWords *
                           bytesPerWord;
        base_ = alloc(bytes);

        // One region per block so self-invalidation stays precise.
        blockRegion_.resize(nb_ * nb_);
        for (unsigned i = 0; i < nb_; ++i) {
            for (unsigned j = 0; j < nb_; ++j) {
                Region r;
                r.name = "lu.block." + std::to_string(i) + "." +
                         std::to_string(j);
                r.base = blockBase(i, j);
                r.size = blockWords * bytesPerWord;
                blockRegion_[i * nb_ + j] = regions_.add(r);
            }
        }
    }

    std::string name() const override { return "LU"; }

    std::string
    inputDesc() const override
    {
        return std::to_string(n_) + "x" + std::to_string(n_) +
               " matrix (doubles), 16x16 blocks";
    }

  private:
    static constexpr unsigned blockDim = 16;
    static constexpr unsigned elemWords = 2; //!< double
    static constexpr unsigned blockWords =
        blockDim * blockDim * elemWords;

    Addr
    blockBase(unsigned i, unsigned j) const
    {
        // Contiguous (aligned) block layout: no false sharing.
        return base_ + (static_cast<Addr>(i) * nb_ + j) * blockWords *
                           bytesPerWord;
    }

    /** SPLASH 2D-scatter block-to-core assignment over the mesh. */
    CoreId
    ownerOf(unsigned i, unsigned j) const
    {
        return (i % topo().meshY()) * topo().meshX() +
               (j % topo().meshX());
    }

    Addr
    blockElem(unsigned i, unsigned j, unsigned bi, unsigned bj) const
    {
        return blockBase(i, j) +
               (static_cast<Addr>(bi) * blockDim + bj) * elemWords *
                   bytesPerWord;
    }

    void
    readBlock(TraceSink &out, CoreId c, unsigned i, unsigned j) const
    {
        for (unsigned w = 0; w < blockWords; ++w)
            out.load(c, blockBase(i, j) + w * bytesPerWord);
    }

    void
    rmwBlock(TraceSink &out, CoreId c, unsigned i, unsigned j) const
    {
        for (unsigned w = 0; w < blockWords; ++w) {
            out.load(c, blockBase(i, j) + w * bytesPerWord);
            out.store(c, blockBase(i, j) + w * bytesPerWord);
        }
    }

    /** Factor the diagonal block: only its lower triangle is touched,
     *  so the upper-triangular words become Evict waste. */
    void
    factorDiag(TraceSink &out, CoreId c, unsigned k) const
    {
        for (unsigned bi = 0; bi < blockDim; ++bi) {
            for (unsigned bj = 0; bj <= bi; ++bj) {
                for (unsigned w = 0; w < elemWords; ++w) {
                    out.load(c, blockElem(k, k, bi, bj) + w * bytesPerWord);
                    out.store(c,
                              blockElem(k, k, bi, bj) + w * bytesPerWord);
                }
            }
            out.work(c, blockDim);
        }
    }

    Phases
    generate(TraceSink &out) const override
    {
        // Warm-up (non-iterative): core 0 touches the matrix, one
        // word per line.
        const Addr bytes = static_cast<Addr>(n_) * n_ * elemWords *
                           bytesPerWord;
        for (Addr off = 0; off < bytes; off += bytesPerLine)
            out.load(0, base_ + off);
        co_await out.barrierAll();
        out.epochAll();

        for (unsigned k = 0; k < nb_; ++k) {
            // 1. Factor the diagonal block.
            factorDiag(out, ownerOf(k, k), k);
            co_await out.barrierAll(blockRegion_[k * nb_ + k]);

            // 2. Perimeter blocks: read the diagonal, update own.
            std::vector<RegionId> inv;
            for (unsigned i = k + 1; i < nb_; ++i) {
                const CoreId c1 = ownerOf(i, k);
                readBlock(out, c1, k, k);
                rmwBlock(out, c1, i, k);
                out.work(c1, blockDim * blockDim);
                inv.push_back(blockRegion_[i * nb_ + k]);

                const CoreId c2 = ownerOf(k, i);
                readBlock(out, c2, k, k);
                rmwBlock(out, c2, k, i);
                out.work(c2, blockDim * blockDim);
                inv.push_back(blockRegion_[k * nb_ + i]);
            }
            co_await out.barrierAll(inv);

            // 3. Interior updates: A[i][j] -= A[i][k] * A[k][j].
            inv.clear();
            for (unsigned i = k + 1; i < nb_; ++i) {
                for (unsigned j = k + 1; j < nb_; ++j) {
                    const CoreId c = ownerOf(i, j);
                    readBlock(out, c, i, k);
                    readBlock(out, c, k, j);
                    rmwBlock(out, c, i, j);
                    out.work(c, blockDim * blockDim);
                    inv.push_back(blockRegion_[i * nb_ + j]);
                }
            }
            co_await out.barrierAll(inv);
        }
    }

    unsigned n_, nb_;
    Addr base_;
    std::vector<RegionId> blockRegion_;
};

} // namespace

std::unique_ptr<Workload>
makeLu(unsigned scale, Topology topo)
{
    return std::make_unique<LuWorkload>(scale, std::move(topo));
}

} // namespace wastesim
