/**
 * @file
 * Six-step-style FFT (SPLASH-2 FFT, Table 4.2: 256 K points; scaled
 * here to keep the 54-run sweep fast while preserving the
 * dataset-to-cache ratios).
 *
 * Paper-relevant properties reproduced:
 *  - the transpose reads each source element exactly once and fully
 *    overwrites the destination (Write waste under fetch-on-write,
 *    bypass type 2 for the source);
 *  - the row-FFT phases read and then overwrite the same data on the
 *    same core (bypass type 1);
 *  - the dataset exceeds the L2, giving poor L2 reuse.
 */

#include "workload/workload.hh"

namespace wastesim
{

namespace
{

class FftWorkload : public Workload
{
  public:
    FftWorkload(unsigned scale, Topology topo)
        : Workload(std::move(topo))
    {
        // rows x cols complex doubles (4 words each).
        rows_ = 128;
        cols_ = 128 * scale;
        const Addr bytes =
            static_cast<Addr>(rows_) * cols_ * elemWords * bytesPerWord;

        srcBase_ = alloc(bytes);
        dstBase_ = alloc(bytes);

        Region src;
        src.name = "fft.src";
        src.base = srcBase_;
        src.size = bytes;
        src.bypass = true;
        srcId_ = regions_.add(src);

        Region dst;
        dst.name = "fft.dst";
        dst.base = dstBase_;
        dst.size = bytes;
        dst.bypass = true;
        dstId_ = regions_.add(dst);
    }

    std::string name() const override { return "FFT"; }

    std::string
    inputDesc() const override
    {
        return std::to_string(rows_ * cols_ / 1024) +
               "K points (complex doubles), " +
               std::to_string(rows_) + "x" + std::to_string(cols_) +
               " matrix";
    }

  private:
    static constexpr unsigned elemWords = 4; //!< complex double

    Addr
    elemAddr(Addr base, unsigned r, unsigned c) const
    {
        return base +
               (static_cast<Addr>(r) * cols_ + c) * elemWords *
                   bytesPerWord;
    }

    /** First row of core @p c's balanced contiguous slab. */
    unsigned
    rowStart(CoreId c) const
    {
        return static_cast<unsigned>(
            static_cast<std::uint64_t>(rows_) * c / numCores());
    }

    static void
    readElem(TraceSink &out, CoreId core, Addr a)
    {
        for (unsigned w = 0; w < elemWords; ++w)
            out.load(core, a + w * bytesPerWord);
    }

    static void
    writeElem(TraceSink &out, CoreId core, Addr a)
    {
        for (unsigned w = 0; w < elemWords; ++w)
            out.store(core, a + w * bytesPerWord);
    }

    /** Transpose from @p from into @p to, rows partitioned by core. */
    void
    transpose(TraceSink &out, Addr from, Addr to) const
    {
        for (CoreId core = 0; core < numCores(); ++core) {
            for (unsigned r = rowStart(core); r < rowStart(core + 1);
                 ++r) {
                for (unsigned c = 0; c < cols_; ++c) {
                    readElem(out, core, elemAddr(from, r, c));
                    // The destination is written column-major: the
                    // classic strided, fully-overwriting pattern.
                    writeElem(out, core,
                              elemAddr(to, c % rows_,
                                       (c / rows_) * rows_ + r));
                    out.work(core, 1);
                }
            }
        }
    }

    /** In-place row FFT pass: read a row, compute, overwrite it. */
    void
    rowFft(TraceSink &out, Addr base) const
    {
        for (CoreId core = 0; core < numCores(); ++core) {
            for (unsigned r = rowStart(core); r < rowStart(core + 1);
                 ++r) {
                for (unsigned c = 0; c < cols_; ++c)
                    readElem(out, core, elemAddr(base, r, c));
                out.work(core, cols_ * 2);
                for (unsigned c = 0; c < cols_; ++c)
                    writeElem(out, core, elemAddr(base, r, c));
            }
        }
    }

    Phases
    generate(TraceSink &out) const override
    {
        // Warm-up: FFT is not iterative, so one core touches the
        // major data structures (Section 4.3) — one word per line.
        const Addr bytes =
            static_cast<Addr>(rows_) * cols_ * elemWords * bytesPerWord;
        for (Addr off = 0; off < bytes; off += bytesPerLine) {
            out.load(0, srcBase_ + off);
            out.load(0, dstBase_ + off);
        }
        co_await out.barrierAll();
        out.epochAll();

        transpose(out, srcBase_, dstBase_);
        co_await out.barrierAll(dstId_);
        rowFft(out, dstBase_);
        co_await out.barrierAll(dstId_);
        transpose(out, dstBase_, srcBase_);
        co_await out.barrierAll(srcId_);
    }

    unsigned rows_, cols_;
    Addr srcBase_, dstBase_;
    RegionId srcId_, dstId_;
};

} // namespace

std::unique_ptr<Workload>
makeFft(unsigned scale, Topology topo)
{
    return std::make_unique<FftWorkload>(scale, std::move(topo));
}

} // namespace wastesim
