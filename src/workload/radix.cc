/**
 * @file
 * Parallel radix sort (SPLASH-2 radix, Table 4.2: 4 M keys, radix
 * 1024; scaled down).
 *
 * Paper-relevant properties reproduced:
 *  - the permutation phase writes to up to 1024 scattered buckets,
 *    more lines than the L1 holds: Evict waste under fetch-on-write
 *    and write-combining capacity splits for DeNovo (Section 5.2.2);
 *  - keys are read exactly once per phase (bypass type 2);
 *  - the destination array is produced in one phase and consumed in
 *    the next (not bypassed).
 */

#include "common/rng.hh"
#include "workload/workload.hh"

namespace wastesim
{

namespace
{

class RadixWorkload : public Workload
{
  public:
    RadixWorkload(unsigned scale, Topology topo)
        : Workload(std::move(topo))
    {
        nKeys_ = 65536 * scale;
        const Addr key_bytes = static_cast<Addr>(nKeys_) * bytesPerWord;

        srcBase_ = alloc(key_bytes);
        dstBase_ = alloc(key_bytes);
        histBase_ = alloc(static_cast<Addr>(numCores()) * radix_ *
                          bytesPerWord);
        globalBase_ = alloc(static_cast<Addr>(radix_) * bytesPerWord);

        Region src;
        src.name = "radix.keys";
        src.base = srcBase_;
        src.size = key_bytes;
        src.bypass = true; // read once per phase
        src.stream = true;
        srcId_ = regions_.add(src);

        Region dst;
        dst.name = "radix.dest";
        dst.base = dstBase_;
        dst.size = key_bytes;
        dstId_ = regions_.add(dst);

        Region hist;
        hist.name = "radix.hist";
        hist.base = histBase_;
        hist.size = static_cast<Addr>(numCores()) * radix_ *
                    bytesPerWord;
        histId_ = regions_.add(hist);

        Region glob;
        glob.name = "radix.global";
        glob.base = globalBase_;
        glob.size = static_cast<Addr>(radix_) * bytesPerWord;
        globId_ = regions_.add(glob);
    }

    std::string name() const override { return "radix"; }

    std::string
    inputDesc() const override
    {
        return std::to_string(nKeys_ / 1024) + "K keys, radix " +
               std::to_string(radix_);
    }

  private:
    static constexpr unsigned radix_ = 1024;

    Addr
    keyAddr(Addr base, Addr idx) const
    {
        return base + idx * bytesPerWord;
    }

    /** First key of core @p c's balanced contiguous share. */
    Addr
    keyStart(CoreId c) const
    {
        return nKeys_ * c / numCores();
    }

    /** First digit of core @p c's balanced reduction range. */
    unsigned
    digitStart(CoreId c) const
    {
        return static_cast<unsigned>(
            static_cast<std::uint64_t>(radix_) * c / numCores());
    }

    /** One counting-sort pass over (from -> to). */
    Phases
    pass(TraceSink &out, Addr from, Addr to, std::uint64_t seed) const
    {
        const unsigned cores = numCores();

        // Per-core bucket cursors: where each digit's next key goes.
        // Buckets are contiguous digit-major runs in the destination,
        // with per-core sub-runs, exactly like SPLASH's layout.
        std::vector<std::vector<Addr>> cursor(
            cores, std::vector<Addr>(radix_));
        {
            // Precompute digit counts deterministically.
            std::vector<std::vector<Addr>> count(
                cores, std::vector<Addr>(radix_, 0));
            for (CoreId c = 0; c < cores; ++c) {
                Rng rng(seed ^ (0x517cc1b7ULL * (c + 1)));
                const Addr n = keyStart(c + 1) - keyStart(c);
                for (Addr i = 0; i < n; ++i)
                    ++count[c][rng.below(radix_)];
            }
            Addr off = 0;
            for (unsigned d = 0; d < radix_; ++d) {
                for (CoreId c = 0; c < cores; ++c) {
                    cursor[c][d] = off;
                    off += count[c][d];
                }
            }
        }

        // Phase 1: local histogram (keys streamed once).
        for (CoreId c = 0; c < cores; ++c) {
            const Addr k0 = keyStart(c);
            const Addr per_core = keyStart(c + 1) - k0;
            for (Addr i = 0; i < per_core; ++i) {
                out.load(c, keyAddr(from, k0 + i));
                out.work(c, 1);
                if (i % 4 == 0) {
                    // Local histogram update (private, L1-resident).
                    const Addr h = histBase_ +
                                   (static_cast<Addr>(c) * radix_ +
                                    i % radix_) *
                                       bytesPerWord;
                    out.load(c, h);
                    out.store(c, h);
                }
            }
        }
        co_await out.barrierAll(histId_);

        // Phase 2: global histogram: each core reduces its digit
        // range across all cores' local histograms.
        for (CoreId c = 0; c < cores; ++c) {
            for (unsigned d = digitStart(c); d < digitStart(c + 1);
                 ++d) {
                for (CoreId o = 0; o < cores; ++o) {
                    out.load(c, histBase_ +
                                    (static_cast<Addr>(o) * radix_ + d) *
                                        bytesPerWord);
                }
                out.store(c, globalBase_ + static_cast<Addr>(d) *
                                               bytesPerWord);
                out.work(c, 4);
            }
        }
        co_await out.barrierAll(globId_, histId_);

        // Phase 3: permutation — scattered writes over up to 1024
        // open buckets per core.
        for (CoreId c = 0; c < cores; ++c) {
            Rng rng(seed ^ (0x517cc1b7ULL * (c + 1)));
            const Addr k0 = keyStart(c);
            const Addr per_core = keyStart(c + 1) - k0;
            for (Addr i = 0; i < per_core; ++i) {
                out.load(c, keyAddr(from, k0 + i));
                const unsigned d =
                    static_cast<unsigned>(rng.below(radix_));
                out.store(c, keyAddr(to, cursor[c][d]++));
                out.work(c, 1);
            }
        }
        co_await out.barrierAll(from == srcBase_ ? dstId_ : srcId_);
    }

    Phases
    generate(TraceSink &out) const override
    {
        // Warm-up iteration (radix is iterative), then measure one
        // full pass streaming the bypassed key array.
        co_await pass(out, dstBase_, srcBase_, 0xabcdefULL);
        out.epochAll();
        co_await pass(out, srcBase_, dstBase_, 0x123457ULL);
    }

    Addr nKeys_;
    Addr srcBase_, dstBase_, histBase_, globalBase_;
    RegionId srcId_, dstId_, histId_, globId_;
};

} // namespace

std::unique_ptr<Workload>
makeRadix(unsigned scale, Topology topo)
{
    return std::make_unique<RadixWorkload>(scale, std::move(topo));
}

} // namespace wastesim
