/**
 * @file
 * Test helper: a Workload whose traces are scripted directly by the
 * test body (and a random-traffic generator for property tests).
 */

#ifndef WASTESIM_TESTS_SCRIPT_WORKLOAD_HH
#define WASTESIM_TESTS_SCRIPT_WORKLOAD_HH

#include "common/rng.hh"
#include "workload/workload.hh"

namespace wastesim
{

/** A workload scripted by hand in a test: a one-window stream. */
class ScriptWorkload : public HeldWorkload
{
  public:
    std::string name() const override { return "script"; }
    std::string inputDesc() const override { return "scripted"; }

    using Workload::alloc;

    void
    load(CoreId c, Addr a)
    {
        whole_.traces[c].push_back(Op{Op::Type::Load, a, 0});
    }

    void
    store(CoreId c, Addr a)
    {
        whole_.traces[c].push_back(Op{Op::Type::Store, a, 0});
    }

    void
    work(CoreId c, std::uint32_t cycles)
    {
        if (cycles > 0)
            whole_.traces[c].push_back(Op{Op::Type::Work, 0, cycles});
    }

    void
    epochAll()
    {
        for (Trace &t : whole_.traces)
            t.push_back(Op{Op::Type::Epoch, 0, 0});
    }

    void
    barrierAll(std::vector<RegionId> self_invalidate)
    {
        std::vector<CoreId> all(numCores());
        for (CoreId c = 0; c < numCores(); ++c)
            all[c] = c;
        barrierFor(all, std::move(self_invalidate));
    }

    RegionTable &regionTable() { return regions_; }

    /** The traces and barriers themselves, for raw ops. */
    WholeTraces &script() { return whole_; }

    /** Every core ends with a final barrier (keeps drains clean). */
    void finish() { barrierAll({}); }

    /** A barrier that only @p cores arrive at; unless they are all
     *  cores it can never release (for deadlock tests). */
    void
    barrierFor(const std::vector<CoreId> &cores,
               std::vector<RegionId> self_invalidate = {})
    {
        const auto idx =
            static_cast<std::uint32_t>(whole_.barriers.size());
        whole_.barriers.push_back(BarrierInfo{std::move(self_invalidate)});
        for (CoreId c : cores)
            whole_.traces[c].push_back(Op{Op::Type::Barrier, 0, idx});
    }
};

/**
 * Random DRF-ish workload: each core owns a private slab and all
 * cores share a read-mostly slab; phases separated by barriers with
 * self-invalidation of the shared region.
 */
inline std::unique_ptr<ScriptWorkload>
makeRandomWorkload(std::uint64_t seed, unsigned phases = 3,
                   unsigned ops_per_phase = 300)
{
    auto wl = std::make_unique<ScriptWorkload>();
    const Addr shared = wl->alloc(64 * 1024);
    Region shared_r;
    shared_r.name = "shared";
    shared_r.base = shared;
    shared_r.size = 64 * 1024;
    const RegionId shared_id = wl->regionTable().add(shared_r);

    std::vector<Addr> priv(numTiles);
    for (CoreId c = 0; c < numTiles; ++c) {
        priv[c] = wl->alloc(16 * 1024);
        Region r;
        r.name = "priv" + std::to_string(c);
        r.base = priv[c];
        r.size = 16 * 1024;
        wl->regionTable().add(r);
    }

    Rng rng(seed);
    for (unsigned ph = 0; ph < phases; ++ph) {
        // Writer of the shared slab this phase (keeps it race free).
        const CoreId writer = static_cast<CoreId>(ph % numTiles);
        for (CoreId c = 0; c < numTiles; ++c) {
            Rng crng(seed ^ (c * 0x9e3779b9ULL) ^ ph);
            for (unsigned i = 0; i < ops_per_phase; ++i) {
                const bool use_shared = crng.chance(0.4);
                const Addr base = use_shared ? shared : priv[c];
                const Addr size = use_shared ? 64 * 1024 : 16 * 1024;
                const Addr a =
                    base + (crng.below(size / 4)) * bytesPerWord;
                if (use_shared) {
                    if (c == writer && crng.chance(0.3))
                        wl->store(c, a);
                    else
                        wl->load(c, a);
                } else {
                    if (crng.chance(0.5))
                        wl->store(c, a);
                    else
                        wl->load(c, a);
                }
                if (crng.chance(0.1))
                    wl->work(c, 1 + static_cast<unsigned>(
                                     crng.below(5)));
            }
        }
        wl->barrierAll({shared_id});
    }
    return wl;
}

} // namespace wastesim

#endif // WASTESIM_TESTS_SCRIPT_WORKLOAD_HH
