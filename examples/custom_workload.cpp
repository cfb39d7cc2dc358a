/**
 * Custom workload: shows the public API for writing your own
 * benchmark — regions (for self-invalidation), a Flex communication
 * region, and a bypass region — then compares protocols on it.
 *
 * The workload is a toy particle pipeline:
 *   phase 1: every core updates its own slab of particles
 *            (AoS structs, only some fields used -> Flex);
 *   phase 2: every core streams a big lookup table once (-> bypass);
 *   phase 3: neighbors read each other's particle positions.
 */

#include <cstdio>

#include "common/stats.hh"
#include "system/runner.hh"
#include "workload/workload.hh"

using namespace wastesim;

namespace
{

class ParticlePipeline : public Workload
{
  public:
    ParticlePipeline()
    {
        // 2048 particles x 24-word structs; phase uses 8 fields.
        nParticles_ = 2048;
        particleBase_ = alloc(nParticles_ * 24 * bytesPerWord);
        Region particles;
        particles.name = "particles";
        particles.base = particleBase_;
        particles.size = nParticles_ * 24 * bytesPerWord;
        particles.flex = true;
        particles.strideWords = 24;
        particles.usedFields = {0, 1, 2, 3, 4, 5, 6, 7};
        particlesId_ = regions_.add(particles);

        // A 512 KB lookup table, streamed once per iteration.
        tableWords_ = 128 * 1024;
        tableBase_ = alloc(tableWords_ * bytesPerWord);
        Region table;
        table.name = "lookup";
        table.base = tableBase_;
        table.size = tableWords_ * bytesPerWord;
        table.bypass = true;
        table.stream = true;
        tableId_ = regions_.add(table);
    }

    std::string name() const override { return "particle-pipeline"; }
    std::string inputDesc() const override { return "custom demo"; }

    /** Each run streams this, one barrier phase at a time. */
    Phases
    generate(TraceSink &out) const override
    {
        co_await iteration(out); // warm-up iteration
        out.epochAll();
        co_await iteration(out); // measured iteration
    }

  private:
    Addr
    field(unsigned p, unsigned f) const
    {
        return particleBase_ + (p * 24 + f) * bytesPerWord;
    }

    Phases
    iteration(TraceSink &out) const
    {
        const unsigned per_core = nParticles_ / numTiles;

        // Phase 1: update own particles (read pos, write vel).
        for (CoreId c = 0; c < numTiles; ++c) {
            for (unsigned i = 0; i < per_core; ++i) {
                const unsigned p = c * per_core + i;
                for (unsigned f = 0; f < 4; ++f)
                    out.load(c, field(p, f));
                for (unsigned f = 4; f < 8; ++f)
                    out.store(c, field(p, f));
                out.work(c, 4);
            }
        }
        co_await out.barrierAll(particlesId_);

        // Phase 2: stream the lookup table (each core a slice).
        const Addr words_per_core = tableWords_ / numTiles;
        for (CoreId c = 0; c < numTiles; ++c) {
            for (Addr w = 0; w < words_per_core; w += 2)
                out.load(c, tableBase_ +
                                (c * words_per_core + w) * bytesPerWord);
        }
        co_await out.barrierAll();

        // Phase 3: read the next core's particle positions.
        for (CoreId c = 0; c < numTiles; ++c) {
            const CoreId n = (c + 1) % numTiles;
            for (unsigned i = 0; i < per_core; i += 4) {
                const unsigned p = n * per_core + i;
                for (unsigned f = 0; f < 4; ++f)
                    out.load(c, field(p, f));
                out.work(c, 2);
            }
        }
        co_await out.barrierAll(particlesId_);
    }

    unsigned nParticles_;
    Addr particleBase_, tableBase_, tableWords_;
    RegionId particlesId_, tableId_;
};

} // namespace

int
main()
{
    ParticlePipeline wl;
    std::printf("custom workload '%s': %zu ops, %zu regions\n\n",
                wl.name().c_str(), wl.totalOps(),
                wl.regions().numRegions());

    TextTable t;
    t.header({"Protocol", "Traffic", "vs MESI", "Mem words",
              "Exec cycles"});
    double base = 0;
    for (ProtocolName p :
         {ProtocolName::MESI, ProtocolName::DeNovo,
          ProtocolName::DFlexL1, ProtocolName::DValidateL2,
          ProtocolName::DBypL2, ProtocolName::DBypFull}) {
        const RunResult r = runOne(p, wl, SimParams::scaled());
        if (p == ProtocolName::MESI)
            base = r.traffic.total();
        t.row({protocolName(p), fixed(r.traffic.total(), 0),
               pct(r.traffic.total() / base),
               fixed(r.memWaste.total(), 0),
               std::to_string(r.cycles)});
    }
    std::printf("%s", t.render().c_str());
    return 0;
}
