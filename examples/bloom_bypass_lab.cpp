/**
 * Bloom bypass lab: pokes at the "L2 Request Bypass" machinery
 * directly — shows the filter copy protocol in action, the
 * conservative behaviour before a copy arrives, and the effect on a
 * streaming workload.
 */

#include <cstdio>

#include "bloom/bloom_bank.hh"
#include "common/stats.hh"
#include "system/runner.hh"
#include "workload/workload.hh"

using namespace wastesim;

namespace
{

class StreamWorkload : public Workload
{
  public:
    explicit StreamWorkload(bool mark_bypass)
    {
        base_ = alloc(bytes_);
        Region r;
        r.name = "stream";
        r.base = base_;
        r.size = bytes_;
        r.bypass = mark_bypass;
        id_ = regions_.add(r);
    }

    std::string name() const override { return "stream"; }
    std::string inputDesc() const override { return "256 KB stream"; }

    Phases
    generate(TraceSink &out) const override
    {
        // Stream the region once per core slab per iteration.
        for (unsigned iter = 0; iter < 2; ++iter) {
            if (iter == 1)
                out.epochAll();
            const Addr per_core = bytes_ / numTiles;
            for (CoreId c = 0; c < numTiles; ++c)
                for (Addr off = 0; off < per_core;
                     off += bytesPerWord) {
                    out.load(c, base_ + c * per_core + off);
                }
            co_await out.barrierAll();
        }
    }

  private:
    static constexpr Addr bytes_ = 256 * 1024;
    Addr base_;
    RegionId id_;
};

} // namespace

int
main()
{
    // Part 1: the raw filter structures.
    std::printf("Part 1: filter mechanics\n");
    BloomBank bank;
    BloomShadow shadow;
    const Addr dirty_line = 1 << 22;
    bank.insert(dirty_line);

    bool need_copy = false;
    bool maybe = shadow.query(dirty_line, need_copy);
    std::printf("  before copy: maybe-dirty=%d need-copy=%d "
                "(conservative)\n",
                maybe, need_copy);

    // Copy every filter image (a real L1 copies them on demand).
    for (NodeId s = 0; s < numTiles; ++s)
        for (unsigned f = 0; f < bloomFiltersPerSlice; ++f)
            shadow.installImage(s, f, bank.image(f));
    maybe = shadow.query(dirty_line, need_copy);
    std::printf("  after copy:  maybe-dirty=%d (true positive)\n",
                maybe);
    maybe = shadow.query(dirty_line + 256 * 64, need_copy);
    std::printf("  clean line:  maybe-dirty=%d need-copy=%d\n\n",
                maybe, need_copy);

    // Part 2: end-to-end effect on a streaming workload.
    std::printf("Part 2: streaming workload, request bypass on/off\n");
    StreamWorkload plain(false), bypassed(true);

    TextTable t;
    t.header({"Config", "LD req ctl", "Bloom overhead",
              "Direct-to-MC", "L2 words fetched"});
    struct Case
    {
        const char *name;
        ProtocolName proto;
        StreamWorkload *wl;
    } cases[] = {
        {"DFlexL2 (no bypass)", ProtocolName::DFlexL2, &plain},
        {"DBypL2 (resp bypass)", ProtocolName::DBypL2, &bypassed},
        {"DBypFull (req bypass)", ProtocolName::DBypFull, &bypassed},
    };
    for (const auto &cs : cases) {
        const RunResult r = runOne(cs.proto, *cs.wl,
                                   SimParams::scaled());
        t.row({cs.name, fixed(r.traffic.ldReqCtl, 0),
               fixed(r.traffic.ohBloom, 0),
               std::to_string(r.bypassDirect),
               fixed(r.l2Waste.total(), 0)});
    }
    std::printf("%s", t.render().c_str());
    return 0;
}
