/**
 * @file
 * Layer drivers: one timed loop per simulator layer, each driving the
 * layer only through its public functions and checking its output.
 */

#include "layers.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <memory>
#include <unistd.h>

#include "bloom/bloom_filter.hh"
#include "bloom/h3.hh"
#include "cache/cache_array.hh"
#include "common/rng.hh"
#include "common/sharer_mask.hh"
#include "dram/dram_channel.hh"
#include "fuzz/invariants.hh"
#include "noc/network.hh"
#include "profile/mem_profiler.hh"
#include "profile/traffic.hh"
#include "sim/event_queue.hh"
#include "system/system.hh"
#include "trace/synthetic.hh"

using namespace wastesim;

namespace suite
{

namespace
{

using Clock = std::chrono::steady_clock;

constexpr unsigned repeats = 5;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

void
require(bool ok, const char *what)
{
    if (!ok) {
        std::fprintf(stderr, "layer driver check failed: %s\n", what);
        std::exit(1);
    }
}

/** Median of @p repeats calls of @p fn, each returning one value. */
template <typename Fn>
double
medianOf(Fn &&fn)
{
    std::vector<double> v;
    for (unsigned i = 0; i < repeats; ++i)
        v.push_back(fn());
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
}

double
nsPer(double secs, std::uint64_t ops)
{
    return secs * 1e9 / static_cast<double>(ops);
}

// --- sim --------------------------------------------------------------------

/** Self-rescheduling actors over the simulator's sparse delay mix
 *  (core step to write-combine timeout); ns per executed event. */
double
queueSparseNs(std::uint64_t events)
{
    static constexpr Tick delays[] = {1, 3, 8, 20, 150, 500, 10000};
    static constexpr unsigned numDelays = std::size(delays);

    EventQueue eq;
    std::uint64_t remaining = events;
    struct Actor
    {
        EventQueue *eq;
        std::uint64_t *remaining;
        unsigned phase;

        void
        operator()()
        {
            if (*remaining == 0)
                return;
            --*remaining;
            const Tick d = delays[phase % numDelays];
            ++phase;
            eq->schedule(d, Actor{*this});
        }
    };
    for (unsigned a = 0; a < 4096; ++a)
        eq.schedule(a % numDelays, Actor{&eq, &remaining, a});

    const auto t0 = Clock::now();
    eq.run();
    const double secs = secondsSince(t0);
    require(remaining == 0 && eq.pending() == 0, "sparse queue drained");
    return nsPer(secs, eq.executed());
}

/**
 * Buckets of 64 same-tick events from 64 distinct source tiles: every
 * bucket goes through the canonical-key sorted drain.  Each actor
 * moves to a new tile every round (a full-period permutation of the 64
 * tiles), so a bucket's chain never arrives in key order.
 */
double
queueBurstNs(std::uint64_t events)
{
    static constexpr unsigned width = 64;  // events per bucket
    static constexpr unsigned groups = 16; // buckets in flight

    EventQueue eq;
    std::uint64_t remaining = events;
    struct Actor
    {
        EventQueue *eq;
        std::uint64_t *remaining;

        void
        operator()()
        {
            if (*remaining == 0)
                return;
            --*remaining;
            const auto next = static_cast<std::uint16_t>(
                (eq->contextTile() * 5 + 1) % width);
            eq->scheduleFor(eq->now() + groups, next, Actor{*this});
        }
    };
    for (unsigned g = 0; g < groups; ++g) {
        for (unsigned i = 0; i < width; ++i) {
            eq.setContextTile(static_cast<std::uint16_t>(i));
            eq.scheduleFor(g, static_cast<std::uint16_t>(i),
                           Actor{&eq, &remaining});
        }
    }

    const auto t0 = Clock::now();
    eq.run();
    const double secs = secondsSince(t0);
    require(remaining == 0 && eq.pending() == 0, "burst queue drained");
    return nsPer(secs, eq.executed());
}

// --- noc --------------------------------------------------------------------

class CountingSink : public MessageHandler
{
  public:
    void handle(Message) override { ++received; }

    std::uint64_t received = 0;
};

/** Network::send plus delivery on a dim x dim mesh: half L1->L2
 *  control requests, half L2->L1 full-line data responses. */
double
nocSendNs(unsigned dim, std::uint64_t msgs)
{
    const Topology topo(dim, dim);
    const unsigned tiles = topo.numTiles();
    EventQueue eq;
    TrafficRecorder tr;
    Network net(eq, tr, 3, topo);
    CountingSink sink;
    for (unsigned t = 0; t < tiles; ++t) {
        net.attach(l1Ep(t), &sink);
        net.attach(l2Ep(t), &sink);
    }

    Rng rng(dim);
    std::vector<Message> pop(256);
    for (std::size_t i = 0; i < pop.size(); ++i) {
        Message &m = pop[i];
        const auto a = static_cast<unsigned>(rng.below(tiles));
        const auto b = static_cast<unsigned>(rng.below(tiles));
        m.line = (Addr{1} << 20) + i * bytesPerLine;
        m.cls = TrafficClass::Load;
        if (i % 2 == 0) {
            m.kind = MsgKind::GetS;
            m.src = l1Ep(a);
            m.dst = l2Ep(b);
            m.ctl = CtlType::ReqCtl;
        } else {
            m.kind = MsgKind::Data;
            m.src = l2Ep(a);
            m.dst = l1Ep(b);
            m.ctl = CtlType::RespCtl;
            m.chunks.emplace_back(m.line, WordMask::full());
        }
    }

    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < msgs; ++i) {
        net.send(pop[i % pop.size()]);
        if (i % 1024 == 1023)
            eq.run();
    }
    eq.run();
    const double secs = secondsSince(t0);
    require(sink.received == msgs, "every message delivered");
    require(net.totalLinkFlits() == net.flitHopsCharged(),
            "link flits conserved");
    return nsPer(secs, msgs);
}

// --- protocol ---------------------------------------------------------------

/** System::run ns per load/store of @p proto on synthetic @p sp
 *  (4x4, scaled hierarchy). */
double
protocolNs(ProtocolName proto, const SynthParams &sp)
{
    const SimParams params = SimParams::scaled();
    const auto wl = makeSynthetic(sp, params.topo);
    std::uint64_t loads = 0, stores = 0;
    workloadOpCounts(*wl, loads, stores);
    return medianOf([&] {
        System sys(proto, *wl, params, 1);
        const auto t0 = Clock::now();
        const RunResult r = sys.run();
        const double secs = secondsSince(t0);
        InvariantReport rep;
        checkSystemInvariants(sys, *wl, r, rep);
        require(rep.ok(), "protocol driver invariants");
        return nsPer(secs, loads + stores);
    });
}

/** Every access a load of a core's private 1 KiB (L1-resident). */
SynthParams
allHitSynth(bool smoke)
{
    SynthParams p;
    p.pattern = SynthParams::Pattern::Stride;
    p.opsPerCore = smoke ? 1024 : 16384;
    p.phases = 1;
    p.sharedRegions = 1;
    p.regionBytes = bytesPerLine;
    p.sharedFraction = 0;
    p.privateBytes = 1024;
    p.strideWords = 1;
    p.readFraction = 1.0;
    p.workCycles = 0;
    return p;
}

/** Every access a store to one 1 KiB region all 16 cores share. */
SynthParams
sharedWriteSynth(bool smoke)
{
    SynthParams p;
    p.pattern = SynthParams::Pattern::Random;
    p.opsPerCore = smoke ? 128 : 1024;
    p.phases = 1;
    p.sharedRegions = 1;
    p.regionBytes = 1024;
    p.sharingDegree = numTiles;
    p.sharedFraction = 1.0;
    p.privateBytes = bytesPerLine;
    p.readFraction = 0.0;
    p.workCycles = 0;
    return p;
}

// --- cache, bloom, common ---------------------------------------------------

/** CacheArray::find on a full 64-set x 8-way array, half hits. */
double
cacheFindNs(std::uint64_t ops)
{
    CacheArray arr(64, 8);
    constexpr unsigned resident = 64 * 8;
    for (unsigned n = 0; n < resident; ++n) {
        const Addr la = Addr{n} * bytesPerLine;
        CacheLine *cl = arr.victimFor(la);
        arr.resetTo(*cl, la);
    }
    Rng rng(11);
    std::vector<Addr> probes(4096);
    for (Addr &a : probes)
        a = rng.below(2 * resident) * bytesPerLine;
    std::uint64_t expected = 0;
    for (std::uint64_t i = 0; i < ops; ++i)
        expected += probes[i % probes.size()] < resident * bytesPerLine;

    std::uint64_t hits = 0;
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < ops; ++i)
        hits += arr.find(probes[i % probes.size()]) != nullptr;
    const double secs = secondsSince(t0);
    require(hits == expected, "cache find hits");
    return nsPer(secs, ops);
}

/** victimFor + resetTo + touch: one fill of a never-seen line. */
double
cacheFillNs(std::uint64_t ops)
{
    CacheArray arr(64, 8);
    const auto t0 = Clock::now();
    for (std::uint64_t n = 0; n < ops; ++n) {
        const Addr la = n * bytesPerLine;
        CacheLine *cl = arr.victimFor(la);
        require(cl != nullptr, "cache victim");
        arr.resetTo(*cl, la);
        arr.touch(*cl);
    }
    const double secs = secondsSince(t0);
    require(arr.find((ops - 1) * bytesPerLine) != nullptr,
            "last fill resident");
    return nsPer(secs, ops);
}

/** Counting Bloom filter insert, query, remove; ns per call. */
double
bloomNs(std::uint64_t rounds)
{
    const H3Hash hash(9, 0x5eed);
    CountingBloomFilter f(hash);
    Rng rng(13);
    std::vector<std::uint64_t> keys(4096);
    for (auto &k : keys)
        k = rng.next();

    std::uint64_t hits = 0;
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < rounds; ++i) {
        const std::uint64_t k = keys[i % keys.size()];
        f.insert(k);
        hits += f.maybeContains(k);
        f.remove(k);
    }
    const double secs = secondsSince(t0);
    require(hits == rounds, "bloom never misses an inserted key");
    return nsPer(secs, 3 * rounds);
}

/** SharerMask::forEachSet over 256 tiles, sharer counts uniform in
 *  [0, 256]: one MESI-directory invalidation walk at 16x16. */
double
sharerScanNs(std::uint64_t scans)
{
    constexpr unsigned tiles = 256;
    Rng rng(17);
    std::vector<SharerMask> masks(256);
    std::uint64_t per_pass = 0;
    for (auto &m : masks) {
        const auto sharers = rng.below(tiles + 1);
        for (std::uint64_t s = 0; s < sharers; ++s)
            m.set(static_cast<unsigned>(rng.below(tiles)));
        for (unsigned c = 0; c < tiles; ++c)
            if (m.test(c))
                per_pass += c;
    }
    require(scans % masks.size() == 0, "whole mask passes");

    std::uint64_t sum = 0;
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < scans; ++i)
        masks[i % masks.size()].forEachSet(tiles,
                                           [&](CoreId c) { sum += c; });
    const double secs = secondsSince(t0);
    require(sum == per_pass * (scans / masks.size()), "sharer scan sum");
    return nsPer(secs, scans);
}

// --- dram -------------------------------------------------------------------

/**
 * DramChannel enqueue-to-completion in batches of 16 reads: all to
 * one open row (row hits), or each to a new row of one bank (row
 * conflicts).  Host ns per request.
 */
double
dramReqNs(bool row_hit, std::uint64_t reqs)
{
    EventQueue eq;
    const DramMap map;
    DramChannel ch(eq, map, 0);
    const Addr lpr = map.timing.linesPerRow;
    const Addr banks = map.timing.totalBanks();
    std::uint64_t done = 0;

    const auto t0 = Clock::now();
    for (std::uint64_t n = 0; n < reqs; ++n) {
        const Addr local = row_hit ? n % lpr : (n % 1024) * lpr * banks;
        DramRequest r;
        r.line = local * map.numChannels * bytesPerLine;
        r.onDone = [&done](Tick) { ++done; };
        ch.enqueue(std::move(r));
        if (n % 16 == 15)
            eq.run();
    }
    eq.run();
    const double secs = secondsSince(t0);
    require(done == reqs, "every DRAM request completed");
    require(row_hit ? ch.rowHits() + 1 >= reqs : ch.rowHits() == 0,
            "DRAM row-hit pattern");
    return nsPer(secs, reqs);
}

// --- profile ----------------------------------------------------------------

/** One word instance's life: create, addRef, used, dropRef. */
double
memInstNs(std::uint64_t n)
{
    MemProfiler p;
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < n; ++i) {
        const InstId id = p.create(i, false);
        p.addRef(id);
        p.used(id);
        p.dropRef(id, false);
    }
    const double secs = secondsSince(t0);
    require(p.finalize()[WasteCat::Used] == static_cast<double>(n),
            "every instance classified Used");
    return nsPer(secs, n);
}

std::size_t
residentBytes()
{
    std::ifstream statm("/proc/self/statm");
    std::size_t size = 0, resident = 0;
    statm >> size >> resident;
    return resident * static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
}

/** Resident-set growth per instance a fresh MemProfiler creates. */
double
memBytesPerInst(std::uint64_t n)
{
    auto p = std::make_unique<MemProfiler>();
    const std::size_t before = residentBytes();
    for (std::uint64_t i = 0; i < n; ++i)
        p->addRef(p->create(i, false));
    const std::size_t after = residentBytes();
    require(p->numInstances() == n, "instances created");
    return static_cast<double>(after - std::min(after, before)) /
           static_cast<double>(n);
}

} // namespace

std::vector<LayerMetric>
runLayerDrivers(bool smoke)
{
    // Full sizes keep each repeat well above timer resolution; smoke
    // sizes only prove every driver runs and checks its output.
    const std::uint64_t k = smoke ? 1 : 20;
    std::vector<LayerMetric> out;
    auto ns = [&out](const char *name, double v) {
        out.push_back(LayerMetric{name, "ns", v});
    };

    ns("sim.queue_op_ns", medianOf([&] { return queueSparseNs(k * 100000); }));
    ns("sim.queue_burst_op_ns",
       medianOf([&] { return queueBurstNs(k * 100000); }));

    ns("noc.send_op_ns.4x4", medianOf([&] { return nocSendNs(4, k * 50000); }));
    ns("noc.send_op_ns.16x16",
       medianOf([&] { return nocSendNs(16, k * 50000); }));

    for (ProtocolName p : {ProtocolName::MESI, ProtocolName::DeNovo}) {
        const std::string name = protocolName(p);
        ns(("protocol.hit_op_ns." + name).c_str(),
           protocolNs(p, allHitSynth(smoke)));
        ns(("protocol.shared_write_op_ns." + name).c_str(),
           protocolNs(p, sharedWriteSynth(smoke)));
    }

    ns("cache.find_op_ns", medianOf([&] { return cacheFindNs(k * 500000); }));
    ns("cache.fill_op_ns", medianOf([&] { return cacheFillNs(k * 200000); }));
    ns("bloom.op_ns", medianOf([&] { return bloomNs(k * 200000); }));
    ns("common.sharer_scan_ns.256",
       medianOf([&] { return sharerScanNs(k * 51200); }));

    ns("dram.req_ns.row_hit",
       medianOf([&] { return dramReqNs(true, k * 50000); }));
    ns("dram.req_ns.row_miss",
       medianOf([&] { return dramReqNs(false, k * 50000); }));

    ns("profile.mem_inst_op_ns",
       medianOf([&] { return memInstNs(k * 100000); }));
    out.push_back(LayerMetric{"profile.mem_bytes_per_inst", "B",
                              memBytesPerInst(k * 200000)});
    return out;
}

} // namespace suite
