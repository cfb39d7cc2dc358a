/**
 * Steady-state allocation-freedom tests.
 *
 * The PR-3 kernel contract: once warm, the EventQueue, Network::send
 * and Message paths perform zero heap allocations.  This binary
 * replaces global operator new/delete with counting versions and
 * asserts the counter does not move across a measured steady-state
 * window (pools at their high-water mark, callbacks within the inline
 * capture budget, payloads within the inline chunk capacity).  It
 * also counts bytes, to bound what building a large System allocates,
 * and tracks live bytes, to bound a whole run's heap high water.
 */

#include <gtest/gtest.h>

#include <malloc.h>

#include <algorithm>
#include <array>
#include <cstdlib>
#include <new>
#include <vector>

#include "cache/cache_array.hh"
#include "noc/network.hh"
#include "obs/debug.hh"
#include "obs/observer.hh"
#include "profile/traffic.hh"
#include "profile/word_profiler.hh"
#include "protocol/denovo/write_combine.hh"
#include "protocol/message.hh"
#include "protocol/mesi/mesi_dir.hh"
#include "sim/event_queue.hh"
#include "system/system.hh"
#include "workload/workload.hh"

namespace
{

std::size_t g_news = 0;
std::size_t g_newBytes = 0;
/** Bytes held by live operator-new blocks, and their high water. */
std::size_t g_liveBytes = 0;
std::size_t g_livePeak = 0;

void *
countedNew(std::size_t n)
{
    ++g_news;
    g_newBytes += n;
    void *p = std::malloc(n ? n : 1);
    if (!p)
        throw std::bad_alloc();
    g_liveBytes += malloc_usable_size(p);
    g_livePeak = std::max(g_livePeak, g_liveBytes);
    return p;
}

void
countedDelete(void *p) noexcept
{
    if (p)
        g_liveBytes -= malloc_usable_size(p);
    std::free(p);
}

} // namespace

// Counting global allocator (per-binary replacement).
void *operator new(std::size_t n) { return countedNew(n); }
void *operator new[](std::size_t n) { return countedNew(n); }
void operator delete(void *p) noexcept { countedDelete(p); }
void operator delete[](void *p) noexcept { countedDelete(p); }
void operator delete(void *p, std::size_t) noexcept { countedDelete(p); }
void operator delete[](void *p, std::size_t) noexcept { countedDelete(p); }

namespace wastesim
{

namespace
{

/** Swallow delivered messages. */
class Sink : public MessageHandler
{
  public:
    void handle(Message) override { ++received; }
    std::uint64_t received = 0;
};

Message
makeDataMessage(unsigned src, unsigned dst)
{
    Message m;
    m.kind = MsgKind::Data;
    m.src = l1Ep(src);
    m.dst = l1Ep(dst);
    m.line = 0x1000 + dst * bytesPerLine;
    m.cls = TrafficClass::Load;
    m.ctl = CtlType::RespCtl;
    LineChunk chunk(m.line, WordMask::full());
    chunk.dirty = WordMask::range(0, 4);
    m.chunks.push_back(chunk);
    return m;
}

} // namespace

TEST(AllocFree, EventQueueSteadyState)
{
    EventQueue eq;

    // Warm-up: drive the pool and the overflow heap to their
    // high-water marks with the same pattern measured below.
    struct Actor
    {
        EventQueue *eq;
        std::uint64_t remaining;
        Addr line;   // 48 bytes of captured state: the common
        WordMask m;  // "this + address + mask" protocol closure.

        void
        operator()()
        {
            if (remaining == 0)
                return;
            static constexpr Tick mix[] = {0, 1, 8, 20, 500, 20000};
            const Tick d = mix[remaining % 6];
            eq->schedule(d, Actor{eq, remaining - 1, line + 64, m});
        }
    };
    for (unsigned a = 0; a < 64; ++a)
        eq.schedule(a, Actor{&eq, 2000, 0, WordMask::full()});
    eq.run();

    // Steady state: an identical load must not allocate at all.
    const std::size_t before = g_news;
    for (unsigned a = 0; a < 64; ++a)
        eq.schedule(a, Actor{&eq, 2000, 0, WordMask::full()});
    eq.run();
    const std::size_t after = g_news;
    EXPECT_EQ(after - before, 0u)
        << "EventQueue steady state performed heap allocations";
}

TEST(AllocFree, NetworkSendSteadyState)
{
    EventQueue eq;
    TrafficRecorder traffic;
    Network net(eq, traffic);
    Sink sink;
    for (unsigned t = 0; t < numTiles; ++t)
        net.attach(l1Ep(t), &sink);

    auto blast = [&](unsigned msgs) {
        for (unsigned i = 0; i < msgs; ++i)
            net.send(makeDataMessage(i % numTiles,
                                     (i * 7 + 3) % numTiles));
        eq.run();
    };

    blast(512); // warm the message pool and the event arena

    const std::size_t before = g_news;
    blast(512);
    const std::size_t after = g_news;
    EXPECT_EQ(after - before, 0u)
        << "Network::send steady state performed heap allocations";
    EXPECT_EQ(sink.received, 1024u);
}

TEST(AllocFree, DisabledObservabilityAllocatesNothing)
{
    // The observability sites compiled into the hot path (DPRINTF in
    // Network::send, the thread-local observer check around timeline
    // spans) must cost nothing when disabled: after a round with
    // tracing ON, flags off + no observer must be as allocation-free
    // as a build without the instrumentation.
    EventQueue eq;
    TrafficRecorder traffic;
    Network net(eq, traffic);
    Sink sink;
    for (unsigned t = 0; t < numTiles; ++t)
        net.attach(l1Ep(t), &sink);

    auto blast = [&](unsigned msgs) {
        for (unsigned i = 0; i < msgs; ++i)
            net.send(makeDataMessage(i % numTiles,
                                     (i * 7 + 3) % numTiles));
        eq.run();
    };

    blast(512); // warm pools

    // One traced round proves the sites are live in this binary, not
    // compiled out.
    ASSERT_TRUE(debug::setFlags("noc"));
    std::size_t traced = 0;
    debug::sink = [&](const std::string &) { ++traced; };
    blast(16);
    EXPECT_GT(traced, 0u) << "DPRINTF(Noc) sites not reached";
    debug::clearFlags();
    debug::sink = nullptr;

    ASSERT_EQ(simObserver(), nullptr);
    const std::size_t before = g_news;
    blast(512);
    const std::size_t after = g_news;
    EXPECT_EQ(after - before, 0u)
        << "disabled observability performed heap allocations";
}

TEST(AllocFree, WordProfilerSteadyState)
{
    // A cache cycling fills, loads and evictions over a fixed
    // footprint.  Each word's state lives in its line's state, which
    // the caller holds, so the profiler never allocates, not even on
    // its first call.
    WordProfiler p(WordProfiler::Level::L1);
    constexpr Addr lines = 256;
    std::vector<WordProfiler::LineState> states(lines);
    const std::size_t before = g_news;
    for (unsigned r = 0; r < 66; ++r) {
        for (Addr l = 0; l < lines; ++l) {
            p.arrive(states[l], WordMask::full(), TrafficClass::Load,
                     1 + (l + r) % 7);
            for (unsigned w = 0; w < wordsPerLine; ++w)
                if ((w + r) % 3 == 0)
                    p.load(states[l], w);
            p.evict(states[l]);
        }
    }
    const std::size_t after = g_news;
    EXPECT_EQ(after - before, 0u)
        << "WordProfiler performed heap allocations";
    TrafficStats t;
    EXPECT_EQ(p.finalize(t).total(), 66.0 * lines * wordsPerLine);
}

TEST(AllocFree, WordProfilerStreamingFootprint)
{
    // A cache streaming over a million distinct lines with 64 slots:
    // each line is filled into the slot of the line 64 before it,
    // which is evicted first, and partly read.  However many lines
    // pass through, the profiler allocates nothing from the first op.
    WordProfiler p(WordProfiler::Level::L1);
    constexpr Addr resident = 64;
    constexpr Addr total = 1'000'000;
    std::array<WordProfiler::LineState, resident> slots;
    const std::size_t before = g_news;
    for (Addr next = 0; next < total; ++next) {
        WordProfiler::LineState &s = slots[next % resident];
        if (next >= resident)
            p.evict(s);
        p.arrive(s, WordMask::full(), TrafficClass::Load, 1 + next % 7);
        for (unsigned w = 0; w < wordsPerLine; ++w)
            if ((w + next) % 3 == 0)
                p.load(s, w);
    }
    const std::size_t after = g_news;
    EXPECT_EQ(after - before, 0u)
        << "WordProfiler allocated while streaming";
    TrafficStats t;
    EXPECT_EQ(p.finalize(t).total(),
              static_cast<double>(total * wordsPerLine));
}

TEST(AllocFree, WriteCombineSteadyState)
{
    // Every way an entry leaves the DeNovo write-combining table: a
    // full line, a capacity force-flush, takeLine, a release and a
    // timeout.  The first round brings the table and the event queue
    // to their high water; later rounds must not allocate.
    EventQueue eq;
    std::uint64_t flushed = 0;
    WriteCombineTable wc(eq, 4, 100,
                         [&flushed](Addr, WordMask) { ++flushed; });
    auto round = [&](Addr base) {
        for (unsigned w = 0; w < wordsPerLine; ++w)
            wc.write(base, w);
        for (Addr l = 1; l <= 6; ++l)
            wc.write(base + l * bytesPerLine, 0);
        wc.takeLine(base + 6 * bytesPerLine);
        eq.run(eq.now() + 50);
        wc.flushAll();
        wc.write(base + 7 * bytesPerLine, 1);
        eq.run();
    };
    round(0);
    const std::size_t before = g_news;
    for (Addr r = 1; r <= 8; ++r)
        round(r << 16);
    const std::size_t after = g_news;
    EXPECT_EQ(after - before, 0u)
        << "write-combining steady state performed heap allocations";
    EXPECT_EQ(wc.flushFullLine, 9u);
    EXPECT_EQ(wc.flushCapacity, 18u);
    EXPECT_EQ(wc.flushTimeout, 9u);
    EXPECT_EQ(flushed, 9u * (1 + 2 + 3 + 1));
}

TEST(AllocFree, MessageCopyAndMove)
{
    // A full payload: as many chunks as a packet carries words.
    Message m = makeDataMessage(0, 5);
    m.chunks = Payload();
    for (unsigned i = 0; i < Payload::maxChunks; ++i)
        m.chunks.emplace_back(0x8000 + i * bytesPerLine,
                              WordMask::single(i % wordsPerLine));

    const std::size_t before = g_news;
    Message copy = m;              // full-capacity copy
    Message moved = std::move(copy);
    copy = moved;                  // copy-assign over moved-from
    moved = std::move(copy);       // move-assign back
    const std::size_t after = g_news;
    EXPECT_EQ(after - before, 0u)
        << "Message copy/move allocated despite inline payload";
    EXPECT_EQ(moved.chunks.size(), Payload::maxChunks);
}

TEST(AllocFree, CacheArrayPaysForLinesHeld)
{
    // A scaled L2 slice's geometry holding 4 lines in every set pays
    // for those lines, its tags and its per-set group table, not for
    // all 16 ways of every set.
    constexpr unsigned sets = 32, ways = 16, held = 4;
    const std::size_t eager =
        std::size_t{sets} * ways * (sizeof(MesiDirLine) + sizeof(Addr));
    const std::size_t before = g_newBytes;
    unsigned valid = 0;
    {
        CacheArray<MesiDirLine> a(sets, ways);
        for (unsigned set = 0; set < sets; ++set) {
            for (unsigned t = 0; t < held; ++t) {
                const Addr la = (Addr{t} * sets + set) * bytesPerLine;
                a.resetTo(*a.victimFor(la), la);
            }
        }
        a.forEachValid([&](const MesiDirLine &) { ++valid; });
    }
    EXPECT_EQ(valid, sets * held);
    const std::size_t bytes = g_newBytes - before;
    EXPECT_LE(bytes * 3, eager) << "an array holding " << sets * held
                                << " of " << sets * ways << " lines allocated "
                                << bytes << " of the eager " << eager
                                << " bytes";
}

TEST(AllocFree, System16x16Footprint)
{
    // Building a 256-tile System allocates each cache array's packed
    // tags and per-set group table, but no line storage: a set gets
    // its lines in groups of four ways on the fills that need them.
    // Measured 2.5 MB (MESI) and 2.7 MB (DeNovo), bounded with about
    // 10% margin.  While each of the 512 word profilers built its own
    // 64-slot line table it was 3.8 and 4.0 MB; allocating every
    // array's 256 x 576 L1 and L2 lines up front took 19.4 / 17.3 MB,
    // and 32 MB with a 208-byte line.
    const auto wl = makeBenchmark(BenchmarkName::FFT, 4, Topology(16, 16));
    SimParams params = SimParams::scaled();
    params.topo = Topology(16, 16);
    for (ProtocolName p : {ProtocolName::MESI, ProtocolName::DeNovo}) {
        const std::size_t before = g_newBytes;
        const System sys(p, *wl, params);
        const double mb = (g_newBytes - before) / 1e6;
        EXPECT_LE(mb, 3.0) << protocolName(p) << " System construction "
                            << "allocated " << mb << " MB";
    }
}

TEST(AllocFree, FftMesh16RunHighWater)
{
    // Whole MESI runs of FFT on 16x16.  Every memory instance is
    // created in warm-up, before the epoch, so none keeps a profiler
    // record or a line-head entry, only a 2-byte copy count.  The
    // message pool is a deque of 392-byte messages, so it grows
    // without holding an old and a new array at once; it peaks at
    // 3,459 slots (1.4 MB) at scale 1.  Cache arrays hold storage
    // only for way groups their sets have filled, and each word's
    // waste-profiler state lives in its line.  The live high water is
    // 7.5 MB at scale 1 and 8.8 MB at scale 2 (x86-64, glibc usable
    // sizes), bounded with about 10% margin.  With 1,456-byte
    // messages it was 11.2 and 12.1 MB, with a word-profiler line
    // table per cache 13.0 and 14.5 MB, with every cache line
    // allocated up front 29.1 and 29.5 MB, and with a vector message
    // pool 32.3 and 33.7 MB.
    for (const unsigned scale : {1u, 2u}) {
        const auto wl =
            makeBenchmark(BenchmarkName::FFT, scale, Topology(16, 16));
        SimParams params = SimParams::scaled();
        params.topo = Topology(16, 16);
        const std::size_t base = g_liveBytes;
        g_livePeak = base;
        std::size_t instances = 0;
        {
            System sys(ProtocolName::MESI, *wl, params);
            sys.run();
            instances = sys.memProfiler().numInstances();
        }
        EXPECT_GT(instances, 100'000u * scale);
        const double mb = (g_livePeak - base) / 1e6;
        EXPECT_LE(mb, 9.7) << "FFT MESI run on 16x16 at scale " << scale
                            << " held " << mb
                            << " MB of live heap at its peak";
    }
}

} // namespace wastesim
