/**
 * Differential tests: the waste profilers against their append-only
 * reference models (tests/reference_profilers.hh).
 *
 * Seeded random event streams drive both implementations.
 * WordProfiler keeps each word's state in the line state its caller
 * passes, so the harness holds one per line, as a cache array does.
 * An event covers one word or a random set of a line's words (an
 * eviction covers the whole line), and the reference model gets the
 * same words one by one.  The small footprint streams collide on
 * every word; the streaming ones sweep a window over far more lines
 * than stay resident while a few long-lived stragglers stay put, so
 * open instances straddle the epoch, and sparse memory chunks are
 * evacuated mid-stream.  Every stream crosses one markEpoch; the
 * memory streams re-install closed instances and leave some never
 * installed.  finalize() counts and every traffic bucket must match
 * exactly.
 *
 * Each memory stream also drives a second MemProfiler that was told
 * an epoch is coming, so its warm-up instances keep only a copy
 * count.  It must tally nothing before the epoch, give the same
 * counts() after every op from the epoch on, and the same refs() for
 * every id, warm-up ids in evacuated count chunks included.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <deque>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "profile/mem_profiler.hh"
#include "profile/word_profiler.hh"
#include "reference_profilers.hh"

namespace wastesim
{

namespace
{

constexpr unsigned numSeeds = 40;
constexpr unsigned opsPerStream = 6000;

void
expectSameCounts(const WasteCounts &got, const WasteCounts &want,
                 std::uint64_t seed)
{
    for (unsigned c = 0; c < numWasteCats; ++c)
        EXPECT_EQ(got.byCat[c], want.byCat[c])
            << "seed " << seed << " category "
            << wasteCatName(static_cast<WasteCat>(c));
}

TrafficClass
randomClass(Rng &rng)
{
    static constexpr TrafficClass classes[] = {
        TrafficClass::Load, TrafficClass::Store, TrafficClass::Writeback};
    return classes[rng.below(3)];
}

/**
 * A WordProfiler with one line state per line, as a cache's array
 * holds them, and the reference model fed the same events.
 */
struct WordProfilers
{
    WordProfiler p;
    RefWordProfiler ref;
    std::unordered_map<Addr, WordProfiler::LineState> lines;

    explicit WordProfilers(WordProfiler::Level level)
        : p(level),
          ref(level == WordProfiler::Level::L1 ? RefWordProfiler::Level::L1
                                               : RefWordProfiler::Level::L2)
    {
    }

    /** Both agree on which words of @p line are present. */
    void
    expectSamePresence(Addr line, std::uint64_t seed)
    {
        const WordMask got = lines[line].present();
        for (unsigned w = 0; w < wordsPerLine; ++w)
            ASSERT_EQ(got.test(w), ref.present(line * wordsPerLine + w))
                << "seed " << seed << " line " << line << " word " << w;
    }
};

/** One random profiler event on word @p wn's line, applied to both. */
void
wordOp(WordProfilers &h, Rng &rng, Addr wn)
{
    const Addr line = wn / wordsPerLine;
    const auto w = static_cast<unsigned>(wn % wordsPerLine);
    WordProfiler::LineState &s = h.lines[line];
    RefWordProfiler &ref = h.ref;
    const unsigned hops = 1 + static_cast<unsigned>(rng.below(127));
    const WordMask words =
        rng.chance(0.5)
            ? WordMask::single(w)
            : WordMask(static_cast<std::uint16_t>(rng.below(0x10000)));
    auto each = [line](WordMask m, auto &&fn) {
        for (unsigned i = 0; i < wordsPerLine; ++i)
            if (m.test(i))
                fn(line * wordsPerLine + i);
    };
    switch (rng.below(10)) {
      case 0:
      case 1:
      {
        const TrafficClass cls = randomClass(rng);
        h.p.arrive(s, words, cls, hops);
        each(words, [&](Addr x) { ref.arrive(x, cls, hops); });
        break;
      }
      case 2:
        h.p.arriveUntracked(s, words);
        each(words, [&](Addr x) { ref.arriveUntracked(x); });
        break;
      case 3:
        if (ref.present(wn)) {
            h.p.load(s, w);
            ref.load(wn);
        }
        break;
      case 4:
        h.p.store(s, w);
        ref.store(wn);
        break;
      case 5:
        h.p.respUsed(s, words);
        each(words, [&](Addr x) { ref.respUsed(x); });
        break;
      case 6:
      {
        const TrafficClass cls = randomClass(rng);
        h.p.arriveReplace(s, words, cls, hops);
        each(words, [&](Addr x) { ref.arriveReplace(x, cls, hops); });
        break;
      }
      case 7:
        if (rng.chance(0.5)) {
            h.p.writeKill(s, words);
            each(words, [&](Addr x) { ref.writeKill(x); });
        } else {
            h.p.overwrite(s, words);
            each(words, [&](Addr x) { ref.overwrite(x); });
        }
        break;
      case 8:
        h.p.evict(s);
        each(WordMask::full(), [&](Addr x) { ref.evict(x); });
        break;
      default:
        h.p.invalidate(s, words);
        each(words, [&](Addr x) { ref.invalidate(x); });
        break;
    }
}

/** finalize() both; counts and every traffic bucket must agree. */
void
expectSameFinal(WordProfilers &h, std::uint64_t seed)
{
    // Seed both with the same non-zero buckets, as System::run does
    // when several caches finalize into one TrafficStats.
    TrafficStats got, want;
    got.ldRespL1Used = want.ldRespL1Used = 0.75;
    got.stRespL2Waste = want.stRespL2Waste = 12.5;
    expectSameCounts(h.p.finalize(got), h.ref.finalize(want), seed);
    EXPECT_EQ(std::memcmp(&got, &want, sizeof(TrafficStats)), 0)
        << "seed " << seed;
}

void
runWordStream(WordProfiler::Level level, std::uint64_t seed)
{
    Rng rng(seed);
    WordProfilers h(level);
    // Three lines plus a stray word: collisions on every word are
    // frequent, and the footprint straddles four lines.
    const Addr base = 16 * 1000 + 7;
    const unsigned footprint = 3 * wordsPerLine + 1;
    const unsigned epoch_at = static_cast<unsigned>(
        rng.below(opsPerStream));

    for (unsigned op = 0; op < opsPerStream; ++op) {
        if (op == epoch_at) {
            h.p.markEpoch();
            h.ref.markEpoch();
        }
        const Addr wn = base + rng.below(footprint);
        wordOp(h, rng, wn);
        h.expectSamePresence(wn / wordsPerLine, seed);
        if (::testing::Test::HasFatalFailure())
            return;
    }
    expectSameFinal(h, seed);
}

constexpr unsigned streamSeeds = 12;
constexpr unsigned streamOps = 60000;
/** Lines a streaming cache holds; the stream moves one line ahead
 *  every few events and evicts the line that falls out. */
constexpr Addr windowLines = 24;

/**
 * A cache sweeping a window over 15k lines, plus two straggler lines
 * the window never evicts: their open instances straddle markEpoch.
 * A line leaving the window drops its state, as a freed slot does.
 */
void
runStreamingWordStream(WordProfiler::Level level, std::uint64_t seed)
{
    Rng rng(seed);
    WordProfilers h(level);
    const Addr stragglers = Addr{1} << 30; // far from the window
    const unsigned epoch_at = static_cast<unsigned>(
        streamOps / 4 + rng.below(streamOps / 2));
    Addr head = windowLines;

    for (unsigned op = 0; op < streamOps; ++op) {
        if (op == epoch_at) {
            h.p.markEpoch();
            h.ref.markEpoch();
        }
        if (op % 4 == 0) {
            // The oldest line leaves the cache.
            const Addr gone = head - windowLines;
            h.p.evict(h.lines[gone]);
            for (unsigned w = 0; w < wordsPerLine; ++w)
                h.ref.evict(gone * wordsPerLine + w);
            h.expectSamePresence(gone, seed);
            h.lines.erase(gone);
            ++head;
        }
        const Addr wn =
            rng.chance(0.1)
                ? stragglers + rng.below(2 * wordsPerLine)
                : (head - 1 - rng.below(windowLines)) * wordsPerLine +
                      rng.below(wordsPerLine);
        wordOp(h, rng, wn);
        h.expectSamePresence(wn / wordsPerLine, seed);
        if (::testing::Test::HasFatalFailure())
            return;
    }
    expectSameFinal(h, seed);
}


/**
 * The same memory events, fed to a MemProfiler that keeps a record for
 * every instance, one told that an epoch is coming, and the reference
 * model.  Every call forwards to all three.
 */
struct MemProfilers
{
    MemProfiler p; //!< not told: a record for every instance
    MemProfiler q; //!< told: warm-up instances keep only a copy count
    RefMemProfiler ref;
    std::uint64_t seed;
    bool marked = false;

    explicit MemProfilers(std::uint64_t s) : seed(s) { q.expectEpoch(); }

    InstId
    create(Addr wn, bool present)
    {
        const InstId id = p.create(wn, present);
        EXPECT_EQ(q.create(wn, present), id) << "seed " << seed;
        EXPECT_EQ(ref.create(wn, present), id) << "seed " << seed;
        return id;
    }

    void
    addRef(InstId id)
    {
        p.addRef(id);
        q.addRef(id);
        ref.addRef(id);
    }

    void
    dropRef(InstId id, bool inv)
    {
        p.dropRef(id, inv);
        q.dropRef(id, inv);
        ref.dropRef(id, inv);
    }

    void
    used(InstId id)
    {
        p.used(id);
        q.used(id);
        ref.used(id);
    }

    void
    storeAddr(Addr wn)
    {
        p.storeAddr(wn);
        q.storeAddr(wn);
        ref.storeAddr(wn);
    }

    void
    excess(unsigned nw)
    {
        p.excess(nw);
        q.excess(nw);
        ref.excess(nw);
    }

    void
    markEpoch()
    {
        p.markEpoch();
        q.markEpoch();
        ref.markEpoch();
        marked = true;
        expectSameRefs();
    }

    /** After every op: @p id's copies agree; from the epoch on, so do
     *  the counts, and before it q has tallied nothing. */
    void
    check(InstId id)
    {
        ASSERT_EQ(p.refs(id), ref.refs(id)) << "seed " << seed;
        ASSERT_EQ(q.refs(id), ref.refs(id)) << "seed " << seed;
        const WasteCounts got = q.counts();
        if (marked) {
            const WasteCounts want = p.counts();
            for (unsigned c = 0; c < numWasteCats; ++c)
                ASSERT_EQ(got.byCat[c], want.byCat[c])
                    << "seed " << seed << " category "
                    << wasteCatName(static_cast<WasteCat>(c));
            return;
        }
        ASSERT_EQ(got[WasteCat::Unevicted],
                  static_cast<double>(q.numInstances()))
            << "seed " << seed << ": a warm-up instance was tallied";
    }

    /** Every id's copies agree. */
    void
    expectSameRefs()
    {
        for (std::size_t i = 0; i < ref.numInstances(); ++i) {
            const InstId id = static_cast<InstId>(i);
            ASSERT_EQ(q.refs(id), ref.refs(id))
                << "seed " << seed << " id " << id;
            ASSERT_EQ(p.refs(id), ref.refs(id))
                << "seed " << seed << " id " << id;
        }
    }

    /** Close the run: all three must agree. */
    void
    finish()
    {
        expectSameRefs();
        EXPECT_EQ(p.numInstances(), ref.numInstances());
        EXPECT_EQ(q.numInstances(), ref.numInstances());
        const WasteCounts want = ref.finalize();
        expectSameCounts(p.finalize(), want, seed);
        expectSameCounts(q.finalize(), want, seed);
    }
};

} // namespace

TEST(ProfilerReference, WordProfilerL1MatchesReference)
{
    for (std::uint64_t seed = 1; seed <= numSeeds; ++seed)
        runWordStream(WordProfiler::Level::L1, seed);
}

TEST(ProfilerReference, WordProfilerL2MatchesReference)
{
    for (std::uint64_t seed = 1; seed <= numSeeds; ++seed)
        runWordStream(WordProfiler::Level::L2, 1000 + seed);
}

TEST(ProfilerReference, StreamingWordProfilerL1MatchesReference)
{
    for (std::uint64_t seed = 1; seed <= streamSeeds; ++seed)
        runStreamingWordStream(WordProfiler::Level::L1, 2000 + seed);
}

TEST(ProfilerReference, StreamingWordProfilerL2MatchesReference)
{
    for (std::uint64_t seed = 1; seed <= streamSeeds; ++seed)
        runStreamingWordStream(WordProfiler::Level::L2, 3000 + seed);
}

TEST(ProfilerReference, MemProfilerMatchesReference)
{
    for (std::uint64_t seed = 1; seed <= numSeeds; ++seed) {
        Rng rng(seed);
        MemProfilers m(seed);
        /** One entry per live cache copy. */
        std::vector<InstId> copies;
        const Addr base = 16 * 500 + 3;
        const unsigned footprint = 2 * wordsPerLine + 5;
        const unsigned epoch_at = static_cast<unsigned>(
            rng.below(opsPerStream));
        std::uint64_t reinstalls = 0;

        for (unsigned op = 0; op < opsPerStream; ++op) {
            if (op == epoch_at)
                m.markEpoch();
            const std::size_t n = m.ref.numInstances();
            switch (rng.below(8)) {
              case 0:
              case 1:
              {
                // Some creations are never installed.
                const Addr wn = base + rng.below(footprint);
                const InstId id = m.create(wn, rng.chance(0.2));
                if (rng.chance(0.8)) {
                    m.addRef(id);
                    copies.push_back(id);
                }
                break;
              }
              case 2:
                if (n > 0) {
                    // Any id, open or closed: a closed one is a
                    // re-install through an id carried without a ref.
                    const InstId id = static_cast<InstId>(rng.below(n));
                    reinstalls += m.ref.dropped(id);
                    m.addRef(id);
                    copies.push_back(id);
                }
                break;
              case 3:
              case 4:
                if (!copies.empty()) {
                    const std::size_t k = rng.below(copies.size());
                    const InstId id = copies[k];
                    copies[k] = copies.back();
                    copies.pop_back();
                    m.dropRef(id, rng.chance(0.3));
                }
                break;
              case 5:
                if (n > 0)
                    m.used(static_cast<InstId>(rng.below(n)));
                break;
              case 6:
                m.storeAddr(base + rng.below(footprint));
                break;
              default:
                m.excess(static_cast<unsigned>(rng.below(4)));
                break;
            }
            if (n > 0)
                m.check(static_cast<InstId>(rng.below(n)));
        }
        EXPECT_GT(reinstalls, 0u) << "seed " << seed;
        m.finish();
    }
}

TEST(ProfilerReference, StreamingMemProfilerMatchesReference)
{
    // Memory instances of a window of lines sweeping 15k lines: most
    // copies die when their line leaves the window, one in 32 is a
    // straggler that lives on for thousands of events.  Chunks go
    // sparse and are evacuated, and dead line heads purged, before and
    // after markEpoch; closed ids are re-installed throughout.
    for (std::uint64_t seed = 1; seed <= streamSeeds; ++seed) {
        Rng rng(4000 + seed);
        MemProfilers m(seed);
        MemProfiler &p = m.p;
        /** Short-lived copies, (line, id), in line order. */
        std::deque<std::pair<Addr, InstId>> recent;
        std::vector<InstId> stragglers;
        const unsigned epoch_at = static_cast<unsigned>(
            streamOps / 4 + rng.below(streamOps / 2));
        Addr head = windowLines;
        std::size_t chunks_at_epoch = 0;
        std::uint64_t reinstalls = 0;
        auto window_word = [&] {
            return (head - 1 - rng.below(windowLines)) * wordsPerLine +
                   rng.below(wordsPerLine);
        };

        for (unsigned op = 0; op < streamOps; ++op) {
            if (op == epoch_at) {
                // Warm-up stragglers outlive their evacuated chunks.
                const std::size_t warm_chunks = p.numInstances() / 1024;
                ASSERT_LT(m.q.residentCountChunks(), warm_chunks)
                    << "seed " << seed << ": no count chunk evacuated";
                ASSERT_GT(stragglers.size(), 0u) << "seed " << seed;
                m.markEpoch();
                chunks_at_epoch = p.residentChunks();
                ASSERT_LT(chunks_at_epoch, warm_chunks)
                    << "seed " << seed << ": nothing evacuated yet";
                EXPECT_EQ(m.q.residentChunks(),
                          p.numInstances() % 1024 ? 1u : 0u)
                    << "seed " << seed;
                EXPECT_EQ(m.q.lineHeads(), 0u) << "seed " << seed;
            }
            if (op % 4 == 0) {
                // The oldest line leaves: its short-lived copies die.
                ++head;
                while (!recent.empty() &&
                       recent.front().first < head - windowLines) {
                    m.dropRef(recent.front().second, rng.chance(0.3));
                    recent.pop_front();
                }
            }
            const std::size_t n = m.ref.numInstances();
            const std::uint64_t pick = rng.below(100);
            if (pick < 40) {
                const Addr wn = window_word();
                const InstId id = m.create(wn, rng.chance(0.2));
                if (rng.chance(0.95)) { // some are never installed
                    m.addRef(id);
                    if (rng.below(32) == 0)
                        stragglers.push_back(id);
                    else
                        recent.emplace_back(head - 1, id);
                }
            } else if (pick < 45 && n > 0) {
                // Re-install any id, open or closed.
                const InstId id = static_cast<InstId>(rng.below(n));
                reinstalls += m.ref.dropped(id);
                m.addRef(id);
                recent.emplace_back(head - 1, id);
            } else if (pick == 45 && !stragglers.empty()) {
                // Stragglers arrive a little faster than they leave.
                const std::size_t k = rng.below(stragglers.size());
                const InstId id = stragglers[k];
                stragglers[k] = stragglers.back();
                stragglers.pop_back();
                m.dropRef(id, false);
            } else if (pick < 75 && n > 0) {
                // Mostly recent ids, sometimes any id.
                m.used(static_cast<InstId>(
                    rng.chance(0.9) && n > 2048 ? n - 1 - rng.below(2048)
                                                : rng.below(n)));
            } else if (pick < 90) {
                m.storeAddr(
                    rng.chance(0.1) && !stragglers.empty()
                        ? m.ref.wordOf(
                              stragglers[rng.below(stragglers.size())])
                        : window_word());
            } else {
                m.excess(static_cast<unsigned>(rng.below(4)));
            }
            if (n > 0)
                m.check(static_cast<InstId>(rng.below(n)));
        }
        EXPECT_GT(reinstalls, 0u) << "seed " << seed;
        EXPECT_GT(stragglers.size(), 0u) << "seed " << seed;
        // Evacuation kept resident chunks well under the ids handed
        // out after the epoch as well.
        EXPECT_LT(p.residentChunks(),
                  chunks_at_epoch + (p.numInstances() / 1024) / 2)
            << "seed " << seed;
        m.finish();
    }
}

} // namespace wastesim
