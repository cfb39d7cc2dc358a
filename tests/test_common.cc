/** Unit tests: address math, word masks, RNG, flat map, text tables. */

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <unordered_map>
#include <vector>

#include "common/flat_map.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/topology.hh"
#include "common/types.hh"
#include "common/word_mask.hh"

namespace wastesim
{

TEST(Types, LineAndWordMath)
{
    EXPECT_EQ(lineAddr(0), 0u);
    EXPECT_EQ(lineAddr(63), 0u);
    EXPECT_EQ(lineAddr(64), 64u);
    EXPECT_EQ(lineAddr(130), 128u);
    EXPECT_EQ(wordIndex(0), 0u);
    EXPECT_EQ(wordIndex(4), 1u);
    EXPECT_EQ(wordIndex(63), 15u);
    EXPECT_EQ(wordIndex(68), 1u);
    EXPECT_EQ(wordNumber(64), 16u);
    EXPECT_TRUE(isLineAligned(128));
    EXPECT_FALSE(isLineAligned(132));
}

TEST(Types, Geometry)
{
    EXPECT_EQ(numTiles, 16u);
    EXPECT_EQ(wordsPerLine, 16u);
    EXPECT_EQ(wordsPerFlit, 4u);
    EXPECT_EQ(maxWordsPerMsg, 16u);
}

TEST(Types, HomeSliceInterleave)
{
    const Topology topo;
    // 256-byte interleave: four consecutive lines share a slice.
    const Addr base = 1u << 20;
    const NodeId s = topo.homeSlice(base);
    EXPECT_EQ(topo.homeSlice(base + 64), s);
    EXPECT_EQ(topo.homeSlice(base + 128), s);
    EXPECT_EQ(topo.homeSlice(base + 192), s);
    EXPECT_NE(topo.homeSlice(base + 256), s);
    // All 16 slices are covered.
    bool seen[16] = {};
    for (Addr a = base; a < base + 16 * 256; a += 256)
        seen[topo.homeSlice(a)] = true;
    for (bool b : seen)
        EXPECT_TRUE(b);
}

TEST(Types, MemChannelInterleave)
{
    const Topology topo;
    const Addr base = 1u << 20;
    bool seen[4] = {};
    for (unsigned i = 0; i < 4; ++i)
        seen[topo.memChannel(base + i * 64)] = true;
    for (bool b : seen)
        EXPECT_TRUE(b);
    // MC tiles are the corners.
    EXPECT_EQ(topo.memCtrlTile(0), 0u);
    EXPECT_EQ(topo.memCtrlTile(1), 3u);
    EXPECT_EQ(topo.memCtrlTile(2), 12u);
    EXPECT_EQ(topo.memCtrlTile(3), 15u);
}

TEST(WordMask, Basics)
{
    WordMask m;
    EXPECT_TRUE(m.empty());
    m.set(3);
    m.set(15);
    EXPECT_TRUE(m.test(3));
    EXPECT_TRUE(m.test(15));
    EXPECT_FALSE(m.test(0));
    EXPECT_EQ(m.count(), 2u);
    m.clear(3);
    EXPECT_FALSE(m.test(3));
    EXPECT_EQ(WordMask::full().count(), 16u);
    EXPECT_TRUE(WordMask::full().isFull());
}

TEST(WordMask, SetOperations)
{
    const WordMask a = WordMask::range(0, 8);
    const WordMask b = WordMask::range(4, 8);
    EXPECT_EQ((a | b), WordMask::range(0, 12));
    EXPECT_EQ((a & b), WordMask::range(4, 4));
    EXPECT_EQ((a - b), WordMask::range(0, 4));
    EXPECT_EQ(WordMask::single(5).count(), 1u);
    EXPECT_TRUE(WordMask::single(5).test(5));
}

TEST(WordMask, RangeEdgeCases)
{
    EXPECT_TRUE(WordMask::range(0, 0).empty());
    EXPECT_TRUE(WordMask::range(0, 16).isFull());
    EXPECT_EQ(WordMask::range(15, 1).raw(), 0x8000u);
    EXPECT_EQ(WordMask::range(12, 16).count(), 4u); // clipped at 16
}

TEST(WordMask, ToString)
{
    WordMask m = WordMask::single(1);
    EXPECT_EQ(m.toString(), "0100000000000000");
}

TEST(Rng, Deterministic)
{
    Rng a(42), b(42), c(43);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
    bool diff = false;
    Rng a2(42);
    for (int i = 0; i < 100; ++i)
        diff |= a2.next() != c.next();
    EXPECT_TRUE(diff);
}

TEST(Rng, BoundsRespected)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_LT(r.below(17), 17u);
        const double d = r.real();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, ChanceIsRoughlyCalibrated)
{
    Rng r(99);
    int hits = 0;
    for (int i = 0; i < 10000; ++i)
        hits += r.chance(0.3);
    EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(Stats, TextTableAlignsColumns)
{
    TextTable t;
    t.header({"a", "bbbb"});
    t.row({"ccc", "d"});
    const std::string s = t.render();
    EXPECT_NE(s.find("a"), std::string::npos);
    EXPECT_NE(s.find("ccc"), std::string::npos);
    EXPECT_NE(s.find("="), std::string::npos);
}

TEST(Stats, Formatting)
{
    EXPECT_EQ(pct(0.395), "39.5%");
    EXPECT_EQ(fixed(1.5, 1), "1.5");
    EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
}

TEST(FlatMap, InsertFindEmplace)
{
    FlatMap<int> m;
    EXPECT_TRUE(m.empty());
    EXPECT_EQ(m.find(7), nullptr);

    auto [p, inserted] = m.emplace(7, 70);
    EXPECT_TRUE(inserted);
    EXPECT_EQ(*p, 70);

    // unordered_map emplace semantics: the existing value is kept.
    auto [p2, inserted2] = m.emplace(7, 99);
    EXPECT_FALSE(inserted2);
    EXPECT_EQ(*p2, 70);
    EXPECT_EQ(*m.insert(7, 99), 70);

    EXPECT_EQ(m.size(), 1u);
    EXPECT_TRUE(m.contains(7));
    ASSERT_NE(m.find(7), nullptr);
    EXPECT_EQ(*m.find(7), 70);
}

TEST(FlatMap, GetOrDefault)
{
    FlatMap<int> m;
    int &v = m.getOrDefault(3);
    EXPECT_EQ(v, 0);
    v = 42;
    EXPECT_EQ(m.getOrDefault(3), 42);
    EXPECT_EQ(m.size(), 1u);
}

TEST(FlatMap, EraseAndTake)
{
    FlatMap<int> m;
    for (Addr k = 0; k < 100; ++k)
        m.insert(k, static_cast<int>(k * 10));
    EXPECT_EQ(m.size(), 100u);

    EXPECT_TRUE(m.erase(50));
    EXPECT_FALSE(m.erase(50));
    EXPECT_FALSE(m.contains(50));
    EXPECT_EQ(m.size(), 99u);

    int out = -1;
    EXPECT_TRUE(m.take(51, out));
    EXPECT_EQ(out, 510);
    EXPECT_FALSE(m.take(51, out));
    EXPECT_EQ(m.size(), 98u);

    // Every untouched key is still reachable after the deletions.
    for (Addr k = 0; k < 100; ++k) {
        if (k == 50 || k == 51)
            continue;
        ASSERT_NE(m.find(k), nullptr) << "lost key " << k;
        EXPECT_EQ(*m.find(k), static_cast<int>(k * 10));
    }
}

TEST(FlatMap, Clear)
{
    FlatMap<int> m;
    for (Addr k = 0; k < 10; ++k)
        m.insert(k, 1);
    m.clear();
    EXPECT_TRUE(m.empty());
    for (Addr k = 0; k < 10; ++k)
        EXPECT_FALSE(m.contains(k));
    m.insert(3, 5);
    EXPECT_EQ(*m.find(3), 5);
}

namespace
{

bool negativeIsDead(const int &v) { return v < 0; }

/** Slot a FlatMap of capacity @p cap hashes @p key to (its home). */
std::size_t
homeSlot(Addr key, std::size_t cap)
{
    return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ULL) >> 32) &
           (cap - 1);
}

} // namespace

TEST(FlatMap, PurgeErasesOnlyDeadValuesAcrossTheWrap)
{
    // Six keys that all hash to the last slot: their probe chain wraps
    // past the table's end into slots 0..4.  Dead values sit at the
    // chain's head, middle and wrapped tail, so the backward shift
    // must pull live entries across the wrap.
    FlatMap<int> m(negativeIsDead);
    const std::size_t cap = m.capacity();
    std::vector<Addr> chain;
    for (Addr k = 1; chain.size() < 6; ++k)
        if (homeSlot(k, cap) == cap - 1)
            chain.push_back(k);
    // Unrelated keys in the slots the chain wraps into and after it.
    std::vector<Addr> others;
    for (Addr k = 100000; others.size() < 8; ++k)
        if (homeSlot(k, cap) <= 8 && homeSlot(k, cap) >= 1)
            others.push_back(k);

    const int vals[6] = {-1, 10, -2, 30, 40, -3};
    for (unsigned i = 0; i < chain.size(); ++i)
        m.insert(chain[i], vals[i]);
    for (unsigned i = 0; i < others.size(); ++i)
        m.insert(others[i], i % 2 ? -7 : static_cast<int>(i));
    const std::size_t before = m.size();

    m.purge();
    EXPECT_EQ(m.capacity(), cap) << "purge must not reallocate";
    EXPECT_EQ(m.size(), before - 3 - others.size() / 2);
    for (unsigned i = 0; i < chain.size(); ++i) {
        if (vals[i] < 0) {
            EXPECT_FALSE(m.contains(chain[i])) << "dead key " << i;
        } else {
            ASSERT_NE(m.find(chain[i]), nullptr) << "lost key " << i;
            EXPECT_EQ(*m.find(chain[i]), vals[i]);
        }
    }
    for (unsigned i = 0; i < others.size(); ++i) {
        if (i % 2)
            EXPECT_FALSE(m.contains(others[i]));
        else
            ASSERT_NE(m.find(others[i]), nullptr) << "lost other " << i;
    }
    m.purge(); // nothing left to drop
    EXPECT_EQ(m.size(), before - 3 - others.size() / 2);
}

TEST(FlatMap, PurgeBeforeGrowthFollowsLiveKeys)
{
    // A stream over 100k distinct keys, at most 40 live at a time:
    // purging dead values before each growth keeps the table at the
    // size the live set needs, however many keys pass through.
    FlatMap<int> m(negativeIsDead);
    for (Addr k = 0; k < 100000; ++k) {
        m.insert(k, 1);
        if (k >= 40)
            *m.find(k - 40) = -1; // the oldest key dies in place
    }
    // 41 live keys need 64 slots at the 0.7 load limit; the table
    // doubles only while live keys fill half the limit, so it stops
    // within twice that.
    EXPECT_LE(m.capacity(), 128u);
    for (Addr k = 100000 - 40; k < 100000; ++k)
        ASSERT_NE(m.find(k), nullptr) << "lost live key " << k;

    // Without a predicate the table grows with every key it has seen.
    FlatMap<int> plain;
    for (Addr k = 0; k < 1000; ++k)
        plain.insert(k, -1);
    EXPECT_GE(plain.capacity(), 1024u);
}

// Randomized shadow test with a dead-value predicate: dead values may
// vanish at any growth point, live values never do, and the table
// stays within twice what the largest live set needs.
TEST(FlatMap, RandomizedPurgeShadowEquivalence)
{
    std::mt19937_64 rng(777);
    FlatMap<int> m(negativeIsDead);
    std::unordered_map<Addr, int> ref;
    std::uniform_int_distribution<Addr> key(0, 5000);
    std::uniform_int_distribution<int> op(0, 9);
    std::size_t live = 0, max_live = 0;

    for (int i = 0; i < 200'000; ++i) {
        // Sync the shadow with any dead value the map purged.
        const Addr k = key(rng);
        auto it = ref.find(k);
        if (it != ref.end() && it->second < 0 && !m.contains(k)) {
            ref.erase(it);
            it = ref.end();
        }
        switch (op(rng)) {
          case 0:
          case 1:
          case 2:
          case 3: { // emplace a live value
            const int v = static_cast<int>(rng() % 1000);
            auto [p, ins] = m.emplace(k, v);
            if (ins && it != ref.end() && it->second < 0)
                ref.erase(it); // purged by this insert's growth check
            auto [rit, rins] = ref.emplace(k, v);
            ASSERT_EQ(ins, rins);
            ASSERT_EQ(*p, rit->second);
            live += ins;
            break;
          }
          case 4:
          case 5: // kill in place
            if (int *p = m.find(k)) {
                live -= *p >= 0;
                *p = -1;
                ref[k] = -1;
            }
            break;
          case 6:
            live -= it != ref.end() && it->second >= 0;
            ASSERT_EQ(m.erase(k), ref.erase(k) > 0);
            break;
          default: {
            const int *p = m.find(k);
            if (it == ref.end()) {
                ASSERT_EQ(p, nullptr);
            } else {
                ASSERT_NE(p, nullptr);
                ASSERT_EQ(*p, it->second);
            }
            break;
          }
        }
        max_live = std::max(max_live, live);
        if (i % 1000 == 0) {
            std::size_t n = 0;
            for (const auto &[rk, rv] : ref) {
                if (rv < 0)
                    continue;
                ++n;
                const int *p = m.find(rk);
                ASSERT_NE(p, nullptr) << "lost live key " << rk;
                ASSERT_EQ(*p, rv);
            }
            ASSERT_EQ(n, live);
        }
        ASSERT_LE(m.size(), ref.size());
    }
    // Smallest table holding the largest live set under the 0.7
    // limit; purge-before-grow stays within twice that.
    std::size_t need = 64;
    while ((need * 7) / 10 < max_live)
        need *= 2;
    EXPECT_GT(max_live, 1000u);
    EXPECT_LE(m.capacity(), 2 * need);
}

// Randomized shadow test: a long interleaving of inserts, erases,
// takes and rehash-triggering growth must match std::unordered_map
// exactly.  This is the only exerciser of the backward-shift deletion
// over colliding probe chains, so it runs enough operations to wrap
// the table many times.
TEST(FlatMap, RandomizedShadowEquivalence)
{
    std::mt19937_64 rng(12345);
    FlatMap<std::uint64_t> m;
    std::unordered_map<Addr, std::uint64_t> ref;

    // Key universe deliberately small so probe chains collide and
    // deletions regularly shift later entries.
    std::uniform_int_distribution<Addr> key(0, 400);
    std::uniform_int_distribution<int> op(0, 9);

    for (int i = 0; i < 200'000; ++i) {
        const Addr k = key(rng);
        switch (op(rng)) {
          case 0:
          case 1:
          case 2:
          case 3: { // emplace
            const std::uint64_t v = rng();
            auto [p, ins] = m.emplace(k, v);
            auto [it, rins] = ref.emplace(k, v);
            ASSERT_EQ(ins, rins);
            ASSERT_EQ(*p, it->second);
            break;
          }
          case 4:
          case 5: { // erase
            ASSERT_EQ(m.erase(k), ref.erase(k) > 0);
            break;
          }
          case 6: { // take
            std::uint64_t out = 0;
            auto it = ref.find(k);
            if (it != ref.end()) {
                ASSERT_TRUE(m.take(k, out));
                ASSERT_EQ(out, it->second);
                ref.erase(it);
            } else {
                ASSERT_FALSE(m.take(k, out));
            }
            break;
          }
          default: { // find
            auto it = ref.find(k);
            const std::uint64_t *p = m.find(k);
            if (it == ref.end()) {
                ASSERT_EQ(p, nullptr);
            } else {
                ASSERT_NE(p, nullptr);
                ASSERT_EQ(*p, it->second);
            }
            break;
          }
        }
        ASSERT_EQ(m.size(), ref.size());
    }
}

} // namespace wastesim
