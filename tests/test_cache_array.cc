/** Unit tests: set-associative array, LRU, busy-line handling, and the
 *  per-controller line types. */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include "cache/cache_array.hh"
#include "common/rng.hh"
#include "protocol/denovo/denovo_l1.hh"
#include "protocol/denovo/denovo_l2.hh"
#include "protocol/mesi/mesi_dir.hh"
#include "protocol/mesi/mesi_l1.hh"

namespace wastesim
{

namespace
{

Addr
lineAt(unsigned set, unsigned tag, unsigned sets, unsigned div = 1)
{
    return (static_cast<Addr>(tag) * sets + set) * div * bytesPerLine;
}

// Set / check each line type's own fields (no-ops for CacheLine).
void scribble(CacheLine &) {}
void scribble(MesiL1Line &cl) { cl.mesi = MesiState::M; }
void
scribble(MesiDirLine &cl)
{
    cl.sharers = SharerMask(0xff);
    cl.owner = 3;
}
void scribble(DenovoL1Line &cl) { cl.regWords = WordMask::full(); }
void
scribble(DenovoL2Line &cl)
{
    cl.setRegOwner(5, 2);
    cl.inBloom = true;
}

void expectOwnFieldsReset(const CacheLine &) {}
void
expectOwnFieldsReset(const MesiL1Line &cl)
{
    EXPECT_EQ(cl.mesi, MesiState::I);
}
void
expectOwnFieldsReset(const MesiDirLine &cl)
{
    EXPECT_TRUE(cl.sharers.none());
    EXPECT_EQ(cl.owner, invalidNode);
}
void
expectOwnFieldsReset(const DenovoL1Line &cl)
{
    EXPECT_TRUE(cl.regWords.empty());
}
void
expectOwnFieldsReset(const DenovoL2Line &cl)
{
    EXPECT_TRUE(cl.registeredMask().empty());
    EXPECT_EQ(cl.regOwner(5), invalidNode);
    EXPECT_FALSE(cl.inBloom);
}

/** An eager reference slot (tag refNoTag: invalid way). */
constexpr Addr refNoTag = ~Addr(0);
struct RefSlot
{
    Addr tag = refNoTag;
    bool busy = false;
    std::uint64_t lastUse = 0;
};

struct Geometry
{
    unsigned sets, ways, div;
};

} // namespace

template <typename Line>
class CacheArrayTest : public ::testing::Test
{
};

using LineTypes = ::testing::Types<CacheLine, MesiL1Line, MesiDirLine,
                                   DenovoL1Line, DenovoL2Line>;

struct LineTypeNames
{
    template <typename Line>
    static std::string
    GetName(int)
    {
        if (std::is_same_v<Line, MesiL1Line>)
            return "MesiL1Line";
        if (std::is_same_v<Line, MesiDirLine>)
            return "MesiDirLine";
        if (std::is_same_v<Line, DenovoL1Line>)
            return "DenovoL1Line";
        if (std::is_same_v<Line, DenovoL2Line>)
            return "DenovoL2Line";
        return "CacheLine";
    }
};

TYPED_TEST_SUITE(CacheArrayTest, LineTypes, LineTypeNames);

TYPED_TEST(CacheArrayTest, FindAfterFill)
{
    CacheArray<TypeParam> a(4, 2);
    const Addr la = lineAt(1, 0, 4);
    EXPECT_EQ(a.find(la), nullptr);
    TypeParam *slot = a.victimFor(la);
    ASSERT_NE(slot, nullptr);
    a.resetTo(*slot, la);
    EXPECT_EQ(a.find(la), slot);
}

TYPED_TEST(CacheArrayTest, SetIndexing)
{
    CacheArray<TypeParam> a(8, 2);
    EXPECT_EQ(a.setIndex(0), 0u);
    EXPECT_EQ(a.setIndex(64), 1u);
    EXPECT_EQ(a.setIndex(8 * 64), 0u);
}

TYPED_TEST(CacheArrayTest, IndexDivisorSkipsInterleaveBits)
{
    // L2 slices see every 16th 256-byte chunk: index must divide.
    CacheArray<TypeParam> a(8, 2, numTiles);
    EXPECT_EQ(a.setIndex(0), a.setIndex(64));
    EXPECT_NE(a.setIndex(0), a.setIndex(16ull * 4 * 64));
}

TYPED_TEST(CacheArrayTest, LruVictimSelection)
{
    CacheArray<TypeParam> a(1, 4);
    std::vector<Addr> lines;
    for (unsigned t = 0; t < 4; ++t) {
        const Addr la = lineAt(0, t, 1);
        lines.push_back(la);
        TypeParam *s = a.victimFor(la);
        a.resetTo(*s, la);
        a.touch(*s);
    }
    // Touch line 0 so line 1 becomes LRU.
    a.touch(*a.find(lines[0]));
    TypeParam *victim = a.victimFor(lineAt(0, 9, 1));
    ASSERT_NE(victim, nullptr);
    EXPECT_EQ(victim->line, lines[1]);
}

TYPED_TEST(CacheArrayTest, InvalidSlotPreferred)
{
    CacheArray<TypeParam> a(1, 4);
    for (unsigned t = 0; t < 3; ++t) {
        TypeParam *s = a.victimFor(lineAt(0, t, 1));
        a.resetTo(*s, lineAt(0, t, 1));
        a.touch(*s);
    }
    TypeParam *victim = a.victimFor(lineAt(0, 9, 1));
    ASSERT_NE(victim, nullptr);
    EXPECT_FALSE(victim->valid);
}

TYPED_TEST(CacheArrayTest, BusyLinesNotVictimized)
{
    CacheArray<TypeParam> a(1, 2);
    TypeParam *s0 = a.victimFor(lineAt(0, 0, 1));
    a.resetTo(*s0, lineAt(0, 0, 1));
    s0->busy = true;
    TypeParam *s1 = a.victimFor(lineAt(0, 1, 1));
    a.resetTo(*s1, lineAt(0, 1, 1));

    TypeParam *victim = a.victimFor(lineAt(0, 9, 1));
    ASSERT_NE(victim, nullptr);
    EXPECT_EQ(victim, s1);

    s1->busy = true;
    EXPECT_EQ(a.victimFor(lineAt(0, 9, 1)), nullptr);
}

TYPED_TEST(CacheArrayTest, InvalidateFreesSlot)
{
    CacheArray<TypeParam> a(1, 1);
    TypeParam *s = a.victimFor(lineAt(0, 0, 1));
    a.resetTo(*s, lineAt(0, 0, 1));
    a.invalidate(*s);
    EXPECT_EQ(a.find(lineAt(0, 0, 1)), nullptr);
    EXPECT_FALSE(s->busy);
}

TYPED_TEST(CacheArrayTest, ForEachValidVisitsAll)
{
    CacheArray<TypeParam> a(4, 2);
    for (unsigned i = 0; i < 5; ++i) {
        const Addr la = lineAt(i % 4, i / 4, 4);
        a.resetTo(*a.victimFor(la), la);
    }
    unsigned n = 0;
    a.forEachValid([&](TypeParam &) { ++n; });
    EXPECT_EQ(n, 5u);

    const CacheArray<TypeParam> &ca = a;
    unsigned m = 0;
    ca.forEachValid([&](const TypeParam &) { ++m; });
    EXPECT_EQ(m, 5u);
}

/**
 * The array against an eager reference model: one slot per (set,
 * way) allocated up front, with the same victim rule (lowest invalid
 * way, else the least recently used non-busy way, lowest way on a
 * tie).  Seeded random fills, probes, touches, busy marks and
 * invalidations; every returned slot must be the model's way, a way
 * keeps one address for the array's life, and forEachValid visits
 * lines set by set in way order.
 */
TYPED_TEST(CacheArrayTest, MatchesEagerReferenceModel)
{
    for (const Geometry geo : {Geometry{4, 1, 1}, Geometry{4, 2, 4},
                               Geometry{2, 6, 3}, Geometry{4, 8, 4},
                               Geometry{8, 16, 1}}) {
        for (std::uint64_t seed : {1u, 2u}) {
            SCOPED_TRACE(testing::Message()
                         << geo.sets << "x" << geo.ways << " div "
                         << geo.div << " seed " << seed);
            Rng rng(seed);
            CacheArray<TypeParam> a(geo.sets, geo.ways, geo.div);
            std::vector<RefSlot> ref(geo.sets * geo.ways);
            std::uint64_t clock = 0;
            // Slot address of each (set, way) once the array shows it.
            std::map<unsigned, TypeParam *> slotAt;
            std::set<TypeParam *> seen;

            auto line_at = [&](unsigned set, unsigned tag) {
                return lineAt(set, tag, geo.sets, geo.div);
            };
            auto expect_slot = [&](unsigned set, unsigned way,
                                   TypeParam *got) {
                const unsigned key = set * geo.ways + way;
                auto it = slotAt.find(key);
                if (it == slotAt.end()) {
                    ASSERT_TRUE(seen.insert(got).second)
                        << "set " << set << " way " << way
                        << " reuses another way's slot";
                    slotAt.emplace(key, got);
                } else {
                    ASSERT_EQ(got, it->second)
                        << "set " << set << " way " << way << " moved";
                }
            };
            // The model's victim way for @p set, or ways if all busy.
            auto ref_victim = [&](unsigned set) {
                unsigned lru = geo.ways;
                for (unsigned w = 0; w < geo.ways; ++w) {
                    const RefSlot &r = ref[set * geo.ways + w];
                    if (r.tag == refNoTag)
                        return w;
                    if (r.busy)
                        continue;
                    if (lru == geo.ways ||
                        r.lastUse < ref[set * geo.ways + lru].lastUse)
                        lru = w;
                }
                return lru;
            };
            auto ref_find = [&](unsigned set, Addr la) {
                for (unsigned w = 0; w < geo.ways; ++w)
                    if (ref[set * geo.ways + w].tag == la)
                        return w;
                return geo.ways;
            };
            // A random valid model slot, or ref.size() if none.
            auto random_valid = [&] {
                std::vector<unsigned> valid;
                for (unsigned i = 0; i < ref.size(); ++i)
                    if (ref[i].tag != refNoTag)
                        valid.push_back(i);
                return valid.empty()
                           ? static_cast<unsigned>(ref.size())
                           : valid[rng.below(valid.size())];
            };

            for (unsigned step = 0; step < 3000; ++step) {
                SCOPED_TRACE(testing::Message() << "step " << step);
                const unsigned set =
                    static_cast<unsigned>(rng.below(geo.sets));
                const Addr la = line_at(
                    set, static_cast<unsigned>(rng.below(geo.ways * 2)));
                ASSERT_EQ(a.setIndex(la), set);
                const unsigned op = static_cast<unsigned>(rng.below(8));
                if (op <= 2) { // fill (or hit)
                    const unsigned hit = ref_find(set, la);
                    TypeParam *found = a.find(la);
                    if (hit < geo.ways) {
                        ASSERT_NE(found, nullptr);
                        expect_slot(set, hit, found);
                        continue;
                    }
                    ASSERT_EQ(found, nullptr);
                    const unsigned way = ref_victim(set);
                    TypeParam *slot = a.victimFor(la);
                    if (way == geo.ways) {
                        ASSERT_EQ(slot, nullptr);
                        continue;
                    }
                    ASSERT_NE(slot, nullptr);
                    expect_slot(set, way, slot);
                    RefSlot &r = ref[set * geo.ways + way];
                    ASSERT_EQ(slot->valid, r.tag != refNoTag);
                    a.resetTo(*slot, la);
                    r.tag = la;
                    r.busy = false;
                    ASSERT_EQ(slot->lastUse, r.lastUse);
                    if (rng.below(4) != 0) {
                        a.touch(*slot);
                        r.lastUse = ++clock;
                    }
                } else if (op == 3) { // probe only, as a NACK check does
                    const unsigned way = ref_victim(set);
                    TypeParam *slot = a.victimFor(la);
                    if (way == geo.ways) {
                        ASSERT_EQ(slot, nullptr);
                    } else {
                        ASSERT_NE(slot, nullptr);
                        expect_slot(set, way, slot);
                    }
                } else if (op == 4) { // touch
                    const unsigned i = random_valid();
                    if (i == ref.size())
                        continue;
                    TypeParam *cl = a.find(ref[i].tag);
                    ASSERT_NE(cl, nullptr);
                    expect_slot(i / geo.ways, i % geo.ways, cl);
                    a.touch(*cl);
                    ref[i].lastUse = ++clock;
                } else if (op == 5) { // toggle busy
                    const unsigned i = random_valid();
                    if (i == ref.size())
                        continue;
                    TypeParam *cl = a.find(ref[i].tag);
                    ASSERT_NE(cl, nullptr);
                    cl->busy = ref[i].busy = !ref[i].busy;
                } else if (op == 6) { // invalidate
                    const unsigned i = random_valid();
                    if (i == ref.size())
                        continue;
                    TypeParam *cl = a.find(ref[i].tag);
                    ASSERT_NE(cl, nullptr);
                    a.invalidate(*cl);
                    EXPECT_FALSE(cl->valid);
                    EXPECT_FALSE(cl->busy);
                    ref[i].tag = refNoTag;
                    ref[i].busy = false;
                } else { // visit order
                    std::vector<Addr> want;
                    for (const RefSlot &r : ref)
                        if (r.tag != refNoTag)
                            want.push_back(r.tag);
                    std::vector<Addr> got;
                    a.forEachValid([&](TypeParam &cl) {
                        got.push_back(cl.line);
                    });
                    ASSERT_EQ(got, want);
                    std::vector<Addr> got_const;
                    const CacheArray<TypeParam> &ca = a;
                    ca.forEachValid([&](const TypeParam &cl) {
                        got_const.push_back(cl.line);
                    });
                    ASSERT_EQ(got_const, want);
                }
            }
        }
    }
}

TYPED_TEST(CacheArrayTest, ResetClearsStateButKeepsLruStamp)
{
    TypeParam cl;
    cl.resetTo(128);
    cl.validWords.set(3);
    cl.dirtyWords.set(3);
    cl.memRef[5] = 77;
    cl.busy = true;
    cl.lastUse = 42;
    scribble(cl);
    cl.resetTo(256);
    EXPECT_EQ(cl.line, 256u);
    EXPECT_TRUE(cl.valid);
    EXPECT_FALSE(cl.busy);
    EXPECT_TRUE(cl.validWords.empty());
    EXPECT_TRUE(cl.dirtyWords.empty());
    EXPECT_EQ(cl.memRef[5], invalidInst);
    // LRU order depends on a refilled slot keeping its stamp until
    // the controller touches it.
    EXPECT_EQ(cl.lastUse, 42u);
    expectOwnFieldsReset(cl);
}

TYPED_TEST(CacheArrayTest, ResetClearsWordProfilerState)
{
    // A detached line (an evict-buffer copy) reset with open
    // instances keeps none of them: reusing its words classifies
    // nothing, and a new arrival is not Fetch waste.
    WordProfiler p(WordProfiler::Level::L2);
    TypeParam cl;
    cl.resetTo(128);
    p.arrive(cl.prof, WordMask::full(), TrafficClass::Load, 3);
    cl.resetTo(256);
    EXPECT_TRUE(cl.prof.present().empty());
    p.respUsed(cl.prof, WordMask::full());
    p.arrive(cl.prof, WordMask::single(0), TrafficClass::Load, 3);
    const WasteCounts c = p.counts();
    EXPECT_EQ(c[WasteCat::Used], 0.0);
    EXPECT_EQ(c[WasteCat::Fetch], 0.0);
    EXPECT_EQ(c[WasteCat::Unclassified], 17.0);
}

TEST(DenovoL2Line, RegisteredMask)
{
    DenovoL2Line cl;
    cl.resetTo(0);
    cl.setRegOwner(1, 4);
    cl.setRegOwner(9, 7);
    const WordMask m = cl.registeredMask();
    EXPECT_EQ(m.count(), 2u);
    EXPECT_TRUE(m.test(1));
    EXPECT_TRUE(m.test(9));
    EXPECT_EQ(cl.regOwner(1), 4u);
    EXPECT_EQ(cl.regOwner(9), 7u);
    EXPECT_EQ(cl.regOwner(0), invalidNode);
}

TEST(DenovoL2Line, RegistrantsMatchReference)
{
    // Seeded set/clear sequences at the extremes a byte must hold:
    // node 0, node 255 (the last tile of a 16x16 mesh) and
    // invalidNode (unregister), checked word by word against a plain
    // NodeId array after every step.
    for (std::uint64_t seed : {1u, 2u, 3u}) {
        Rng rng(seed);
        DenovoL2Line cl;
        cl.resetTo(0);
        NodeId ref[wordsPerLine];
        for (NodeId &n : ref)
            n = invalidNode;
        for (unsigned step = 0; step < 2000; ++step) {
            const unsigned w = static_cast<unsigned>(rng.below(wordsPerLine));
            NodeId n;
            switch (rng.below(4)) {
              case 0: n = 0; break;
              case 1: n = maxTiles - 1; break;
              case 2: n = invalidNode; break;
              default: n = static_cast<NodeId>(rng.below(maxTiles)); break;
            }
            if (rng.below(64) == 0) {
                cl.resetTo(Addr{step} * bytesPerLine);
                for (NodeId &r : ref)
                    r = invalidNode;
            } else {
                cl.setRegOwner(w, n);
                ref[w] = n;
            }
            WordMask want;
            for (unsigned i = 0; i < wordsPerLine; ++i) {
                ASSERT_EQ(cl.regOwner(i), ref[i])
                    << "seed " << seed << " step " << step << " word " << i;
                if (ref[i] != invalidNode)
                    want.set(i);
            }
            ASSERT_EQ(cl.registeredMask(), want)
                << "seed " << seed << " step " << step;
        }
    }
}

TEST(CacheArrayDeath, NonPowerOfTwoSetsPanics)
{
    EXPECT_DEATH(CacheArray(3, 2), "power of two");
}

TEST(CacheArrayDeath, DroppingASlotWithProfiledWordsPanics)
{
    // The word profiler's state lives only in the line, so a slot may
    // not lose its line while the profiler counts a word present.
    WordProfiler p(WordProfiler::Level::L1);
    CacheArray<MesiL1Line> a(4, 2);
    const Addr la = lineAt(1, 0, 4);
    MesiL1Line &cl = *a.victimFor(la);
    a.resetTo(cl, la);
    p.arrive(cl.prof, WordMask::single(3), TrafficClass::Load, 1);
    EXPECT_DEATH(a.invalidate(cl), "profiled words 0001");
    EXPECT_DEATH(a.resetTo(cl, la), "profiled words 0001");
    p.evict(cl.prof);
    a.invalidate(cl);
    EXPECT_EQ(a.find(la), nullptr);
}

TEST(CacheArrayDeath, RegistrantOutOfRangePanics)
{
    DenovoL2Line cl;
    cl.resetTo(0);
    EXPECT_DEATH(cl.setRegOwner(0, maxTiles), "out of range");
}

} // namespace wastesim
