/**
 * Differential tests: the bounded waste profilers against their
 * append-only reference models (tests/reference_profilers.hh).
 *
 * Seeded random event streams over a small footprint drive both
 * implementations.  Every stream crosses one markEpoch, re-installs
 * closed memory instances and leaves some instances never installed;
 * finalize() counts and every traffic bucket must match exactly.
 */

#include <gtest/gtest.h>

#include <cstring>
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

void
runWordStream(WordProfiler::Level level, std::uint64_t seed)
{
    Rng rng(seed);
    WordProfiler p(level);
    RefWordProfiler ref(level == WordProfiler::Level::L1
                            ? RefWordProfiler::Level::L1
                            : RefWordProfiler::Level::L2);
    // Three lines plus a stray word: collisions on every word are
    // frequent, and the lines straddle line-slot boundaries.
    const Addr base = 16 * 1000 + 7;
    const unsigned footprint = 3 * wordsPerLine + 1;
    const unsigned epoch_at = static_cast<unsigned>(
        rng.below(opsPerStream));

    for (unsigned op = 0; op < opsPerStream; ++op) {
        if (op == epoch_at) {
            p.markEpoch();
            ref.markEpoch();
        }
        const Addr wn = base + rng.below(footprint);
        const unsigned hops = 1 + static_cast<unsigned>(rng.below(127));
        switch (rng.below(10)) {
          case 0:
          case 1:
          {
            const TrafficClass cls = randomClass(rng);
            p.arrive(wn, cls, hops);
            ref.arrive(wn, cls, hops);
            break;
          }
          case 2:
            p.arriveUntracked(wn);
            ref.arriveUntracked(wn);
            break;
          case 3:
            if (ref.present(wn)) {
                p.load(wn);
                ref.load(wn);
            }
            break;
          case 4:
            p.store(wn);
            ref.store(wn);
            break;
          case 5:
            p.respUsed(wn);
            ref.respUsed(wn);
            break;
          case 6:
          {
            const TrafficClass cls = randomClass(rng);
            p.arriveReplace(wn, cls, hops);
            ref.arriveReplace(wn, cls, hops);
            break;
          }
          case 7:
            if (rng.chance(0.5)) {
                p.writeKill(wn);
                ref.writeKill(wn);
            } else {
                p.overwrite(wn);
                ref.overwrite(wn);
            }
            break;
          case 8:
            p.evict(wn);
            ref.evict(wn);
            break;
          default:
            p.invalidate(wn);
            ref.invalidate(wn);
            break;
        }
        ASSERT_EQ(p.present(wn), ref.present(wn)) << "seed " << seed;
    }

    // Seed both with the same non-zero buckets, as System::run does
    // when several caches finalize into one TrafficStats.
    TrafficStats got, want;
    got.ldRespL1Used = want.ldRespL1Used = 0.75;
    got.stRespL2Waste = want.stRespL2Waste = 12.5;
    expectSameCounts(p.finalize(got), ref.finalize(want), seed);
    EXPECT_EQ(std::memcmp(&got, &want, sizeof(TrafficStats)), 0)
        << "seed " << seed;
}

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

TEST(ProfilerReference, MemProfilerMatchesReference)
{
    for (std::uint64_t seed = 1; seed <= numSeeds; ++seed) {
        Rng rng(seed);
        MemProfiler p;
        RefMemProfiler ref;
        /** One entry per live cache copy. */
        std::vector<InstId> copies;
        const Addr base = 16 * 500 + 3;
        const unsigned footprint = 2 * wordsPerLine + 5;
        const unsigned epoch_at = static_cast<unsigned>(
            rng.below(opsPerStream));
        std::uint64_t reinstalls = 0;

        for (unsigned op = 0; op < opsPerStream; ++op) {
            if (op == epoch_at) {
                p.markEpoch();
                ref.markEpoch();
            }
            const std::size_t n = ref.numInstances();
            switch (rng.below(8)) {
              case 0:
              case 1:
              {
                // Some creations are never installed.
                const Addr wn = base + rng.below(footprint);
                const bool present = rng.chance(0.2);
                const InstId id = p.create(wn, present);
                ASSERT_EQ(id, ref.create(wn, present));
                if (rng.chance(0.8)) {
                    p.addRef(id);
                    ref.addRef(id);
                    copies.push_back(id);
                }
                break;
              }
              case 2:
                if (n > 0) {
                    // Any id, open or closed: a closed one is a
                    // re-install through an id carried without a ref.
                    const InstId id = static_cast<InstId>(rng.below(n));
                    reinstalls += ref.dropped(id);
                    p.addRef(id);
                    ref.addRef(id);
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
                    const bool inv = rng.chance(0.3);
                    p.dropRef(id, inv);
                    ref.dropRef(id, inv);
                }
                break;
              case 5:
                if (n > 0) {
                    const InstId id = static_cast<InstId>(rng.below(n));
                    p.used(id);
                    ref.used(id);
                }
                break;
              case 6:
              {
                const Addr wn = base + rng.below(footprint);
                p.storeAddr(wn);
                ref.storeAddr(wn);
                break;
              }
              default:
              {
                const unsigned nw = static_cast<unsigned>(rng.below(4));
                p.excess(nw);
                ref.excess(nw);
                break;
              }
            }
            if (n > 0) {
                const InstId id = static_cast<InstId>(rng.below(n));
                ASSERT_EQ(p.refs(id), ref.refs(id)) << "seed " << seed;
            }
        }
        EXPECT_GT(reinstalls, 0u) << "seed " << seed;
        EXPECT_EQ(p.numInstances(), ref.numInstances());
        expectSameCounts(p.finalize(), ref.finalize(), seed);
    }
}

} // namespace wastesim
