/** Unit tests: the L1/L2 word-instance waste FSMs (Figs. 4.1/4.2). */

#include <gtest/gtest.h>

#include "profile/word_profiler.hh"

namespace wastesim
{

namespace
{

using LineState = WordProfiler::LineState;

/** The word the tests profile, and a one-word mask of it. */
constexpr unsigned w = 4;
constexpr WordMask word = WordMask::single(w);

WasteCounts
finalizeCounts(WordProfiler &p)
{
    TrafficStats t;
    return p.finalize(t);
}

} // namespace

TEST(WordProfiler, LoadClassifiesUsed)
{
    WordProfiler p(WordProfiler::Level::L1);
    LineState s;
    p.arrive(s, word, TrafficClass::Load, 1);
    p.load(s, w);
    const auto c = finalizeCounts(p);
    EXPECT_EQ(c[WasteCat::Used], 1.0);
    EXPECT_EQ(c.waste(), 0.0);
}

TEST(WordProfiler, OverwriteBeforeUseIsWriteWaste)
{
    WordProfiler p(WordProfiler::Level::L1);
    LineState s;
    p.arrive(s, word, TrafficClass::Store, 1);
    p.store(s, w);
    const auto c = finalizeCounts(p);
    EXPECT_EQ(c[WasteCat::Write], 1.0);
}

TEST(WordProfiler, UsedThenStoreStaysUsed)
{
    WordProfiler p(WordProfiler::Level::L1);
    LineState s;
    p.arrive(s, word, TrafficClass::Load, 1);
    p.load(s, w);
    p.store(s, w); // first classification wins
    const auto c = finalizeCounts(p);
    EXPECT_EQ(c[WasteCat::Used], 1.0);
    EXPECT_EQ(c[WasteCat::Write], 0.0);
}

TEST(WordProfiler, ArriveWhilePresentIsFetchWaste)
{
    WordProfiler p(WordProfiler::Level::L1);
    LineState s;
    p.arrive(s, word, TrafficClass::Load, 1);
    p.arrive(s, word, TrafficClass::Load, 1); // duplicate arrival
    p.load(s, w);
    const auto c = finalizeCounts(p);
    EXPECT_EQ(c[WasteCat::Fetch], 1.0);
    EXPECT_EQ(c[WasteCat::Used], 1.0);
}

TEST(WordProfiler, EvictBeforeUse)
{
    WordProfiler p(WordProfiler::Level::L1);
    LineState s;
    p.arrive(s, word, TrafficClass::Load, 1);
    p.evict(s);
    const auto c = finalizeCounts(p);
    EXPECT_EQ(c[WasteCat::Evict], 1.0);
    EXPECT_FALSE(s.present().test(w));
}

TEST(WordProfiler, InvalidateBeforeUseL1)
{
    WordProfiler p(WordProfiler::Level::L1);
    LineState s;
    p.arrive(s, word, TrafficClass::Load, 1);
    p.invalidate(s, word);
    const auto c = finalizeCounts(p);
    EXPECT_EQ(c[WasteCat::Invalidate], 1.0);
}

TEST(WordProfiler, L2HasNoInvalidateCategory)
{
    // Fig. 4.2: the L2 FSM folds invalidation into eviction.
    WordProfiler p(WordProfiler::Level::L2);
    LineState s;
    p.arrive(s, word, TrafficClass::Load, 1);
    p.invalidate(s, word);
    const auto c = finalizeCounts(p);
    EXPECT_EQ(c[WasteCat::Evict], 1.0);
    EXPECT_EQ(c[WasteCat::Invalidate], 0.0);
}

TEST(WordProfiler, UnevictedAtEnd)
{
    WordProfiler p(WordProfiler::Level::L1);
    LineState s;
    p.arrive(s, word, TrafficClass::Load, 1);
    const auto c = finalizeCounts(p);
    EXPECT_EQ(c[WasteCat::Unevicted], 1.0);
}

TEST(WordProfiler, StoreAllocatesUntracked)
{
    WordProfiler p(WordProfiler::Level::L1);
    LineState s;
    p.store(s, w); // write-validate allocation, no record
    EXPECT_TRUE(s.present().test(w));
    const auto c = finalizeCounts(p);
    EXPECT_EQ(c.total(), 0.0);
}

TEST(WordProfiler, ArriveOnStoreAllocatedIsFetch)
{
    WordProfiler p(WordProfiler::Level::L1);
    LineState s;
    p.store(s, w);
    p.arrive(s, word, TrafficClass::Load, 1);
    const auto c = finalizeCounts(p);
    EXPECT_EQ(c[WasteCat::Fetch], 1.0);
}

TEST(WordProfiler, RespUsedMarksL2Reuse)
{
    WordProfiler p(WordProfiler::Level::L2);
    LineState s;
    p.arrive(s, word, TrafficClass::Load, 1);
    p.respUsed(s, word);
    const auto c = finalizeCounts(p);
    EXPECT_EQ(c[WasteCat::Used], 1.0);
}

TEST(WordProfiler, OverwriteKeepsPresence)
{
    WordProfiler p(WordProfiler::Level::L2);
    LineState s;
    p.arrive(s, word, TrafficClass::Load, 1);
    p.overwrite(s, word); // L1 writeback data lands on it
    EXPECT_TRUE(s.present().test(w));
    const auto c = finalizeCounts(p);
    EXPECT_EQ(c[WasteCat::Write], 1.0);
}

TEST(WordProfiler, ArriveReplaceClosesOldOpensNew)
{
    WordProfiler p(WordProfiler::Level::L2);
    LineState s;
    p.arrive(s, word, TrafficClass::Load, 1);
    p.arriveReplace(s, word, TrafficClass::Load, 4);
    p.respUsed(s, word);
    const auto c = finalizeCounts(p);
    EXPECT_EQ(c[WasteCat::Write], 1.0); // the superseded copy
    EXPECT_EQ(c[WasteCat::Used], 1.0);  // the fresh copy, reused
}

TEST(WordProfiler, WriteKillEndsPresence)
{
    WordProfiler p(WordProfiler::Level::L2);
    LineState s;
    p.arrive(s, word, TrafficClass::Load, 1);
    p.writeKill(s, word);
    EXPECT_FALSE(s.present().test(w));
    const auto c = finalizeCounts(p);
    EXPECT_EQ(c[WasteCat::Write], 1.0);
}

TEST(WordProfiler, TrafficResolvedByClassification)
{
    WordProfiler p(WordProfiler::Level::L1);
    LineState s, s2;
    p.arrive(s, word, TrafficClass::Load, 8); // 8 hops = 2 flit-hops/word
    p.load(s, w);
    p.arrive(s2, WordMask::single(8), TrafficClass::Load, 12);
    p.evict(s2);

    TrafficStats t;
    p.finalize(t);
    EXPECT_DOUBLE_EQ(t.ldRespL1Used, 2.0);
    EXPECT_DOUBLE_EQ(t.ldRespL1Waste, 3.0);
}

TEST(WordProfiler, StoreClassTrafficGoesToStoreBuckets)
{
    WordProfiler p(WordProfiler::Level::L2);
    LineState s;
    p.arrive(s, word, TrafficClass::Store, 16);
    TrafficStats t;
    p.finalize(t);
    EXPECT_DOUBLE_EQ(t.stRespL2Waste, 4.0); // Unevicted => waste
}

TEST(WordProfiler, EpochExcludesWarmup)
{
    WordProfiler p(WordProfiler::Level::L1);
    LineState s, s2;
    p.arrive(s, word, TrafficClass::Load, 1);
    p.load(s, w);
    p.markEpoch();
    p.arrive(s2, WordMask::single(8), TrafficClass::Load, 1);
    p.load(s2, 8);
    const auto c = finalizeCounts(p);
    EXPECT_EQ(c.total(), 1.0); // only the post-epoch word
}

TEST(WordProfiler, EpochExcludesWarmupInstancesClassifiedLater)
{
    // An instance that arrives before the epoch and is classified
    // after it counts nowhere, nor does its traffic.
    WordProfiler p(WordProfiler::Level::L1);
    LineState s, s2;
    p.arrive(s, word, TrafficClass::Load, 4);
    p.markEpoch();
    p.load(s, w);
    p.arrive(s2, WordMask::single(8), TrafficClass::Load, 8);
    TrafficStats t;
    const auto c = p.finalize(t);
    EXPECT_EQ(c.total(), 1.0);
    EXPECT_EQ(c[WasteCat::Unevicted], 1.0);
    EXPECT_EQ(t.ldRespL1Used, 0.0);
    EXPECT_EQ(t.ldRespL1Waste, 2.0);
}

TEST(WordProfiler, CountsShowOpenInstancesUnclassified)
{
    WordProfiler p(WordProfiler::Level::L1);
    LineState s;
    p.arrive(s, word, TrafficClass::Load, 1);
    EXPECT_EQ(p.counts()[WasteCat::Unclassified], 1.0);
    const auto c = finalizeCounts(p);
    EXPECT_EQ(c[WasteCat::Unclassified], 0.0);
    EXPECT_EQ(c[WasteCat::Unevicted], 1.0);
}

TEST(WordProfiler, LineWideCallsClassifyEachWord)
{
    // One call over a line's words is the per-word FSM on each: words
    // 0-3 are already present (Fetch), 4-7 open; a reuse of 2-5 makes
    // 4-5 Used, and the eviction ends 6-7 as Evict and all presence.
    WordProfiler p(WordProfiler::Level::L2);
    LineState s;
    p.arriveUntracked(s, WordMask::range(0, 4));
    p.arrive(s, WordMask::range(0, 8), TrafficClass::Load, 4);
    EXPECT_EQ(s.present(), WordMask::range(0, 8));
    p.respUsed(s, WordMask::range(2, 4));
    p.evict(s);
    EXPECT_TRUE(s.present().empty());
    TrafficStats t;
    const auto c = p.finalize(t);
    EXPECT_EQ(c[WasteCat::Fetch], 4.0);
    EXPECT_EQ(c[WasteCat::Used], 2.0);
    EXPECT_EQ(c[WasteCat::Evict], 2.0);
    EXPECT_EQ(c.total(), 8.0);
    EXPECT_DOUBLE_EQ(t.ldRespL2Used, 2.0);
    EXPECT_DOUBLE_EQ(t.ldRespL2Waste, 6.0);
}

TEST(WordProfiler, PartialInvalidateKeepsOtherWords)
{
    WordProfiler p(WordProfiler::Level::L1);
    LineState s;
    p.arrive(s, WordMask::range(0, 4), TrafficClass::Store, 2);
    p.invalidate(s, WordMask::range(1, 2));
    EXPECT_EQ(s.present(), WordMask::single(0) | WordMask::single(3));
    p.load(s, 3);
    const auto c = finalizeCounts(p);
    EXPECT_EQ(c[WasteCat::Invalidate], 2.0);
    EXPECT_EQ(c[WasteCat::Used], 1.0);
    EXPECT_EQ(c[WasteCat::Unevicted], 1.0);
}

TEST(WordProfilerDeath, FinalizeTwicePanics)
{
    WordProfiler p(WordProfiler::Level::L1);
    finalizeCounts(p);
    EXPECT_DEATH(finalizeCounts(p), "finalized twice");
}

TEST(WordProfilerDeath, MarkEpochTwicePanics)
{
    WordProfiler p(WordProfiler::Level::L1);
    p.markEpoch();
    EXPECT_DEATH(p.markEpoch(), "epoch marked twice");
}

TEST(WordProfilerDeath, LoadOnAbsentWordPanics)
{
    WordProfiler p(WordProfiler::Level::L1);
    LineState s;
    EXPECT_DEATH(p.load(s, w), "absent");
}

} // namespace wastesim
