/** Unit tests: the L1/L2 word-instance waste FSMs (Figs. 4.1/4.2). */

#include <gtest/gtest.h>

#include "profile/word_profiler.hh"

namespace wastesim
{

namespace
{

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
    p.arrive(100, TrafficClass::Load, 1);
    p.load(100);
    const auto c = finalizeCounts(p);
    EXPECT_EQ(c[WasteCat::Used], 1.0);
    EXPECT_EQ(c.waste(), 0.0);
}

TEST(WordProfiler, OverwriteBeforeUseIsWriteWaste)
{
    WordProfiler p(WordProfiler::Level::L1);
    p.arrive(100, TrafficClass::Store, 1);
    p.store(100);
    const auto c = finalizeCounts(p);
    EXPECT_EQ(c[WasteCat::Write], 1.0);
}

TEST(WordProfiler, UsedThenStoreStaysUsed)
{
    WordProfiler p(WordProfiler::Level::L1);
    p.arrive(100, TrafficClass::Load, 1);
    p.load(100);
    p.store(100); // first classification wins
    const auto c = finalizeCounts(p);
    EXPECT_EQ(c[WasteCat::Used], 1.0);
    EXPECT_EQ(c[WasteCat::Write], 0.0);
}

TEST(WordProfiler, ArriveWhilePresentIsFetchWaste)
{
    WordProfiler p(WordProfiler::Level::L1);
    p.arrive(100, TrafficClass::Load, 1);
    p.arrive(100, TrafficClass::Load, 1); // duplicate arrival
    p.load(100);
    const auto c = finalizeCounts(p);
    EXPECT_EQ(c[WasteCat::Fetch], 1.0);
    EXPECT_EQ(c[WasteCat::Used], 1.0);
}

TEST(WordProfiler, EvictBeforeUse)
{
    WordProfiler p(WordProfiler::Level::L1);
    p.arrive(100, TrafficClass::Load, 1);
    p.evict(100);
    const auto c = finalizeCounts(p);
    EXPECT_EQ(c[WasteCat::Evict], 1.0);
    EXPECT_FALSE(p.present(100));
}

TEST(WordProfiler, InvalidateBeforeUseL1)
{
    WordProfiler p(WordProfiler::Level::L1);
    p.arrive(100, TrafficClass::Load, 1);
    p.invalidate(100);
    const auto c = finalizeCounts(p);
    EXPECT_EQ(c[WasteCat::Invalidate], 1.0);
}

TEST(WordProfiler, L2HasNoInvalidateCategory)
{
    // Fig. 4.2: the L2 FSM folds invalidation into eviction.
    WordProfiler p(WordProfiler::Level::L2);
    p.arrive(100, TrafficClass::Load, 1);
    p.invalidate(100);
    const auto c = finalizeCounts(p);
    EXPECT_EQ(c[WasteCat::Evict], 1.0);
    EXPECT_EQ(c[WasteCat::Invalidate], 0.0);
}

TEST(WordProfiler, UnevictedAtEnd)
{
    WordProfiler p(WordProfiler::Level::L1);
    p.arrive(100, TrafficClass::Load, 1);
    const auto c = finalizeCounts(p);
    EXPECT_EQ(c[WasteCat::Unevicted], 1.0);
}

TEST(WordProfiler, StoreAllocatesUntracked)
{
    WordProfiler p(WordProfiler::Level::L1);
    p.store(100); // write-validate allocation, no record
    EXPECT_TRUE(p.present(100));
    const auto c = finalizeCounts(p);
    EXPECT_EQ(c.total(), 0.0);
}

TEST(WordProfiler, ArriveOnStoreAllocatedIsFetch)
{
    WordProfiler p(WordProfiler::Level::L1);
    p.store(100);
    p.arrive(100, TrafficClass::Load, 1);
    const auto c = finalizeCounts(p);
    EXPECT_EQ(c[WasteCat::Fetch], 1.0);
}

TEST(WordProfiler, RespUsedMarksL2Reuse)
{
    WordProfiler p(WordProfiler::Level::L2);
    p.arrive(100, TrafficClass::Load, 1);
    p.respUsed(100);
    const auto c = finalizeCounts(p);
    EXPECT_EQ(c[WasteCat::Used], 1.0);
}

TEST(WordProfiler, OverwriteKeepsPresence)
{
    WordProfiler p(WordProfiler::Level::L2);
    p.arrive(100, TrafficClass::Load, 1);
    p.overwrite(100); // L1 writeback data lands on it
    EXPECT_TRUE(p.present(100));
    const auto c = finalizeCounts(p);
    EXPECT_EQ(c[WasteCat::Write], 1.0);
}

TEST(WordProfiler, ArriveReplaceClosesOldOpensNew)
{
    WordProfiler p(WordProfiler::Level::L2);
    p.arrive(100, TrafficClass::Load, 1);
    p.arriveReplace(100, TrafficClass::Load, 4);
    p.respUsed(100);
    const auto c = finalizeCounts(p);
    EXPECT_EQ(c[WasteCat::Write], 1.0); // the superseded copy
    EXPECT_EQ(c[WasteCat::Used], 1.0);  // the fresh copy, reused
}

TEST(WordProfiler, WriteKillEndsPresence)
{
    WordProfiler p(WordProfiler::Level::L2);
    p.arrive(100, TrafficClass::Load, 1);
    p.writeKill(100);
    EXPECT_FALSE(p.present(100));
    const auto c = finalizeCounts(p);
    EXPECT_EQ(c[WasteCat::Write], 1.0);
}

TEST(WordProfiler, TrafficResolvedByClassification)
{
    WordProfiler p(WordProfiler::Level::L1);
    p.arrive(100, TrafficClass::Load, 8); // 8 hops = 2 flit-hops/word
    p.load(100);
    p.arrive(200, TrafficClass::Load, 12);
    p.evict(200);

    TrafficStats t;
    p.finalize(t);
    EXPECT_DOUBLE_EQ(t.ldRespL1Used, 2.0);
    EXPECT_DOUBLE_EQ(t.ldRespL1Waste, 3.0);
}

TEST(WordProfiler, StoreClassTrafficGoesToStoreBuckets)
{
    WordProfiler p(WordProfiler::Level::L2);
    p.arrive(100, TrafficClass::Store, 16);
    TrafficStats t;
    p.finalize(t);
    EXPECT_DOUBLE_EQ(t.stRespL2Waste, 4.0); // Unevicted => waste
}

TEST(WordProfiler, EpochExcludesWarmup)
{
    WordProfiler p(WordProfiler::Level::L1);
    p.arrive(100, TrafficClass::Load, 1);
    p.load(100);
    p.markEpoch();
    p.arrive(200, TrafficClass::Load, 1);
    p.load(200);
    const auto c = finalizeCounts(p);
    EXPECT_EQ(c.total(), 1.0); // only the post-epoch word
}

TEST(WordProfiler, EpochExcludesWarmupInstancesClassifiedLater)
{
    // An instance that arrives before the epoch and is classified
    // after it counts nowhere, nor does its traffic.
    WordProfiler p(WordProfiler::Level::L1);
    p.arrive(100, TrafficClass::Load, 4);
    p.markEpoch();
    p.load(100);
    p.arrive(200, TrafficClass::Load, 8);
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
    p.arrive(100, TrafficClass::Load, 1);
    EXPECT_EQ(p.counts()[WasteCat::Unclassified], 1.0);
    const auto c = finalizeCounts(p);
    EXPECT_EQ(c[WasteCat::Unclassified], 0.0);
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
    EXPECT_DEATH(p.load(100), "absent");
}

} // namespace wastesim
