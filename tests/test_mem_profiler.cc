/** Unit tests: the memory waste FSM with (address, id) refcounting
 *  (Fig. 4.3). */

#include <gtest/gtest.h>

#include "profile/mem_profiler.hh"

namespace wastesim
{

TEST(MemProfiler, UsedOnLoad)
{
    MemProfiler p;
    const InstId i = p.create(100, false);
    p.addRef(i);
    p.used(i);
    const auto c = p.finalize();
    EXPECT_EQ(c[WasteCat::Used], 1.0);
}

TEST(MemProfiler, FetchWhenAddressPresentInL2)
{
    MemProfiler p;
    p.create(100, true);
    const auto c = p.finalize();
    EXPECT_EQ(c[WasteCat::Fetch], 1.0);
}

TEST(MemProfiler, StoreClassifiesAllInstancesOfAddress)
{
    MemProfiler p;
    const InstId a = p.create(100, false);
    const InstId b = p.create(100, false); // second fetch, same addr
    p.addRef(a);
    p.addRef(b);
    p.storeAddr(100);
    const auto c = p.finalize();
    EXPECT_EQ(c[WasteCat::Write], 2.0);
}

TEST(MemProfiler, EvictWhenLastCopyDies)
{
    MemProfiler p;
    const InstId i = p.create(100, false);
    p.addRef(i);
    p.addRef(i); // two on-chip copies (L1 + L2)
    p.dropRef(i, false);
    {
        const auto c = p.counts();
        EXPECT_EQ(c[WasteCat::Unclassified] + c[WasteCat::Unevicted],
                  1.0); // still open: one copy lives
    }
    p.dropRef(i, false);
    const auto c = p.finalize();
    EXPECT_EQ(c[WasteCat::Evict], 1.0);
}

TEST(MemProfiler, InvalidateWhenLastCopyInvalidated)
{
    MemProfiler p;
    const InstId i = p.create(100, false);
    p.addRef(i);
    p.dropRef(i, true);
    const auto c = p.finalize();
    EXPECT_EQ(c[WasteCat::Invalidate], 1.0);
}

TEST(MemProfiler, UsedSticksThroughDrop)
{
    MemProfiler p;
    const InstId i = p.create(100, false);
    p.addRef(i);
    p.used(i);
    p.dropRef(i, false);
    const auto c = p.finalize();
    EXPECT_EQ(c[WasteCat::Used], 1.0);
    EXPECT_EQ(c[WasteCat::Evict], 0.0);
}

TEST(MemProfiler, UnevictedAtEnd)
{
    MemProfiler p;
    const InstId i = p.create(100, false);
    p.addRef(i);
    const auto c = p.finalize();
    EXPECT_EQ(c[WasteCat::Unevicted], 1.0);
}

TEST(MemProfiler, ExcessCounted)
{
    MemProfiler p;
    p.excess(12);
    const auto c = p.finalize();
    EXPECT_EQ(c[WasteCat::Excess], 12.0);
}

TEST(MemProfiler, EpochExcludesWarmupAndExcess)
{
    MemProfiler p;
    p.excess(5);
    const InstId warm = p.create(100, false);
    p.addRef(warm);
    p.used(warm);
    p.markEpoch();
    p.excess(2);
    const InstId hot = p.create(200, false);
    p.addRef(hot);
    const auto c = p.finalize();
    EXPECT_EQ(c[WasteCat::Used], 0.0);
    EXPECT_EQ(c[WasteCat::Unevicted], 1.0);
    EXPECT_EQ(c[WasteCat::Excess], 2.0);
}

TEST(MemProfiler, StoreOnlyAffectsOpenInstances)
{
    MemProfiler p;
    const InstId i = p.create(100, false);
    p.addRef(i);
    p.used(i);
    p.storeAddr(100);
    const auto c = p.finalize();
    EXPECT_EQ(c[WasteCat::Used], 1.0);
}

TEST(MemProfiler, IgnoresInvalidInstId)
{
    MemProfiler p;
    p.addRef(invalidInst);
    p.used(invalidInst);
    p.dropRef(invalidInst, false);
    EXPECT_EQ(p.finalize().total(), 0.0);
}

TEST(MemProfiler, ReinstallAfterCloseKeepsCategory)
{
    // The MESI evict buffer hands a line's ids to the L2 after the L1
    // dropped its refs: the closed instance is installed again.
    MemProfiler p;
    const InstId i = p.create(100, false);
    p.addRef(i);
    p.dropRef(i, false); // closes as Evict
    p.addRef(i);
    EXPECT_EQ(p.refs(i), 1u);
    p.used(i);
    p.storeAddr(100);
    p.dropRef(i, true);
    EXPECT_EQ(p.refs(i), 0u);
    const auto c = p.finalize();
    EXPECT_EQ(c[WasteCat::Evict], 1.0);
    EXPECT_EQ(c.total(), 1.0);
}

TEST(MemProfiler, IdsKeepRisingAfterInstancesClose)
{
    // Closed instances release their chunks; ids are never reused.
    MemProfiler p;
    for (InstId n = 0; n < 5000; ++n) {
        const InstId i = p.create(n, false);
        EXPECT_EQ(i, n);
        p.addRef(i);
        p.used(i);
        p.dropRef(i, false);
    }
    EXPECT_EQ(p.numInstances(), 5000u);
    EXPECT_EQ(p.finalize()[WasteCat::Used], 5000.0);
}

TEST(MemProfilerDeath, DropAfterReinstallDropsPanics)
{
    MemProfiler p;
    const InstId i = p.create(100, false);
    p.addRef(i);
    p.dropRef(i, false);
    p.addRef(i);
    p.dropRef(i, false);
    EXPECT_DEATH(p.dropRef(i, false), "zero refs");
}

TEST(MemProfilerDeath, FinalizeTwicePanics)
{
    MemProfiler p;
    p.finalize();
    EXPECT_DEATH(p.finalize(), "finalized twice");
}

TEST(MemProfilerDeath, DropWithoutRefPanics)
{
    MemProfiler p;
    const InstId i = p.create(100, false);
    EXPECT_DEATH(p.dropRef(i, false), "zero refs");
}

} // namespace wastesim
