/** Unit tests: the memory waste FSM with (address, id) refcounting
 *  (Fig. 4.3). */

#include <gtest/gtest.h>

#include <algorithm>

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

TEST(MemProfiler, SparseChunksAreEvacuated)
{
    // One instance in 64 stays on chip; the rest are used and evicted
    // at once.  A chunk whose ids are all handed out then holds 16
    // open records, so it is evacuated and freed: resident chunks stay
    // bounded however many instances pass through.  The long-lived
    // instance is each chunk's last id, so no later close in the chunk
    // triggers the release; starting the next chunk must.
    MemProfiler p;
    constexpr InstId n = 64 * 1024;
    std::size_t peak = 0;
    for (InstId i = 0; i < n; ++i) {
        const InstId id = p.create(i, false);
        p.addRef(id);
        if (i % 64 != 63) {
            p.used(id);
            p.dropRef(id, false);
        }
        peak = std::max(peak, p.residentChunks());
    }
    EXPECT_LE(peak, 2u);
    for (InstId i = 63; i < n; i += 64)
        ASSERT_EQ(p.refs(i), 1u) << "stray " << i;
    // The strays still classify: evict half, use the other half.
    for (InstId i = 63; i < n; i += 128)
        p.dropRef(i, false);
    for (InstId i = 127; i < n; i += 128)
        p.used(i);
    const auto c = p.finalize();
    EXPECT_EQ(c[WasteCat::Used], double(n - n / 64 + n / 128));
    EXPECT_EQ(c[WasteCat::Evict], double(n / 128));
    EXPECT_EQ(c[WasteCat::Unevicted], 0.0);
}

TEST(MemProfiler, WarmUpInstancesKeepOnlyACopyCount)
{
    // Told that an epoch is coming, the profiler keeps no record and
    // no line head for an instance created before it, only its copy
    // count; the window's instances are profiled as usual.
    MemProfiler p;
    p.expectEpoch();
    constexpr InstId warm = 3000; // ends inside the third chunk
    for (InstId i = 0; i < warm; ++i) {
        const InstId id = p.create(100 + i % 40, i % 3 == 0);
        p.addRef(id);
        if (i % 2 == 0)
            p.addRef(id);
        p.used(id);
    }
    p.storeAddr(100);
    EXPECT_EQ(p.residentChunks(), 0u);
    EXPECT_EQ(p.lineHeads(), 0u);
    EXPECT_EQ(p.refs(0), 2u);
    EXPECT_EQ(p.refs(1), 1u);
    EXPECT_EQ(p.counts()[WasteCat::Unevicted], double(warm));

    p.markEpoch();
    EXPECT_EQ(p.residentChunks(), 1u); // the window's part of chunk 2
    const InstId hot = p.create(100, true);
    EXPECT_EQ(hot, warm);
    p.addRef(hot);
    const InstId cold = p.create(101, false);
    p.addRef(cold);
    p.storeAddr(101);
    p.dropRef(0, false);
    p.dropRef(0, true);
    EXPECT_EQ(p.refs(0), 0u);
    p.addRef(0); // a warm-up id re-installed after its last copy died
    EXPECT_EQ(p.refs(0), 1u);
    p.dropRef(0, false);
    EXPECT_EQ(p.lineHeads(), 1u);

    const auto c = p.finalize();
    EXPECT_EQ(c[WasteCat::Fetch], 1.0);
    EXPECT_EQ(c[WasteCat::Write], 1.0);
    EXPECT_EQ(c.total(), 2.0);
}

TEST(MemProfiler, WarmUpCountChunksAreEvacuated)
{
    // Warm-up copies die at once except one in 64, which stays on
    // chip.  A full count chunk then holds 16 nonzero counts, so it is
    // freed and those counts move to the side table, exactly.
    MemProfiler p;
    p.expectEpoch();
    constexpr InstId n = 64 * 1024;
    std::size_t peak = 0;
    for (InstId i = 0; i < n; ++i) {
        const InstId id = p.create(i, false);
        p.addRef(id);
        if (i % 64 != 63)
            p.dropRef(id, false);
        peak = std::max(peak, p.residentCountChunks());
    }
    EXPECT_LE(peak, 2u);
    EXPECT_EQ(p.residentChunks(), 0u);
    for (InstId i = 0; i < n; ++i)
        ASSERT_EQ(p.refs(i), i % 64 == 63 ? 1u : 0u) << "id " << i;
    p.markEpoch();
    for (InstId i = 63; i < n; i += 64)
        p.dropRef(i, false);
    EXPECT_EQ(p.finalize().total(), 0.0);
}

namespace
{

constexpr Addr strayWordBase = 1000;
constexpr InstId keptId = 5;   //!< word 1005, two copies
constexpr InstId storedId = 6; //!< word 1006, one copy

/** Fill chunk 0 and close all but keptId and storedId, so the chunk
 *  is evacuated and both survive as strays. */
void
evacuateFirstChunk(MemProfiler &p)
{
    constexpr InstId chunk = 1024;
    for (InstId i = 0; i < chunk; ++i)
        p.addRef(p.create(strayWordBase + i, false));
    p.addRef(keptId);
    ASSERT_EQ(p.residentChunks(), 1u);
    for (InstId i = 0; i < chunk; ++i) {
        if (i == keptId || i == storedId)
            continue;
        p.used(i);
        p.dropRef(i, false); // the last 126 close as strays
    }
    ASSERT_EQ(p.residentChunks(), 0u);
}

} // namespace

TEST(MemProfiler, EvacuatedStrayKeepsItsState)
{
    MemProfiler p;
    evacuateFirstChunk(p);
    EXPECT_EQ(p.refs(keptId), 2u);
    EXPECT_EQ(p.refs(storedId), 1u);

    p.addRef(keptId);
    EXPECT_EQ(p.refs(keptId), 3u);
    p.used(keptId);
    p.dropRef(keptId, false);
    p.dropRef(keptId, true);
    EXPECT_EQ(p.refs(keptId), 1u);

    // A new instance of the stray's word links in front of it; a store
    // write-classifies both, across the chunk and the stray map.
    const InstId fresh = p.create(strayWordBase + storedId, false);
    p.addRef(fresh);
    p.storeAddr(strayWordBase + storedId);
    p.dropRef(storedId, true);
    p.dropRef(fresh, false);
    EXPECT_EQ(p.refs(storedId), 0u);

    p.dropRef(keptId, false); // closes as Used
    EXPECT_EQ(p.refs(keptId), 0u);
    p.addRef(keptId); // re-installed after it closed
    EXPECT_EQ(p.refs(keptId), 1u);
    p.dropRef(keptId, false);

    const auto c = p.finalize();
    EXPECT_EQ(c[WasteCat::Used], 1023.0);
    EXPECT_EQ(c[WasteCat::Write], 2.0);
    EXPECT_EQ(c.total(), 1025.0);
}

TEST(MemProfilerDeath, ExtraDropOfEvacuatedStrayPanics)
{
    MemProfiler p;
    evacuateFirstChunk(p);
    p.dropRef(keptId, false);
    p.dropRef(keptId, false);
    EXPECT_DEATH(p.dropRef(keptId, false), "zero refs");
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

TEST(MemProfilerDeath, WarmUpDropWithoutRefPanics)
{
    // A warm-up id whose count chunk is still resident.
    MemProfiler p;
    p.expectEpoch();
    const InstId i = p.create(100, false);
    p.addRef(i);
    p.dropRef(i, false);
    ASSERT_EQ(p.residentCountChunks(), 1u);
    EXPECT_DEATH(p.dropRef(i, false), "zero refs");
    p.markEpoch();
    EXPECT_DEATH(p.dropRef(i, false), "zero refs");
}

TEST(MemProfilerDeath, WarmUpDropInEvacuatedChunkPanics)
{
    // Chunk 0's ids are all handed out and all but one copy died, so
    // the chunk was freed: the survivor's count lives in the side
    // table, and the zero-refs check still holds on both sides of it.
    MemProfiler p;
    p.expectEpoch();
    for (InstId i = 0; i <= 1024; ++i)
        p.addRef(p.create(100 + i, false));
    for (InstId i = 0; i < 1024; ++i)
        if (i != 7)
            p.dropRef(i, false);
    ASSERT_EQ(p.residentCountChunks(), 1u); // only chunk 1
    EXPECT_EQ(p.refs(7), 1u);
    EXPECT_DEATH(p.dropRef(8, false), "zero refs");
    p.dropRef(7, false);
    EXPECT_EQ(p.refs(7), 0u);
    EXPECT_DEATH(p.dropRef(7, false), "zero refs");
}

TEST(MemProfilerDeath, ExpectedEpochNeverMarkedPanics)
{
    MemProfiler p;
    p.expectEpoch();
    p.addRef(p.create(100, false));
    EXPECT_DEATH(p.finalize(), "epoch was expected but never marked");
}

} // namespace wastesim
