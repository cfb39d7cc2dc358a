/** Unit tests: the DeNovo write-combining table (Section 4.2). */

#include <gtest/gtest.h>

#include "protocol/denovo/write_combine.hh"

namespace wastesim
{

namespace
{

struct Harness
{
    EventQueue eq;
    std::vector<std::pair<Addr, WordMask>> flushes;

    WriteCombineTable
    make(unsigned entries = 32, Tick timeout = 10000)
    {
        return WriteCombineTable(
            eq, entries, timeout,
            [this](Addr l, WordMask w) { flushes.emplace_back(l, w); });
    }
};

} // namespace

TEST(WriteCombine, BatchesWordsOfALine)
{
    Harness h;
    auto wc = h.make();
    wc.write(0x1000, 0);
    wc.write(0x1000, 1);
    wc.write(0x1000, 5);
    EXPECT_TRUE(h.flushes.empty());
    EXPECT_EQ(wc.pendingFor(0x1000).count(), 3u);
    EXPECT_EQ(wc.size(), 1u);
}

TEST(WriteCombine, FullLineFlushesImmediately)
{
    Harness h;
    auto wc = h.make();
    for (unsigned w = 0; w < wordsPerLine; ++w)
        wc.write(0x1000, w);
    ASSERT_EQ(h.flushes.size(), 1u);
    EXPECT_EQ(h.flushes[0].first, 0x1000u);
    EXPECT_TRUE(h.flushes[0].second.isFull());
    EXPECT_EQ(wc.flushFullLine, 1u);
    EXPECT_EQ(wc.size(), 0u);
}

TEST(WriteCombine, TimeoutFlushes)
{
    Harness h;
    auto wc = h.make(32, 10000);
    wc.write(0x1000, 3);
    h.eq.run(9999);
    EXPECT_TRUE(h.flushes.empty());
    h.eq.run(10001);
    ASSERT_EQ(h.flushes.size(), 1u);
    EXPECT_EQ(wc.flushTimeout, 1u);
}

TEST(WriteCombine, TimeoutOfFlushedEntryIsInert)
{
    // Every way out before the timeout cancels the entry's timer, so
    // no dead timer is left in the queue to fire later.
    Harness h;
    auto wc = h.make(2, 100);
    wc.write(0x1000, 0);
    EXPECT_EQ(h.eq.pending(), 1u);
    wc.flushAll();
    ASSERT_EQ(h.flushes.size(), 1u);
    EXPECT_EQ(h.eq.pending(), 0u);

    wc.write(0x1000, 0);
    EXPECT_EQ(wc.takeLine(0x1000).count(), 1u);
    EXPECT_EQ(h.eq.pending(), 0u);

    for (unsigned w = 0; w < wordsPerLine; ++w)
        wc.write(0x2000, w);
    ASSERT_EQ(h.flushes.size(), 2u);
    EXPECT_EQ(h.eq.pending(), 0u);

    wc.write(0x3000, 0);
    wc.write(0x4000, 0);
    wc.write(0x5000, 0); // capacity force-flushes 0x3000
    ASSERT_EQ(h.flushes.size(), 3u);
    EXPECT_EQ(h.flushes[2].first, 0x3000u);
    EXPECT_EQ(h.eq.pending(), wc.size()); // one timer per live entry
    wc.flushAll();
    EXPECT_EQ(h.eq.pending(), 0u);

    h.eq.run();
    EXPECT_EQ(h.flushes.size(), 5u);
    EXPECT_EQ(wc.flushTimeout, 0u);
    EXPECT_EQ(h.eq.now(), 0u);
}

TEST(WriteCombine, TimeoutGenerationsDistinct)
{
    Harness h;
    auto wc = h.make(32, 100);
    wc.write(0x1000, 0);
    wc.flushAll(); // the first entry's timer is cancelled with it
    EXPECT_EQ(h.eq.pending(), 0u);
    // A later entry for the same line runs on its own timer, which
    // fires at t=150.
    h.eq.schedule(50, [&] { wc.write(0x1000, 1); });
    h.eq.run(149);
    EXPECT_EQ(h.flushes.size(), 1u);
    EXPECT_EQ(h.eq.pending(), 1u);
    h.eq.run();
    ASSERT_EQ(h.flushes.size(), 2u);
    EXPECT_TRUE(h.flushes[1].second.test(1));
    EXPECT_EQ(wc.flushTimeout, 1u);
    EXPECT_EQ(h.eq.now(), 150u);
}

TEST(WriteCombine, TimeoutsFlushInArrivalOrder)
{
    Harness h;
    auto wc = h.make(32, 100);
    wc.write(0x1000, 0);
    h.eq.schedule(10, [&] { wc.write(0x2000, 0); });
    h.eq.schedule(20, [&] {
        wc.write(0x3000, 0);
        EXPECT_EQ(wc.takeLine(0x2000).count(), 1u);
        wc.write(0x1000, 1); // joins the first entry, keeps its timer
    });
    h.eq.run();
    ASSERT_EQ(h.flushes.size(), 2u);
    EXPECT_EQ(h.flushes[0].first, 0x1000u);
    EXPECT_EQ(h.flushes[0].second.count(), 2u);
    EXPECT_EQ(h.flushes[1].first, 0x3000u);
    EXPECT_EQ(wc.flushTimeout, 2u);
    EXPECT_EQ(h.eq.now(), 120u);
}

TEST(WriteCombine, CapacityForceFlushesOldest)
{
    Harness h;
    auto wc = h.make(2, 10000);
    wc.write(0x1000, 0);
    wc.write(0x2000, 0);
    wc.write(0x3000, 0); // evicts the 0x1000 entry
    ASSERT_EQ(h.flushes.size(), 1u);
    EXPECT_EQ(h.flushes[0].first, 0x1000u);
    EXPECT_EQ(wc.flushCapacity, 1u);
    EXPECT_EQ(wc.size(), 2u);
    EXPECT_EQ(h.eq.pending(), 2u);
}

TEST(WriteCombine, ReleaseFlushesAll)
{
    Harness h;
    auto wc = h.make();
    wc.write(0x1000, 0);
    wc.write(0x2000, 1);
    wc.flushAll();
    EXPECT_EQ(h.flushes.size(), 2u);
    EXPECT_EQ(wc.flushRelease, 2u);
    EXPECT_EQ(wc.size(), 0u);
}

TEST(WriteCombine, TakeLineRemovesWithoutFlush)
{
    Harness h;
    auto wc = h.make();
    wc.write(0x1000, 2);
    wc.write(0x1000, 3);
    const WordMask taken = wc.takeLine(0x1000);
    EXPECT_EQ(taken.count(), 2u);
    EXPECT_TRUE(h.flushes.empty());
    EXPECT_TRUE(wc.takeLine(0x1000).empty());
}

TEST(WriteCombine, RadixStylePressureSplitsRegistrations)
{
    // The paper's radix pathology: more open lines than entries
    // splits what MESI would do with one ownership request.
    Harness h;
    auto wc = h.make(32, 1u << 30);
    for (unsigned pass = 0; pass < 2; ++pass)
        for (unsigned line = 0; line < 64; ++line)
            wc.write(0x10000 + line * 64, pass);
    // 64 lines over 32 entries: every line flushed at least once.
    EXPECT_GE(h.flushes.size(), 64u);
    EXPECT_GT(wc.flushCapacity, 0u);
    // The far timeouts sit in the overflow heap; force-flushed
    // entries took theirs out of it.
    EXPECT_EQ(h.eq.pending(), wc.size());
    EXPECT_EQ(h.eq.overflowSize(), wc.size());
}

} // namespace wastesim
