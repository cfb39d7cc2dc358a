/** Unit tests: memory controller filtering, Flex/Excess, dual
 *  delivery, bypass. */

#include <gtest/gtest.h>

#include "common/topology.hh"

#include "dram/memory_controller.hh"
#include "noc/network.hh"
#include "profile/mem_profiler.hh"
#include "profile/traffic.hh"
#include "sim/event_queue.hh"

namespace wastesim
{

namespace
{

class Sink : public MessageHandler
{
  public:
    void
    handle(Message msg) override
    {
        received.push_back(std::move(msg));
    }

    std::vector<Message> received;
};

struct McHarness
{
    EventQueue eq;
    TrafficRecorder tr;
    Network net{eq, tr};
    DramChannel dram{eq, DramMap{}};
    MemProfiler prof;
    Sink l1sink, l2sink;
    WordMask presentInL2;
    MemoryController mc{0,    eq,   net, dram, prof,
                        [this](Addr) { return presentInL2; }};

    /** Channel-0 line. */
    static Addr
    line(Addr n)
    {
        return n * numMemCtrls * bytesPerLine;
    }

    McHarness()
    {
        net.attach(mcEp(0), &mc);
        // Home slice of line(0) is slice 0.
        net.attach(l2Ep(Topology{}.homeSlice(line(0))), &l2sink);
        net.attach(l1Ep(5), &l1sink);
    }

    Message
    readReq(WordMask want, unsigned aux = 0,
            WordMask filter = WordMask::none())
    {
        Message m;
        m.kind = MsgKind::MemRead;
        m.src = l2Ep(Topology{}.homeSlice(line(0)));
        m.dst = mcEp(0);
        m.line = line(0);
        m.requester = 5;
        m.cls = TrafficClass::Load;
        m.ctl = CtlType::ReqCtl;
        m.aux = aux;
        LineChunk c(line(0));
        c.want = want;
        c.dirty = filter;
        m.chunks.push_back(c);
        return m;
    }
};

} // namespace

TEST(MemoryController, FullLineReadToL2)
{
    McHarness h;
    h.net.send(h.readReq(WordMask::full()));
    h.eq.run();
    ASSERT_EQ(h.l2sink.received.size(), 1u);
    EXPECT_TRUE(h.l1sink.received.empty());
    const Message &resp = h.l2sink.received[0];
    EXPECT_EQ(resp.kind, MsgKind::MemData);
    EXPECT_EQ(resp.words(), 16u);
    EXPECT_EQ(h.mc.wordsSent(), 16u);
    EXPECT_GT(resp.tMemDone, 0u);
    EXPECT_EQ(h.prof.numInstances(), 16u);
}

TEST(MemoryController, DirtyFilterSuppressesWords)
{
    McHarness h;
    h.net.send(h.readReq(WordMask::full(), 0, WordMask::range(0, 4)));
    h.eq.run();
    ASSERT_EQ(h.l2sink.received.size(), 1u);
    EXPECT_EQ(h.l2sink.received[0].words(), 12u);
    EXPECT_EQ(h.mc.excessWords(), 0u); // not flex: no Excess
}

TEST(MemoryController, DualDelivery)
{
    McHarness h;
    h.net.send(h.readReq(WordMask::full(), McFlag::toL1));
    h.eq.run();
    ASSERT_EQ(h.l2sink.received.size(), 1u);
    ASSERT_EQ(h.l1sink.received.size(), 1u);
    // One instance per word, shared between the two copies.
    EXPECT_EQ(h.prof.numInstances(), 16u);
    EXPECT_EQ(h.l1sink.received[0].chunks.lineRefs(0),
              h.l2sink.received[0].chunks.lineRefs(0));
}

TEST(MemoryController, BypassGoesToL1Only)
{
    McHarness h;
    h.net.send(h.readReq(WordMask::full(), McFlag::bypassL2));
    h.eq.run();
    EXPECT_TRUE(h.l2sink.received.empty());
    ASSERT_EQ(h.l1sink.received.size(), 1u);
    EXPECT_TRUE(h.l1sink.received[0].flag);
}

TEST(MemoryController, FlexDropsExcessWords)
{
    McHarness h;
    h.net.send(h.readReq(WordMask::range(0, 6), McFlag::flex));
    h.eq.run();
    ASSERT_EQ(h.l2sink.received.size(), 1u);
    EXPECT_EQ(h.l2sink.received[0].words(), 6u);
    EXPECT_EQ(h.mc.excessWords(), 10u);
    const auto c = h.prof.finalize();
    EXPECT_EQ(c[WasteCat::Excess], 10.0);
}

TEST(MemoryController, FlexSameRowRuleDropsFarChunks)
{
    McHarness h;
    Message m = h.readReq(WordMask::range(0, 4), McFlag::flex);
    // Second chunk in the same row: kept.
    LineChunk near_chunk(McHarness::line(1));
    near_chunk.want = WordMask::range(0, 4);
    m.chunks.push_back(near_chunk);
    // Third chunk in a different row: dropped.
    DramMap map;
    LineChunk far_chunk(McHarness::line(map.timing.linesPerRow));
    far_chunk.want = WordMask::range(0, 4);
    m.chunks.push_back(far_chunk);

    h.net.send(std::move(m));
    h.eq.run();
    ASSERT_EQ(h.l2sink.received.size(), 1u);
    EXPECT_EQ(h.l2sink.received[0].chunks.size(), 2u);
    EXPECT_EQ(h.mc.droppedChunks(), 1u);
    EXPECT_EQ(h.dram.reads(), 2u); // far line never read
}

TEST(MemoryController, PresenceMarksFetchWaste)
{
    McHarness h;
    h.presentInL2 = WordMask::full();
    h.net.send(h.readReq(WordMask::full()));
    h.eq.run();
    const auto c = h.prof.finalize();
    EXPECT_EQ(c[WasteCat::Fetch], 16.0);
}

TEST(MemoryController, PresenceIsPerWord)
{
    // Only the words the home L2 holds are Fetch waste; the rest of
    // the line opens instances that end Unevicted.
    McHarness h;
    h.presentInL2 = WordMask::range(4, 5);
    h.net.send(h.readReq(WordMask::full()));
    h.eq.run();
    const auto c = h.prof.finalize();
    EXPECT_EQ(c[WasteCat::Fetch], 5.0);
    EXPECT_EQ(c[WasteCat::Unevicted], 11.0);
}

TEST(MemoryController, WritesReachDram)
{
    McHarness h;
    Message m;
    m.kind = MsgKind::MemWrite;
    m.src = l2Ep(Topology{}.homeSlice(McHarness::line(0)));
    m.dst = mcEp(0);
    m.line = McHarness::line(0);
    m.cls = TrafficClass::Writeback;
    m.ctl = CtlType::WbControl;
    LineChunk c(McHarness::line(0), WordMask::range(0, 5));
    c.dirty = WordMask::range(0, 5);
    m.chunks.push_back(c);
    h.net.send(std::move(m));
    h.eq.run();
    EXPECT_EQ(h.dram.writes(), 1u);
    EXPECT_EQ(h.mc.wordsWritten(), 5u); // partial write support
}

TEST(MemoryController, ExclFlagPropagatesToResponse)
{
    McHarness h;
    h.net.send(h.readReq(WordMask::full(),
                         McFlag::toL1 | McFlag::bypassL2 |
                             McFlag::excl));
    h.eq.run();
    ASSERT_EQ(h.l1sink.received.size(), 1u);
    EXPECT_TRUE(h.l1sink.received[0].aux & McFlag::excl);
}

TEST(MemoryController, TimingStampsOrdered)
{
    McHarness h;
    h.net.send(h.readReq(WordMask::full()));
    h.eq.run();
    const Message &resp = h.l2sink.received.at(0);
    EXPECT_LE(resp.tMcArrive, resp.tMemDone);
    EXPECT_GT(resp.tMcArrive, 0u);
}

} // namespace wastesim
