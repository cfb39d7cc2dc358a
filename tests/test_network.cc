/** Unit tests: network flit sizing, latency, traffic attribution. */

#include <gtest/gtest.h>

#include "noc/network.hh"
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

Message
ctlMsg(Endpoint src, Endpoint dst, TrafficClass cls, CtlType t)
{
    Message m;
    m.kind = MsgKind::GetS;
    m.src = src;
    m.dst = dst;
    m.line = 1 << 20;
    m.cls = cls;
    m.ctl = t;
    return m;
}

} // namespace

TEST(Network, ControlMessageIsOneFlit)
{
    EventQueue eq;
    TrafficRecorder tr;
    Network net(eq, tr);
    Sink sink;
    net.attach(l2Ep(15), &sink);

    net.send(ctlMsg(l1Ep(0), l2Ep(15), TrafficClass::Load,
                    CtlType::ReqCtl));
    eq.run();

    ASSERT_EQ(sink.received.size(), 1u);
    EXPECT_EQ(sink.received[0].hops, 7u); // manhattan 6 + ejection
    EXPECT_DOUBLE_EQ(tr.stats().ldReqCtl, 7.0);
    EXPECT_DOUBLE_EQ(tr.rawFlitHops(), 7.0);
}

TEST(Network, LatencyModel)
{
    EventQueue eq;
    TrafficRecorder tr;
    Network net(eq, tr, 3);
    Sink sink;
    net.attach(l2Ep(15), &sink);
    net.send(ctlMsg(l1Ep(0), l2Ep(15), TrafficClass::Load,
                    CtlType::ReqCtl));
    eq.run();
    // 7 hops x 3 cycles, single flit: 21 cycles.
    EXPECT_EQ(eq.now(), 21u);
}

TEST(Network, DataSerializationDelay)
{
    EventQueue eq;
    TrafficRecorder tr;
    Network net(eq, tr, 3);
    Sink sink;
    net.attach(l1Ep(1), &sink);

    Message m = ctlMsg(l2Ep(0), l1Ep(1), TrafficClass::Load,
                       CtlType::RespCtl);
    m.kind = MsgKind::Data;
    m.chunks.emplace_back(m.line, WordMask::full());
    net.send(std::move(m));
    eq.run();
    // 2 hops x 3 + (5 flits - 1) = 10.
    EXPECT_EQ(eq.now(), 10u);
}

TEST(Network, FullLinePayloadFlitHops)
{
    EventQueue eq;
    TrafficRecorder tr;
    Network net(eq, tr);
    Sink sink;
    net.attach(l1Ep(1), &sink);

    Message m = ctlMsg(l2Ep(0), l1Ep(1), TrafficClass::Load,
                       CtlType::RespCtl);
    m.kind = MsgKind::Data;
    m.chunks.emplace_back(m.line, WordMask::full());
    net.send(std::move(m));
    eq.run();

    // 16 words = 4 data flits + 1 control, hops = 2: raw = 10.
    EXPECT_DOUBLE_EQ(tr.rawFlitHops(), 10.0);
    // Control charged at send: 1 flit x 2 hops (no unfilled).
    EXPECT_DOUBLE_EQ(tr.stats().ldRespCtl, 2.0);
}

TEST(Network, UnfilledFlitFractionChargedToControl)
{
    EventQueue eq;
    TrafficRecorder tr;
    Network net(eq, tr);
    Sink sink;
    net.attach(l1Ep(1), &sink);

    Message m = ctlMsg(l2Ep(0), l1Ep(1), TrafficClass::Load,
                       CtlType::RespCtl);
    m.kind = MsgKind::Data;
    m.chunks.emplace_back(m.line, WordMask::range(0, 5)); // 5 words
    net.send(std::move(m));
    eq.run();

    // 5 words -> 2 data flits, 3/4 of the last unfilled.
    // ctl = (1 + 0.75) x 2 hops = 3.5.
    EXPECT_DOUBLE_EQ(tr.stats().ldRespCtl, 3.5);
    EXPECT_DOUBLE_EQ(tr.rawFlitHops(), 6.0); // 3 flits x 2 hops
}

TEST(Network, WritebackDataAttributedAtSend)
{
    EventQueue eq;
    TrafficRecorder tr;
    Network net(eq, tr);
    Sink sink;
    net.attach(l2Ep(1), &sink);

    Message m = ctlMsg(l1Ep(0), l2Ep(1), TrafficClass::Writeback,
                       CtlType::WbControl);
    m.kind = MsgKind::PutX;
    LineChunk chunk(m.line, WordMask::full());
    chunk.dirty = WordMask::range(0, 4);
    m.chunks.push_back(chunk);
    net.send(std::move(m));
    eq.run();

    // 4 dirty (used) + 12 clean (waste) words at hops=2, 1/4 each.
    EXPECT_DOUBLE_EQ(tr.stats().wbL2Used, 2.0);
    EXPECT_DOUBLE_EQ(tr.stats().wbL2Waste, 6.0);
}

TEST(Network, WritebackToMemoryUsesMemBuckets)
{
    EventQueue eq;
    TrafficRecorder tr;
    Network net(eq, tr);
    Sink sink;
    net.attach(mcEp(0), &sink);

    Message m = ctlMsg(l2Ep(1), mcEp(0), TrafficClass::Writeback,
                       CtlType::WbControl);
    m.kind = MsgKind::MemWrite;
    LineChunk chunk(m.line, WordMask::range(0, 8));
    chunk.dirty = WordMask::range(0, 8);
    m.chunks.push_back(chunk);
    net.send(std::move(m));
    eq.run();

    EXPECT_GT(tr.stats().wbMemUsed, 0.0);
    EXPECT_DOUBLE_EQ(tr.stats().wbMemWaste, 0.0);
}

TEST(Network, RawBlobChargedAsControl)
{
    EventQueue eq;
    TrafficRecorder tr;
    Network net(eq, tr);
    Sink sink;
    net.attach(l1Ep(0), &sink);

    Message m = ctlMsg(l2Ep(5), l1Ep(0), TrafficClass::Overhead,
                       CtlType::OhBloom);
    m.kind = MsgKind::BloomCopyResp;
    m.chunks.setRaw(std::array<std::uint32_t, 16>{}); // a 64-byte image
    net.send(std::move(m));
    eq.run();

    const unsigned hops = Mesh{}.hops(5, 0);
    // 1 ctl + 4 data flits, all charged to the Bloom bucket.
    EXPECT_DOUBLE_EQ(tr.stats().ohBloom, 5.0 * hops);
    EXPECT_DOUBLE_EQ(tr.rawFlitHops(), 5.0 * hops);
}

TEST(Network, MultiChunkPayloadCounted)
{
    EventQueue eq;
    TrafficRecorder tr;
    Network net(eq, tr);
    Sink sink;
    net.attach(l1Ep(0), &sink);

    Message m = ctlMsg(l1Ep(3), l1Ep(0), TrafficClass::Load,
                       CtlType::RespCtl);
    m.kind = MsgKind::DnLoadResp;
    m.chunks.emplace_back(1 << 20, WordMask::range(0, 6));
    m.chunks.emplace_back((1 << 20) + 64, WordMask::range(0, 6));
    net.send(std::move(m));
    eq.run();

    ASSERT_EQ(sink.received.size(), 1u);
    EXPECT_EQ(sink.received[0].words(), 12u);
    EXPECT_EQ(sink.received[0].dataFlits(), 3u);
}

TEST(Network, MessageCountTracked)
{
    EventQueue eq;
    TrafficRecorder tr;
    Network net(eq, tr);
    Sink sink;
    net.attach(l2Ep(0), &sink);
    for (int i = 0; i < 5; ++i)
        net.send(ctlMsg(l1Ep(0), l2Ep(0), TrafficClass::Load,
                        CtlType::ReqCtl));
    eq.run();
    EXPECT_EQ(net.messagesSent(), 5u);
}

} // namespace wastesim
