/** Direct message-level unit tests of the DeNovo L2 slice:
 *  word serving, forwards, MSHR merging, registration semantics,
 *  write-validate vs fetch-on-write, and deregister corrections. */

#include <gtest/gtest.h>

#include "protocol/denovo/denovo_l2.hh"
#include "system/config.hh"

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
        if (log)
            log->emplace_back(id, msg.kind);
        received.push_back(std::move(msg));
    }

    /** Last message of a kind, or nullptr. */
    const Message *
    last(MsgKind k) const
    {
        for (auto it = received.rbegin(); it != received.rend(); ++it)
            if (it->kind == k)
                return &*it;
        return nullptr;
    }

    unsigned
    count(MsgKind k) const
    {
        unsigned n = 0;
        for (const auto &m : received)
            n += m.kind == k;
        return n;
    }

    std::vector<Message> received;
    /** Harness-wide delivery order: (L1 id, kind) per message. */
    std::vector<std::pair<unsigned, MsgKind>> *log = nullptr;
    unsigned id = 0;
};

struct L2Harness
{
    SimParams params = SimParams::scaled();
    ProtocolConfig cfg =
        ProtocolConfig::make(ProtocolName::DValidateL2);

    EventQueue eq;
    TrafficRecorder tr;
    Network net{eq, tr};
    WordProfiler prof{WordProfiler::Level::L2};
    MemProfiler memProf;
    std::unique_ptr<DenovoL2> l2;
    std::array<Sink, numTiles> l1s;
    std::array<Sink, numMemCtrls> mcs;
    std::vector<std::pair<unsigned, MsgKind>> l1Log;

    /** Slice-0 lines: line n with homeSlice == 0. */
    static Addr
    line(unsigned n)
    {
        // 256-byte slice interleave: lines 0..3 of every 4 KB stripe
        // are home to slice 0; stay inside the first group.
        return static_cast<Addr>(n) * numTiles *
               sliceInterleaveLines * bytesPerLine;
    }

    explicit L2Harness(ProtocolName p = ProtocolName::DValidateL2)
        : cfg(ProtocolConfig::make(p))
    {
        l2 = std::make_unique<DenovoL2>(0, cfg, params, eq, net, prof,
                                        memProf);
        net.attach(l2Ep(0), l2.get());
        for (unsigned i = 0; i < numTiles; ++i) {
            l1s[i].id = i;
            l1s[i].log = &l1Log;
            net.attach(l1Ep(i), &l1s[i]);
        }
        for (unsigned c = 0; c < numMemCtrls; ++c)
            net.attach(mcEp(c), &mcs[c]);
    }

    void
    reg(CoreId core, Addr la, WordMask words)
    {
        Message m;
        m.kind = MsgKind::DnReg;
        m.src = l1Ep(core);
        m.dst = l2Ep(0);
        m.line = la;
        m.mask = words;
        m.requester = core;
        m.cls = TrafficClass::Store;
        m.ctl = CtlType::ReqCtl;
        net.send(std::move(m));
        eq.run();
    }

    void
    loadReq(CoreId core, Addr la, WordMask want, bool bypass = false)
    {
        Message m;
        m.kind = MsgKind::DnLoadReq;
        m.src = l1Ep(core);
        m.dst = l2Ep(0);
        m.line = la;
        m.mask = want;
        m.requester = core;
        m.cls = TrafficClass::Load;
        m.ctl = CtlType::ReqCtl;
        m.flag = bypass;
        LineChunk c(la);
        c.want = want;
        m.chunks.push_back(c);
        net.send(std::move(m));
        eq.run();
    }

    /** L1s that received a message of kind @p k, in delivery order. */
    std::vector<unsigned>
    deliveredTo(MsgKind k) const
    {
        std::vector<unsigned> ids;
        for (const auto &[id, kind] : l1Log)
            if (kind == k)
                ids.push_back(id);
        return ids;
    }

    void
    wb(CoreId core, Addr la, WordMask words, bool combined = false,
       unsigned aux = 0)
    {
        Message m;
        m.kind = MsgKind::DnWb;
        m.src = l1Ep(core);
        m.dst = l2Ep(0);
        m.line = la;
        m.requester = core;
        m.cls = TrafficClass::Writeback;
        m.ctl = CtlType::WbControl;
        m.flag = combined;
        m.aux = aux;
        if (combined || aux == 2)
            m.mask = words;
        if (aux != 2) {
            LineChunk c(la, words);
            c.dirty = words;
            m.chunks.push_back(c);
        }
        net.send(std::move(m));
        eq.run();
    }
};

} // namespace

TEST(DenovoL2Unit, RegistrationAckAndState)
{
    L2Harness h;
    h.reg(3, L2Harness::line(0), WordMask::range(0, 4));

    const Message *ack = h.l1s[3].last(MsgKind::DnRegAck);
    ASSERT_NE(ack, nullptr);
    EXPECT_EQ(ack->mask, WordMask::range(0, 4));

    const DenovoL2Line *cl = h.l2->array().find(L2Harness::line(0));
    ASSERT_NE(cl, nullptr);
    for (unsigned w = 0; w < 4; ++w)
        EXPECT_EQ(cl->regOwner(w), 3u);
    EXPECT_EQ(cl->regOwner(4), invalidNode);
    // Write-validate: no memory fetch.
    for (const auto &mc : h.mcs)
        EXPECT_EQ(mc.count(MsgKind::MemRead), 0u);
}

TEST(DenovoL2Unit, FetchOnWriteBaselineFetchesLine)
{
    L2Harness h(ProtocolName::DeNovo);
    h.reg(3, L2Harness::line(0), WordMask::single(0));
    // Baseline DeNovo: registration to an absent line pulls the whole
    // line from memory first (Section 3.1, "L2 Write-Validate").
    const Message *rd = h.mcs[0].last(MsgKind::MemRead);
    ASSERT_NE(rd, nullptr);
    EXPECT_TRUE(rd->chunks.at(0).want.isFull());
    // The ack waits for the fill.
    EXPECT_EQ(h.l1s[3].count(MsgKind::DnRegAck), 0u);
}

TEST(DenovoL2Unit, ReRegistrationStealsAndInvalidatesOldOwner)
{
    L2Harness h;
    h.reg(3, L2Harness::line(0), WordMask::single(5));
    h.reg(7, L2Harness::line(0), WordMask::single(5));

    const Message *inv = h.l1s[3].last(MsgKind::DnRegInv);
    ASSERT_NE(inv, nullptr);
    EXPECT_TRUE(inv->mask.test(5));
    EXPECT_EQ(h.l2->array().find(L2Harness::line(0))->regOwner(5),
              7u);
}

TEST(DenovoL2Unit, LoadForwardedToRegistrant)
{
    L2Harness h;
    h.reg(3, L2Harness::line(0), WordMask::single(2));
    h.loadReq(9, L2Harness::line(0), WordMask::single(2));

    const Message *fwd = h.l1s[3].last(MsgKind::DnFwdLoadReq);
    ASSERT_NE(fwd, nullptr);
    EXPECT_EQ(fwd->requester, 9u);
    EXPECT_TRUE(fwd->mask.test(2));
    // Nothing needed from memory.
    for (const auto &mc : h.mcs)
        EXPECT_EQ(mc.count(MsgKind::MemRead), 0u);
}

TEST(DenovoL2Unit, MissingWordsGoToMemoryWithDirtyFilter)
{
    L2Harness h;
    h.reg(3, L2Harness::line(0), WordMask::single(2));
    h.loadReq(9, L2Harness::line(0), WordMask::full());

    const Message *rd = h.mcs[0].last(MsgKind::MemRead);
    ASSERT_NE(rd, nullptr);
    // The registered word must be filtered from the memory return.
    EXPECT_TRUE(rd->chunks.at(0).dirty.test(2));
}

TEST(DenovoL2Unit, ConcurrentLoadsMergeIntoOneFetch)
{
    L2Harness h;
    h.loadReq(1, L2Harness::line(0), WordMask::full());
    h.loadReq(2, L2Harness::line(0), WordMask::full());
    EXPECT_EQ(h.mcs[0].count(MsgKind::MemRead), 1u);
}

TEST(DenovoL2Unit, WritebackInstallsDirtyWords)
{
    L2Harness h;
    h.reg(3, L2Harness::line(0), WordMask::range(0, 2));
    h.wb(3, L2Harness::line(0), WordMask::range(0, 2));

    const DenovoL2Line *cl = h.l2->array().find(L2Harness::line(0));
    ASSERT_NE(cl, nullptr);
    EXPECT_TRUE(cl->validWords.test(0));
    EXPECT_TRUE(cl->dirtyWords.test(1));
    EXPECT_EQ(cl->regOwner(0), invalidNode); // ownership returned
    ASSERT_NE(h.l1s[3].last(MsgKind::DnWbAck), nullptr);
}

TEST(DenovoL2Unit, StaleWritebackLosesToNewerRegistration)
{
    L2Harness h;
    h.reg(3, L2Harness::line(0), WordMask::single(0));
    h.reg(7, L2Harness::line(0), WordMask::single(0)); // 7 owns now
    h.wb(3, L2Harness::line(0), WordMask::single(0));  // stale

    const DenovoL2Line *cl = h.l2->array().find(L2Harness::line(0));
    ASSERT_NE(cl, nullptr);
    EXPECT_EQ(cl->regOwner(0), 7u);          // unchanged
    EXPECT_FALSE(cl->validWords.test(0));    // stale data dropped
}

TEST(DenovoL2Unit, DeregisterCorrectionClearsOwnership)
{
    L2Harness h;
    h.reg(3, L2Harness::line(0), WordMask::single(4));
    h.wb(3, L2Harness::line(0), WordMask::single(4), false,
         /*aux=*/2); // deregister

    const DenovoL2Line *cl = h.l2->array().find(L2Harness::line(0));
    // The line became fully empty and was dropped.
    EXPECT_TRUE(!cl || cl->regOwner(4) == invalidNode);
}

TEST(DenovoL2Unit, BypassRequestFetchesToL1Only)
{
    L2Harness h(ProtocolName::DBypL2);
    h.loadReq(5, L2Harness::line(0), WordMask::range(0, 4),
              /*bypass=*/true);

    const Message *rd = h.mcs[0].last(MsgKind::MemRead);
    ASSERT_NE(rd, nullptr);
    EXPECT_TRUE(rd->aux & 2u /* McFlag::bypassL2 */);
    // No allocation in the slice.
    EXPECT_EQ(h.l2->array().find(L2Harness::line(0)), nullptr);
}

// An L2 sends forwards, invalidations and recalls in ascending owner
// order, never in a hash table's iteration order.  The registrants
// are all three hops from slice 0, so each group of messages is
// delivered at one tick in the order it was sent.
TEST(DenovoL2Unit, SendsToRegistrantsInOwnerOrder)
{
    L2Harness h;
    const Addr la = L2Harness::line(0);
    // Tiles 12, 3, 9 and 6 of the 4x4 mesh, registered out of order.
    const CoreId owners[] = {12, 3, 9, 6};
    const std::vector<unsigned> ascending{3, 6, 9, 12};
    auto register_all = [&] {
        for (unsigned w = 0; w < 4; ++w)
            h.reg(owners[w], la, WordMask::single(w));
    };
    register_all();

    h.loadReq(1, la, WordMask::range(0, 4));
    EXPECT_EQ(h.deliveredTo(MsgKind::DnFwdLoadReq), ascending);

    h.reg(1, la, WordMask::range(0, 4));
    EXPECT_EQ(h.deliveredTo(MsgKind::DnRegInv), ascending);

    // Register the words back, then fill line(0)'s set (every 8th
    // slice-0 line shares it) so the LRU victim is line(0).
    register_all();
    h.l1Log.clear();
    for (unsigned k = 1; k <= h.params.l2Ways; ++k)
        h.reg(2, L2Harness::line(8 * k), WordMask::single(0));
    EXPECT_EQ(h.deliveredTo(MsgKind::DnRecall), ascending);
    EXPECT_EQ(h.l2->recallsIssued(), 1u);
}

TEST(DenovoL2Unit, L2HitServedAndCountsReuse)
{
    L2Harness h;
    // Install words via a writeback, then read them back.
    h.reg(3, L2Harness::line(0), WordMask::range(0, 8));
    h.wb(3, L2Harness::line(0), WordMask::range(0, 8));
    h.loadReq(9, L2Harness::line(0), WordMask::range(0, 8));

    const Message *resp = h.l1s[9].last(MsgKind::DnLoadResp);
    ASSERT_NE(resp, nullptr);
    EXPECT_EQ(resp->words(), 8u);
    EXPECT_GT(h.l2->wordHits(), 0u);
}

TEST(DenovoL2Unit, BloomBankTracksRegisteredLines)
{
    L2Harness h(ProtocolName::DBypFull);
    EXPECT_FALSE(h.l2->bloom().maybeContains(L2Harness::line(0)));
    h.reg(3, L2Harness::line(0), WordMask::single(0));
    EXPECT_TRUE(h.l2->bloom().maybeContains(L2Harness::line(0)));
}

TEST(DenovoL2Unit, BloomCopyRespondsWithImage)
{
    L2Harness h(ProtocolName::DBypFull);
    Message m;
    m.kind = MsgKind::BloomCopyReq;
    m.src = l1Ep(4);
    m.dst = l2Ep(0);
    m.line = L2Harness::line(0);
    m.requester = 4;
    m.cls = TrafficClass::Overhead;
    m.ctl = CtlType::OhBloom;
    m.aux = 0;
    h.net.send(std::move(m));
    h.eq.run();

    const Message *resp = h.l1s[4].last(MsgKind::BloomCopyResp);
    ASSERT_NE(resp, nullptr);
    EXPECT_EQ(resp->chunks.rawWords(), 16u); // a 64-byte image
    EXPECT_EQ(resp->chunks.raw<BloomImage>(), h.l2->bloom().image(0));
}

} // namespace wastesim
