/** Unit tests: a Payload keeps one instance id per payload word in
 *  payload order (chunk order, then ascending word order within each
 *  chunk's mask), and every id reaches the right word of the line
 *  that receives it — through Message copies and moves, the network
 *  pool, and the memory controller's and DeNovo L1's handlers. */

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "dram/memory_controller.hh"
#include "noc/network.hh"
#include "profile/mem_profiler.hh"
#include "profile/traffic.hh"
#include "profile/word_profiler.hh"
#include "protocol/denovo/denovo_l1.hh"
#include "sim/event_queue.hh"
#include "system/config.hh"
#include "workload/region_table.hh"

namespace wastesim
{

namespace
{

/** (line, word, id) of one payload word, in payload order. */
struct WordRef
{
    Addr line;
    unsigned word;
    InstId id;
};

/** Every payload word of @p p with its id, walking chunks in order
 *  and each chunk's mask upwards. */
std::vector<WordRef>
wordRefs(const Payload &p)
{
    std::vector<WordRef> out;
    for (unsigned i = 0; i < p.size(); ++i) {
        const auto refs = p.lineRefs(i);
        for (unsigned w = 0; w < wordsPerLine; ++w)
            if (p[i].mask.test(w))
                out.push_back({p[i].line, w, refs[w]});
    }
    return out;
}

void
expectSameRefs(const Payload &a, const Payload &b)
{
    const auto ra = wordRefs(a), rb = wordRefs(b);
    ASSERT_EQ(ra.size(), rb.size());
    for (std::size_t k = 0; k < ra.size(); ++k) {
        EXPECT_EQ(ra[k].line, rb[k].line) << "word " << k;
        EXPECT_EQ(ra[k].word, rb[k].word) << "word " << k;
        EXPECT_EQ(ra[k].id, rb[k].id) << "word " << k;
    }
}

/** Two lines, non-contiguous masks, one word without an instance:
 *  id 100 + 10 * chunk + word, or invalidInst for line 1 word 6. */
Payload
twoLinePayload()
{
    Payload p;
    std::array<InstId, wordsPerLine> refs{};
    WordMask first;
    for (unsigned w : {1u, 3u, 4u, 9u, 15u}) {
        first.set(w);
        refs[w] = 100 + w;
    }
    p.push_back(LineChunk(0x4000, first), refs);
    WordMask second;
    for (unsigned w : {0u, 6u, 11u}) {
        second.set(w);
        refs[w] = 110 + w;
    }
    refs[6] = invalidInst;
    p.push_back(LineChunk(0x4040, second), refs);
    return p;
}

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

/** A DeNovo L1 (core 5) behind a 4x4 network with memory channel 0. */
struct L1Harness
{
    SimParams params = SimParams::scaled();
    ProtocolConfig cfg = ProtocolConfig::make(ProtocolName::DFlexL2);
    RegionTable regions;
    EventQueue eq;
    TrafficRecorder tr;
    Network net{eq, tr};
    WordProfiler prof{WordProfiler::Level::L1};
    MemProfiler memProf;
    DramChannel dram{eq, DramMap{}};
    DenovoL1 l1{5, cfg, params, eq, net, prof, memProf, regions};
    MemoryController mc{0, eq, net, dram, memProf,
                        [](Addr) { return WordMask::none(); }};

    /** Consecutive lines of memory channel 0 (one DRAM row). */
    static Addr
    line(Addr n)
    {
        return n * numMemCtrls * bytesPerLine;
    }

    L1Harness()
    {
        net.attach(l1Ep(5), &l1);
        net.attach(mcEp(0), &mc);
    }

    /** Instance the L1 holds for word @p w of @p line_addr. */
    InstId
    heldRef(Addr line_addr, unsigned w) const
    {
        const DenovoL1Line *cl = l1.array().find(line_addr);
        return cl && cl->validWords.test(w) ? cl->memRef[w] : invalidInst;
    }
};

} // namespace

/** Line-indexed ids: @p ids at the words of @p mask, in ascending
 *  word order; invalidInst elsewhere. */
std::array<InstId, wordsPerLine>
lineIds(WordMask mask, std::vector<InstId> ids)
{
    std::array<InstId, wordsPerLine> out;
    out.fill(invalidInst);
    std::size_t k = 0;
    for (unsigned w = 0; w < wordsPerLine; ++w)
        if (mask.test(w))
            out[w] = ids.at(k++);
    EXPECT_EQ(k, ids.size());
    return out;
}

TEST(Payload, IdsFollowChunkThenWordOrder)
{
    const Payload p = twoLinePayload();
    const WordMask m0 = p[0].mask, m1 = p[1].mask;
    EXPECT_EQ(p.size(), 2u);
    EXPECT_EQ(p.words(), 8u);
    EXPECT_EQ(p.rawWords(), 0u);
    EXPECT_EQ(p.lineRefs(0), lineIds(m0, {101, 103, 104, 109, 115}));
    EXPECT_EQ(p.lineRefs(1), lineIds(m1, {110, invalidInst, 121}));

    // A chunk without ids carries invalidInst slots and leaves the
    // earlier chunks' ids where they were.
    Payload q = p;
    q.push_back(LineChunk(0x4080, WordMask::range(2, 3)));
    EXPECT_EQ(q.words(), 11u);
    EXPECT_EQ(q.lineRefs(2), lineIds(WordMask(), {}));
    EXPECT_EQ(q.lineRefs(1), p.lineRefs(1));
    q.push_back(LineChunk(0x40c0, WordMask::single(5)),
                lineIds(WordMask::single(5), {7}));
    EXPECT_EQ(q.words(), 12u);
    EXPECT_EQ(q.lineRefs(3), lineIds(WordMask::single(5), {7}));

    // Dropping chunks drops their ids and shifts the later ones.
    const unsigned dropped = q.eraseIf([](const LineChunk &c) {
        return c.line == 0x4040 || c.line == 0x4080;
    });
    EXPECT_EQ(dropped, 2u);
    EXPECT_EQ(q.size(), 2u);
    EXPECT_EQ(q.words(), 6u);
    EXPECT_EQ(q.lineRefs(0), p.lineRefs(0));
    EXPECT_EQ(q.lineRefs(1), lineIds(WordMask::single(5), {7}));

    // Regrouping chunk by chunk keeps each chunk's ids.
    Payload r;
    r.appendFrom(p, 1);
    r.appendFrom(p, 0);
    EXPECT_EQ(r.lineRefs(0), p.lineRefs(1));
    EXPECT_EQ(r.lineRefs(1), p.lineRefs(0));
}

TEST(Payload, IdsSurviveCopyMoveAndPool)
{
    Message m;
    m.kind = MsgKind::DnLoadResp;
    m.src = l2Ep(3);
    m.dst = l1Ep(12);
    m.line = 0x4000;
    m.cls = TrafficClass::Load;
    m.ctl = CtlType::RespCtl;
    m.chunks = twoLinePayload();
    const Payload want = m.chunks;

    Message copy = m;
    expectSameRefs(copy.chunks, want);
    Message moved = std::move(copy);
    expectSameRefs(moved.chunks, want);
    Message assigned;
    assigned = moved;
    expectSameRefs(assigned.chunks, want);
    assigned = std::move(moved);
    expectSameRefs(assigned.chunks, want);

    EventQueue eq;
    TrafficRecorder tr;
    Network net(eq, tr);
    Sink sink;
    net.attach(l1Ep(12), &sink);
    net.sendAfter(7, std::move(assigned));
    net.send(m);
    eq.run();
    ASSERT_EQ(sink.received.size(), 2u);
    for (const Message &got : sink.received) {
        EXPECT_EQ(got.words(), 8u);
        EXPECT_EQ(got.dataFlits(), 2u);
        expectSameRefs(got.chunks, want);
    }
    EXPECT_EQ(net.msgPoolFreeSlots(), net.msgPoolSlots());
}

TEST(Payload, RawImageSharesTheWordSlots)
{
    std::array<std::uint64_t, 8> img{};
    for (unsigned i = 0; i < img.size(); ++i)
        img[i] = 0x0101010101010101ull * (i + 1);
    Payload p;
    p.setRaw(img);
    EXPECT_TRUE(p.empty());
    EXPECT_EQ(p.words(), maxWordsPerMsg);
    EXPECT_EQ(p.rawWords(), maxWordsPerMsg);
    const Payload copy = p;
    EXPECT_EQ(copy.raw<decltype(img)>(), img);
}

TEST(Payload, FlexMemDataLandsOnTheRightWords)
{
    L1Harness h;
    // A bypassing Flex read of two lines in one DRAM row, each with a
    // non-contiguous wanted set; the MC creates one instance per sent
    // word, in payload order, so the k-th payload word gets id k.
    const std::vector<std::pair<Addr, WordMask>> wanted = {
        {L1Harness::line(0), WordMask(0b1000'0010'0001'1010)},
        {L1Harness::line(1), WordMask(0b0001'1000'0100'0101)},
    };
    Message rd;
    rd.kind = MsgKind::MemRead;
    rd.src = l1Ep(5);
    rd.dst = mcEp(0);
    rd.line = wanted[0].first;
    rd.requester = 5;
    rd.cls = TrafficClass::Load;
    rd.ctl = CtlType::ReqCtl;
    rd.aux = McFlag::bypassL2 | McFlag::flex;
    for (const auto &[la, want] : wanted) {
        LineChunk c(la);
        c.want = want;
        rd.chunks.push_back(c);
    }
    h.net.send(std::move(rd));
    h.eq.run();

    InstId next = 0;
    for (const auto &[la, want] : wanted) {
        for (unsigned w = 0; w < wordsPerLine; ++w) {
            if (want.test(w)) {
                EXPECT_EQ(h.heldRef(la, w), next)
                    << "line " << la << " word " << w;
                EXPECT_EQ(h.memProf.refs(next), 1u);
                ++next;
            } else {
                EXPECT_EQ(h.heldRef(la, w), invalidInst)
                    << "line " << la << " word " << w;
            }
        }
    }
    EXPECT_EQ(next, h.memProf.numInstances());
}

TEST(Payload, DnLoadRespLandsOnTheRightWords)
{
    L1Harness h;
    // Two lines, non-contiguous masks, one supplied word without an
    // instance (a registered, never-fetched word at the supplier).
    const Addr a = L1Harness::line(2), b = L1Harness::line(7);
    const WordMask ma(0b0100'0000'1010'0110), mb(0b1000'0001'0001'0001);
    const unsigned no_inst = 8; // of line b

    Message resp;
    resp.kind = MsgKind::DnLoadResp;
    resp.src = l2Ep(0);
    resp.dst = l1Ep(5);
    resp.line = a;
    resp.requester = 5;
    resp.cls = TrafficClass::Load;
    resp.ctl = CtlType::RespCtl;
    std::array<InstId, wordsPerLine> ra{}, rb{};
    for (unsigned w = 0; w < wordsPerLine; ++w) {
        if (ma.test(w))
            ra[w] = h.memProf.create(wordNumber(a) + w, false);
        if (mb.test(w))
            rb[w] = w == no_inst
                ? invalidInst
                : h.memProf.create(wordNumber(b) + w, false);
    }
    resp.chunks.push_back(LineChunk(a, ma), ra);
    resp.chunks.push_back(LineChunk(b, mb), rb);
    h.net.sendAfter(4, std::move(resp));
    h.eq.run();

    for (unsigned w = 0; w < wordsPerLine; ++w) {
        EXPECT_EQ(h.heldRef(a, w), ma.test(w) ? ra[w] : invalidInst)
            << "line a word " << w;
        EXPECT_EQ(h.heldRef(b, w), mb.test(w) ? rb[w] : invalidInst)
            << "line b word " << w;
    }
    ASSERT_NE(h.l1.array().find(b), nullptr);
    EXPECT_TRUE(h.l1.array().find(b)->validWords.test(no_inst));
    for (InstId id = 0; id < h.memProf.numInstances(); ++id)
        EXPECT_EQ(h.memProf.refs(id), 1u) << "instance " << id;
}

} // namespace wastesim
