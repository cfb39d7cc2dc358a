#include "dram/memory_controller.hh"

#include <algorithm>

#include "common/log.hh"

namespace wastesim
{

MemoryController::MemoryController(unsigned channel, EventQueue &eq,
                                   Network &net, DramChannel &dram,
                                   MemProfiler &prof,
                                   PresenceFn present_in_l2)
    : channel_(channel), eq_(eq), net_(net), dram_(dram), prof_(prof),
      presentInL2_(std::move(present_in_l2))
{
}

void
MemoryController::handle(Message msg)
{
    switch (msg.kind) {
      case MsgKind::MemRead:
        handleRead(msg);
        break;
      case MsgKind::MemWrite:
        handleWrite(msg);
        break;
      default:
        panic("MC received unexpected message %s", msgKindName(msg.kind));
    }
}

void
MemoryController::handleRead(Message &msg)
{
    const Tick arrive = eq_.now();

    // L2 Flex same-row constraint: secondary lines must share the DRAM
    // row of the critical (primary) line; others are dropped because
    // row activation is too expensive for a prefetch (Section 3.1).
    if (msg.aux & McFlag::flex) {
        const Addr primary = msg.line;
        droppedChunks_ += msg.chunks.eraseIf([&](const LineChunk &c) {
            return c.line != primary &&
                   !dram_.map().sameRow(primary, c.line);
        });
    }

    panic_if(msg.chunks.empty(), "MemRead with no chunks");

    // One line-granularity DRAM access per chunk; respond when the
    // last one completes.  The request is parked in the transaction
    // pool; each access callback joins on it by index.
    const std::uint32_t txn = txnAcquire(std::move(msg), arrive);
    txns_[txn].remaining =
        static_cast<unsigned>(txns_[txn].req.chunks.size());

    const bool partial = dram_.map().timing.partialReads;
    const unsigned aux = txns_[txn].req.aux;
    for (unsigned i = 0; i < txns_[txn].req.chunks.size(); ++i) {
        // Note: no reference into txns_ is held across enqueue() —
        // a nested read could grow the pool.
        const LineChunk &c = txns_[txn].req.chunks[i];
        panic_if(net_.topology().memChannel(c.line) != channel_,
                 "line routed to wrong memory channel");
        // With the partial-read extension (Yoon et al. [31]) a Flex
        // request fetches only the wanted words from the array.
        const unsigned words = partial && (aux & McFlag::flex)
                                   ? c.want.count()
                                   : wordsPerLine;
        dram_.enqueue(DramRequest{
            c.line, false, words,
            [this, txn](Tick done) { chunkDone(txn, done); }});
    }
}

void
MemoryController::chunkDone(std::uint32_t txn, Tick done)
{
    ReadTxn &t = txns_[txn];
    t.latest = std::max(t.latest, done);
    if (--t.remaining > 0)
        return;
    finishRead(t.req, t.arrive, t.latest);
    txnRelease(txn);
}

std::uint32_t
MemoryController::txnAcquire(Message &&msg, Tick arrive)
{
    std::uint32_t idx;
    if (txnFree_ != ~std::uint32_t(0)) {
        idx = txnFree_;
        txnFree_ = txns_[idx].nextFree;
    } else {
        txns_.emplace_back();
        idx = static_cast<std::uint32_t>(txns_.size() - 1);
    }
    ReadTxn &t = txns_[idx];
    t.req = std::move(msg);
    t.arrive = arrive;
    t.latest = 0;
    t.remaining = 0;
    return idx;
}

void
MemoryController::txnRelease(std::uint32_t idx)
{
    txns_[idx].nextFree = txnFree_;
    txnFree_ = idx;
}

void
MemoryController::finishRead(const Message &req, Tick arrive,
                             Tick mem_done)
{
    const bool flex = req.aux & McFlag::flex;
    const bool bypass = req.aux & McFlag::bypassL2;
    const bool to_l1 = (req.aux & McFlag::toL1) || bypass;

    Payload out;
    for (const auto &c : req.chunks) {
        // chunk.want  = words wanted
        // chunk.dirty = words dirty on-chip; never return from memory
        const WordMask send = c.want - c.dirty;
        if (flex && !dram_.map().timing.partialReads) {
            // The full line was read from DRAM; words outside the
            // communication region are dropped here: Excess waste.
            // With partial reads those words are never fetched.
            const unsigned dropped = wordsPerLine - c.want.count();
            prof_.excess(dropped);
            excessWords_ += dropped;
        }
        if (send.empty())
            continue;
        const WordMask in_l2 = presentInL2_(c.line);
        std::array<InstId, wordsPerLine> refs{};
        for (unsigned w = 0; w < wordsPerLine; ++w) {
            if (!send.test(w))
                continue;
            refs[w] = prof_.create(wordNumber(c.line) + w, in_l2.test(w));
            ++wordsSent_;
        }
        out.push_back(LineChunk(c.line, send), refs);
    }

    auto respond = [&](Endpoint dst) {
        Message resp;
        resp.kind = MsgKind::MemData;
        resp.src = mcEp(channel_);
        resp.dst = dst;
        resp.line = req.line;
        resp.mask = req.mask;
        resp.chunks = out;
        resp.requester = req.requester;
        resp.cls = req.cls;
        resp.ctl = CtlType::RespCtl;
        resp.flag = bypass;
        resp.aux = req.aux;
        resp.tMcArrive = arrive;
        resp.tMemDone = mem_done;
        net_.send(std::move(resp));
    };

    if (!bypass)
        respond(l2Ep(net_.topology().homeSlice(req.line)));
    if (to_l1)
        respond(l1Ep(req.requester));
}

void
MemoryController::handleWrite(const Message &msg)
{
    const bool partial = dram_.map().timing.partialReads;
    for (const auto &c : msg.chunks) {
        panic_if(net_.topology().memChannel(c.line) != channel_,
                 "write routed to wrong memory channel");
        wordsWritten_ += c.mask.count();
        dram_.enqueue(DramRequest{
            c.line, true,
            partial ? c.mask.count() : wordsPerLine, nullptr});
    }
}

} // namespace wastesim
