#include "protocol/mesi/mesi_dir.hh"

#include <bit>

#include "common/log.hh"
#include "dram/memory_controller.hh"
#include "obs/debug.hh"
#include "obs/observer.hh"

namespace wastesim
{

MesiDir::MesiDir(NodeId slice, const ProtocolConfig &cfg,
                 const SimParams &params, EventQueue &eq, Network &net,
                 WordProfiler &prof, MemProfiler &mem_prof)
    : slice_(slice), cfg_(cfg), params_(params), eq_(eq), net_(net),
      prof_(prof), memProf_(mem_prof),
      array_(params.l2Sets, params.l2Ways, params.topo.numTiles())
{
}

void
MesiDir::nack(const Message &msg)
{
    ++nacks_;
    DPRINTF(Mesi, eq_, "slice %u nack %s line %llx core %u", slice_,
            msgKindName(msg.kind),
            static_cast<unsigned long long>(msg.line), msg.requester);
    Message n;
    n.kind = MsgKind::Nack;
    n.src = l2Ep(slice_);
    n.dst = msg.src;
    n.line = msg.line;
    n.requester = msg.requester;
    n.cls = TrafficClass::Overhead;
    n.ctl = CtlType::OhNack;
    n.aux = static_cast<unsigned>(msg.kind);
    net_.send(std::move(n));
}

void
MesiDir::sendDataFromL2(const MesiDirLine &cl, CoreId requester,
                        bool excl, bool is_store, unsigned acks,
                        Tick t_mc, Tick t_mem)
{
    Message resp;
    resp.kind = excl ? MsgKind::DataExcl : MsgKind::Data;
    resp.src = l2Ep(slice_);
    resp.dst = l1Ep(requester);
    resp.line = cl.line;
    resp.requester = requester;
    resp.cls = is_store ? TrafficClass::Store : TrafficClass::Load;
    resp.ctl = CtlType::RespCtl;
    resp.aux = acks;
    resp.tMcArrive = t_mc;
    resp.tMemDone = t_mem;
    resp.chunks.push_back(LineChunk(cl.line, cl.validWords), cl.memRef);

    net_.sendAfter(params_.l2Latency, std::move(resp));
}

void
MesiDir::installWords(const Message &msg, MesiDirLine &cl,
                      bool track_arrivals)
{
    for (unsigned i = 0; i < msg.chunks.size(); ++i) {
        const LineChunk &chunk = msg.chunks[i];
        const auto refs = msg.chunks.lineRefs(i);
        panic_if(chunk.line != cl.line, "chunk for wrong line");
        const WordMask newer_words = chunk.mask & chunk.dirty;
        if (track_arrivals) {
            // A dirty copy supersedes what the L2 holds.
            prof_.arriveReplace(cl.prof, newer_words, msg.cls, msg.hops);
            prof_.arrive(cl.prof, chunk.mask - newer_words, msg.cls,
                         msg.hops);
        } else {
            // Writeback data: profiled by dirty bits, not records.
            prof_.overwrite(cl.prof, newer_words);
        }
        for (unsigned w = 0; w < wordsPerLine; ++w) {
            if (!chunk.mask.test(w))
                continue;
            const bool newer = chunk.dirty.test(w);
            if (newer && cl.memRef[w] != invalidInst) {
                // The superseded copy's instance reference dies.
                memProf_.dropRef(cl.memRef[w], false);
                cl.memRef[w] = invalidInst;
            }
            if (!cl.validWords.test(w) || newer) {
                cl.validWords.set(w);
                cl.memRef[w] = refs[w];
                memProf_.addRef(refs[w]);
            }
            if (newer)
                cl.dirtyWords.set(w);
        }
    }
}

void
MesiDir::handleGetS(Message &msg)
{
    const Addr la = msg.line;
    if (txns_.count(la)) {
        nack(msg);
        return;
    }
    MesiDirLine *cl = array_.find(la);
    if (!cl) {
        ++misses_;
        startFetch(msg);
        return;
    }
    ++hits_;
    array_.touch(*cl);
    cl->busy = true;

    Txn t;
    t.req = MsgKind::GetS;
    t.start = eq_.now();
    t.requester = msg.requester;

    if (cl->owner != invalidNode) {
        // Forward to the exclusive owner; it supplies the requester
        // and sends its (possibly dirty) copy back to the L2.
        t.fwdOwner = cl->owner;
        txns_[la] = t;
        Message fwd;
        fwd.kind = MsgKind::FwdGetS;
        fwd.src = l2Ep(slice_);
        fwd.dst = l1Ep(cl->owner);
        fwd.line = la;
        fwd.requester = msg.requester;
        fwd.cls = TrafficClass::Load;
        fwd.ctl = CtlType::ReqCtl;
        net_.send(std::move(fwd));
        return;
    }

    t.excl = cl->sharers.none();
    txns_[la] = t;
    prof_.respUsed(cl->prof, cl->validWords);
    for (unsigned w = 0; w < wordsPerLine; ++w)
        if (cl->validWords.test(w))
            memProf_.used(cl->memRef[w]);
    sendDataFromL2(*cl, msg.requester, t.excl, false, 0);
}

void
MesiDir::handleGetX(Message &msg)
{
    const Addr la = msg.line;
    if (txns_.count(la)) {
        nack(msg);
        return;
    }
    MesiDirLine *cl = array_.find(la);
    if (!cl) {
        ++misses_;
        startFetch(msg);
        return;
    }
    ++hits_;
    array_.touch(*cl);
    cl->busy = true;

    Txn t;
    t.req = MsgKind::GetX;
    t.start = eq_.now();
    t.requester = msg.requester;

    if (cl->owner != invalidNode) {
        t.fwdOwner = cl->owner;
        txns_[la] = t;
        Message fwd;
        fwd.kind = MsgKind::FwdGetX;
        fwd.src = l2Ep(slice_);
        fwd.dst = l1Ep(cl->owner);
        fwd.line = la;
        fwd.requester = msg.requester;
        fwd.cls = TrafficClass::Store;
        fwd.ctl = CtlType::ReqCtl;
        net_.send(std::move(fwd));
        return;
    }

    SharerMask invs = cl->sharers;
    invs.reset(msg.requester);
    invs.forEachSet(params_.topo.numTiles(), [&](CoreId c) {
        Message inv;
        inv.kind = MsgKind::Inv;
        inv.src = l2Ep(slice_);
        inv.dst = l1Ep(c);
        inv.line = la;
        inv.requester = msg.requester;
        inv.cls = TrafficClass::Overhead;
        inv.ctl = CtlType::OhInv;
        inv.aux = 0; // ack goes to the requester
        net_.send(std::move(inv));
        ++invalidations_;
    });

    txns_[la] = t;
    // The store fetch returns data Used only if reused later; the
    // demand forward itself is not L2 reuse (see word_profiler.hh).
    sendDataFromL2(*cl, msg.requester, false, true,
                   static_cast<unsigned>(invs.count()));
}

void
MesiDir::handleUpgrade(const Message &msg)
{
    const Addr la = msg.line;
    if (txns_.count(la)) {
        nack(msg);
        return;
    }
    MesiDirLine *cl = array_.find(la);
    if (!cl || !cl->sharers.test(msg.requester) ||
        cl->owner != invalidNode) {
        // The requester lost its S copy (or the state moved on); it
        // will re-issue as a GetX.
        nack(msg);
        return;
    }
    ++hits_;
    cl->busy = true;

    SharerMask invs = cl->sharers;
    invs.reset(msg.requester);
    invs.forEachSet(params_.topo.numTiles(), [&](CoreId c) {
        Message inv;
        inv.kind = MsgKind::Inv;
        inv.src = l2Ep(slice_);
        inv.dst = l1Ep(c);
        inv.line = la;
        inv.requester = msg.requester;
        inv.cls = TrafficClass::Overhead;
        inv.ctl = CtlType::OhInv;
        inv.aux = 0;
        net_.send(std::move(inv));
        ++invalidations_;
    });

    Txn t;
    t.req = MsgKind::Upgrade;
    t.start = eq_.now();
    t.requester = msg.requester;
    txns_[la] = t;

    Message ack;
    ack.kind = MsgKind::UpgradeAck;
    ack.src = l2Ep(slice_);
    ack.dst = l1Ep(msg.requester);
    ack.line = la;
    ack.requester = msg.requester;
    ack.cls = TrafficClass::Store;
    ack.ctl = CtlType::RespCtl;
    ack.aux = static_cast<unsigned>(invs.count());
    net_.send(std::move(ack));
}

void
MesiDir::handlePutX(Message &msg)
{
    const Addr la = msg.line;
    auto it = txns_.find(la);
    if (it != txns_.end()) {
        if (msg.aux == 1 && it->second.isRecall) {
            // Recall response carrying the owner's dirty data.
            MesiDirLine *cl = array_.find(la);
            panic_if(!cl, "recall data for missing victim");
            installWords(msg, *cl, false);
            cl->owner = invalidNode;
            recallProgress(la);
            return;
        }
        nack(msg);
        return;
    }

    MesiDirLine *cl = array_.find(la);
    if (cl) {
        installWords(msg, *cl, false);
        if (cl->owner == msg.requester)
            cl->owner = invalidNode;
        cl->sharers.reset(msg.requester);
    }
    sendWbAck(la, msg.requester);
}

void
MesiDir::handlePutS(const Message &msg)
{
    const Addr la = msg.line;
    if (txns_.count(la)) {
        nack(msg);
        return;
    }
    if (MesiDirLine *cl = array_.find(la)) {
        cl->sharers.reset(msg.requester);
        if (cl->owner == msg.requester)
            cl->owner = invalidNode;
    }
    sendWbAck(la, msg.requester);
}

void
MesiDir::sendWbAck(Addr line_addr, CoreId to)
{
    Message ack;
    ack.kind = MsgKind::WbAck;
    ack.src = l2Ep(slice_);
    ack.dst = l1Ep(to);
    ack.line = line_addr;
    ack.requester = to;
    ack.cls = TrafficClass::Overhead;
    ack.ctl = CtlType::OhWbCtl;
    net_.send(std::move(ack));
}

void
MesiDir::handleUnblock(Message &msg)
{
    const Addr la = msg.line;
    auto it = txns_.find(la);
    panic_if(it == txns_.end(), "unblock without a transaction");
    Txn t = it->second;
    txns_.erase(it);

    DPRINTF(Mesi, eq_, "slice %u unblock %s line %llx core %u took %llu",
            slice_, msgKindName(t.req),
            static_cast<unsigned long long>(la), t.requester,
            static_cast<unsigned long long>(eq_.now() - t.start));
    if (SimObserver *o = simObserver(); o && o->wantTimeline()) {
        o->timeline.complete("mesi", msgKindName(t.req),
                             static_cast<double>(t.start),
                             static_cast<double>(eq_.now() - t.start),
                             0, slice_);
    }

    MesiDirLine *cl = array_.find(la);
    panic_if(!cl, "unblock for a line the L2 lost");

    if (msg.kind == MsgKind::UnblockData)
        installWords(msg, *cl, true);

    switch (t.req) {
      case MsgKind::GetS:
        if (t.fwdOwner != invalidNode) {
            cl->owner = invalidNode;
            cl->sharers.set(t.fwdOwner);
            cl->sharers.set(t.requester);
        } else if (t.excl) {
            cl->owner = t.requester;
        } else {
            cl->sharers.set(t.requester);
        }
        break;
      case MsgKind::GetX:
      case MsgKind::Upgrade:
        cl->owner = t.requester;
        cl->sharers.reset();
        break;
      default:
        panic("unexpected transaction kind at unblock");
    }
    cl->busy = false;
}

void
MesiDir::handleMemData(Message &msg)
{
    const Addr la = msg.line;
    auto it = txns_.find(la);
    panic_if(it == txns_.end(), "MemData without a transaction");
    Txn &t = it->second;
    panic_if(!t.memFetch, "unexpected MemData");

    MesiDirLine *cl = array_.find(la);
    panic_if(!cl, "MemData without an allocated slot");
    installWords(msg, *cl, true);

    const bool is_store = t.req != MsgKind::GetS;
    // In MMemL1 mode the MC already delivered to the L1 (bypassL2),
    // so this path only runs for the baseline protocol.  The demand
    // forward is not L2 reuse, hence no respUsed here.
    sendDataFromL2(*cl, t.requester, t.excl && !is_store, is_store, 0,
                   msg.tMcArrive, msg.tMemDone);
}

void
MesiDir::handleInvAck(const Message &msg)
{
    recallProgress(msg.line);
}

void
MesiDir::recallProgress(Addr victim_line)
{
    auto it = txns_.find(victim_line);
    if (it == txns_.end() || !it->second.isRecall)
        return;
    Txn &t = it->second;
    panic_if(t.recallAcks == 0, "recall ack underflow");
    if (--t.recallAcks == 0) {
        if (SimObserver *o = simObserver(); o && o->wantTimeline()) {
            o->timeline.complete(
                "mesi", "recall", static_cast<double>(t.start),
                static_cast<double>(eq_.now() - t.start), 0, slice_);
        }
        auto cont = std::move(t.cont);
        finishVictim(victim_line);
        txns_.erase(victim_line);
        if (cont)
            cont();
    }
}

void
MesiDir::finishVictim(Addr victim_line)
{
    MesiDirLine *cl = array_.find(victim_line);
    panic_if(!cl, "finishing missing victim");

    if (!cl->dirtyWords.empty()) {
        // MESI writes whole lines back to memory; only the dirty
        // words are Used (Fig. 5.1d).
        Message wb;
        wb.kind = MsgKind::MemWrite;
        wb.src = l2Ep(slice_);
        wb.dst = mcEp(params_.topo.memChannel(victim_line));
        wb.line = victim_line;
        wb.cls = TrafficClass::Writeback;
        wb.ctl = CtlType::WbControl;
        LineChunk chunk(victim_line, cl->validWords);
        chunk.dirty = cl->dirtyWords;
        wb.chunks.push_back(chunk);
        net_.send(std::move(wb));
    }

    prof_.evict(cl->prof);
    for (unsigned w = 0; w < wordsPerLine; ++w)
        if (cl->validWords.test(w) && cl->memRef[w] != invalidInst)
            memProf_.dropRef(cl->memRef[w], false);
    array_.invalidate(*cl);
}

void
MesiDir::recallVictim(MesiDirLine &victim, std::function<void()> cont)
{
    ++recalls_;
    const Addr vla = victim.line;
    victim.busy = true;
    DPRINTF(Mesi, eq_, "slice %u recall line %llx", slice_,
            static_cast<unsigned long long>(vla));

    Txn t;
    t.isRecall = true;
    t.start = eq_.now();
    t.cont = std::move(cont);

    unsigned expected = 0;
    auto send_inv = [&](CoreId c) {
        Message inv;
        inv.kind = MsgKind::Inv;
        inv.src = l2Ep(slice_);
        inv.dst = l1Ep(c);
        inv.line = vla;
        inv.requester = c;
        inv.cls = TrafficClass::Overhead;
        inv.ctl = CtlType::OhInv;
        inv.aux = 1; // respond to the directory
        net_.send(std::move(inv));
        ++invalidations_;
        ++expected;
    };

    if (victim.owner != invalidNode) {
        send_inv(victim.owner);
    } else {
        victim.sharers.forEachSet(params_.topo.numTiles(), send_inv);
    }

    if (expected == 0) {
        // No on-chip copies: free immediately.
        finishVictim(vla);
        auto cb = std::move(t.cont);
        if (cb)
            cb();
        return;
    }

    t.recallAcks = expected;
    txns_[vla] = std::move(t);
}

void
MesiDir::startFetch(Message &msg)
{
    const Addr la = msg.line;
    MesiDirLine *slot = array_.victimFor(la);
    if (!slot) {
        nack(msg);
        return;
    }
    if (slot->valid) {
        // Evict (recall) the victim first, then retry the request via
        // the normal dispatch path.
        recallVictim(*slot, [this, m = std::move(msg)]() mutable {
            handle(std::move(m));
        });
        return;
    }

    array_.resetTo(*slot, la);
    slot->busy = true;
    array_.touch(*slot);

    Txn t;
    t.req = msg.kind == MsgKind::GetS ? MsgKind::GetS : MsgKind::GetX;
    t.start = eq_.now();
    t.requester = msg.requester;
    t.excl = msg.kind == MsgKind::GetS;
    t.memFetch = true;
    txns_[la] = t;
    DPRINTF(Mesi, eq_, "slice %u memfetch %s line %llx core %u", slice_,
            msgKindName(t.req), static_cast<unsigned long long>(la),
            msg.requester);

    Message rd;
    rd.kind = MsgKind::MemRead;
    rd.src = l2Ep(slice_);
    rd.dst = mcEp(params_.topo.memChannel(la));
    rd.line = la;
    rd.mask = WordMask::full();
    rd.requester = msg.requester;
    rd.cls = msg.kind == MsgKind::GetS ? TrafficClass::Load
                                       : TrafficClass::Store;
    rd.ctl = CtlType::ReqCtl;
    LineChunk rc(la);
    rc.want = WordMask::full();
    rd.chunks.push_back(rc);
    if (cfg_.memToL1) {
        rd.aux = McFlag::toL1 | McFlag::bypassL2;
        if (t.excl)
            rd.aux |= McFlag::excl;
    }
    net_.send(std::move(rd));
}

void
MesiDir::handle(Message msg)
{
    switch (msg.kind) {
      case MsgKind::GetS:
        handleGetS(msg);
        break;
      case MsgKind::GetX:
        handleGetX(msg);
        break;
      case MsgKind::Upgrade:
        handleUpgrade(msg);
        break;
      case MsgKind::PutX:
        handlePutX(msg);
        break;
      case MsgKind::PutS:
        handlePutS(msg);
        break;
      case MsgKind::Unblock:
      case MsgKind::UnblockData:
        handleUnblock(msg);
        break;
      case MsgKind::MemData:
        handleMemData(msg);
        break;
      case MsgKind::InvAck:
        handleInvAck(msg);
        break;
      case MsgKind::Data:
        // Owner downgrade copy accompanying a FwdGetS.
        if (MesiDirLine *cl = array_.find(msg.line))
            installWords(msg, *cl, true);
        break;
      default:
        panic("MESI dir got unexpected %s", msgKindName(msg.kind));
    }
}

} // namespace wastesim
