#include "protocol/mesi/mesi_l1.hh"

#include "common/log.hh"

namespace wastesim
{

MesiL1::MesiL1(CoreId id, const ProtocolConfig &cfg,
               const SimParams &params, EventQueue &eq, Network &net,
               WordProfiler &prof, MemProfiler &mem_prof)
    : id_(id), cfg_(cfg), params_(params), eq_(eq), net_(net),
      prof_(prof), memProf_(mem_prof),
      array_(params.l1Sets, params.l1Ways)
{
}

void
MesiL1::hitLoad(MesiL1Line &cl, Addr a, const LoadCallback &done)
{
    array_.touch(cl);
    const unsigned w = wordIndex(a);
    prof_.load(cl.prof, w);
    memProf_.used(cl.memRef[w]);
    MemTiming t;
    t.immediate = true;
    t.issued = t.tEnd = eq_.now();
    done(t);
}

void
MesiL1::hitStore(MesiL1Line &cl, Addr a)
{
    array_.touch(cl);
    const unsigned w = wordIndex(a);
    cl.mesi = MesiState::M; // silent E -> M is free
    cl.dirtyWords.set(w);
    prof_.store(cl.prof, w);
    memProf_.storeAddr(wordNumber(a));
    if (cl.memRef[w] != invalidInst) {
        // The fetched copy of this word is overwritten by new data.
        memProf_.dropRef(cl.memRef[w], false);
        cl.memRef[w] = invalidInst;
    }
}

void
MesiL1::load(Addr a, LoadCallback done)
{
    ++demandLoads_;
    const Addr la = lineAddr(a);
    MesiL1Line *cl = array_.find(la);
    if (cl && cl->mesi != MesiState::I) {
        ++loadHits_;
        hitLoad(*cl, a, done);
        return;
    }

    auto it = mshrs_.find(la);
    if (it != mshrs_.end()) {
        Mshr &m = it->second;
        if (m.isUpgrade && cl && cl->mesi == MesiState::S) {
            // Data is present during an upgrade; loads still hit.
            ++loadHits_;
            hitLoad(*cl, a, done);
            return;
        }
        m.loadWaiters.emplace_back(a, std::move(done));
        return;
    }

    ++loadMisses_;
    Mshr m;
    m.line = la;
    m.issued = eq_.now();
    m.loadWaiters.emplace_back(a, std::move(done));
    sendRequest(m);
    mshrs_.emplace(la, std::move(m));
}

void
MesiL1::store(Addr a, PlainCallback accepted)
{
    ++demandStores_;
    const Addr la = lineAddr(a);
    MesiL1Line *cl = array_.find(la);
    if (cl && (cl->mesi == MesiState::M || cl->mesi == MesiState::E)) {
        ++storeHits_;
        hitStore(*cl, a);
        accepted();
        return;
    }

    auto it = mshrs_.find(la);
    if (it != mshrs_.end()) {
        Mshr &m = it->second;
        if (m.isStore) {
            m.storeWords.set(wordIndex(a));
        } else {
            // A load transaction is in flight; replay the store once
            // the line arrives.
            m.storeReplays.push_back(a);
        }
        accepted();
        return;
    }

    if (storeSlotsUsed_ >= params_.writeBufferEntries) {
        // retireStoreSlot() re-enters store() for stalled stores;
        // uncount this attempt so the demand counter sees the op once.
        --demandStores_;
        stalledStores_.emplace_back(a, std::move(accepted));
        return;
    }

    ++storeMisses_;
    ++storeSlotsUsed_;
    Mshr m;
    m.line = la;
    m.isStore = true;
    m.isUpgrade = cl && cl->mesi == MesiState::S;
    if (m.isUpgrade)
        cl->busy = true; // pinned until the upgrade resolves
    m.storeWords.set(wordIndex(a));
    m.issued = eq_.now();
    sendRequest(m);
    mshrs_.emplace(la, std::move(m));
    accepted();
}

void
MesiL1::sendRequest(const Mshr &m)
{
    Message msg;
    msg.src = l1Ep(id_);
    msg.dst = l2Ep(params_.topo.homeSlice(m.line));
    msg.line = m.line;
    msg.mask = WordMask::full();
    msg.requester = id_;
    msg.cls = m.isStore ? TrafficClass::Store : TrafficClass::Load;
    msg.ctl = CtlType::ReqCtl;
    if (!m.isStore)
        msg.kind = MsgKind::GetS;
    else
        msg.kind = m.isUpgrade ? MsgKind::Upgrade : MsgKind::GetX;
    net_.send(std::move(msg));
}

void
MesiL1::drainWrites(PlainCallback done)
{
    drainWaiters_.push_back(std::move(done));
    maybeFireDrain();
}

void
MesiL1::maybeFireDrain()
{
    if (drainWaiters_.empty())
        return;
    if (storeSlotsUsed_ > 0 || !stalledStores_.empty())
        return;
    for (const auto &[la, m] : mshrs_)
        if (!m.storeReplays.empty())
            return;
    auto ws = std::move(drainWaiters_);
    drainWaiters_.clear();
    for (auto &w : ws)
        w();
}

void
MesiL1::retireStoreSlot()
{
    panic_if(storeSlotsUsed_ == 0, "store slot underflow");
    --storeSlotsUsed_;
    // Admit a stalled store, if any.
    if (!stalledStores_.empty()) {
        auto [a, cb] = std::move(stalledStores_.front());
        stalledStores_.pop_front();
        store(a, std::move(cb));
    }
    maybeFireDrain();
}

MesiL1Line &
MesiL1::ensureSlot(Addr line_addr)
{
    if (MesiL1Line *cl = array_.find(line_addr))
        return *cl;
    MesiL1Line *slot = array_.victimFor(line_addr);
    panic_if(!slot, "L1 has no victim candidate");
    if (slot->valid)
        evictLine(*slot);
    array_.resetTo(*slot, line_addr);
    array_.touch(*slot);
    return *slot;
}

void
MesiL1::evictLine(MesiL1Line &cl)
{
    const Addr la = cl.line;
    prof_.evict(cl.prof);
    for (unsigned w = 0; w < wordsPerLine; ++w)
        if (cl.validWords.test(w) && cl.memRef[w] != invalidInst)
            memProf_.dropRef(cl.memRef[w], false);

    if (cl.mesi == MesiState::M) {
        // Dirty writeback: data message, held in the evict buffer
        // until the directory acknowledges it.
        Message msg;
        msg.kind = MsgKind::PutX;
        msg.src = l1Ep(id_);
        msg.dst = l2Ep(params_.topo.homeSlice(la));
        msg.line = la;
        msg.requester = id_;
        msg.cls = TrafficClass::Writeback;
        msg.ctl = CtlType::WbControl;
        LineChunk chunk(la, cl.validWords);
        chunk.dirty = cl.dirtyWords;
        msg.chunks.push_back(chunk);
        evictBuf_.emplace(la, cl);
        net_.send(std::move(msg));
    } else if (cl.mesi == MesiState::E) {
        // A clean exclusive line must notify the directory (it is
        // the tracked owner); this is the paper's "clean writeback"
        // control overhead (Section 5.2.4).  The line stays in the
        // evict buffer until acknowledged so a racing forward can
        // still be served.
        Message msg;
        msg.kind = MsgKind::PutS;
        msg.src = l1Ep(id_);
        msg.dst = l2Ep(params_.topo.homeSlice(la));
        msg.line = la;
        msg.requester = id_;
        msg.cls = TrafficClass::Overhead;
        msg.ctl = CtlType::OhWbCtl;
        pendingCleanEvicts_[la] = true;
        evictBuf_.emplace(la, cl);
        net_.send(std::move(msg));
    }
    // S-state lines are dropped silently (GEMS-style): the directory
    // keeps a stale sharer bit and sends a harmless invalidation on
    // the next write — the source of LU's frequent Upgrades.
    array_.invalidate(cl);
}

void
MesiL1::installData(Message &msg, Mshr &m)
{
    MesiL1Line &cl = ensureSlot(msg.line);
    // Pin the line until the transaction completes: with many misses
    // outstanding (synthetic hot-set streams), a later install in the
    // same set must not evict a line whose MSHR still awaits acks.
    cl.busy = true;
    for (unsigned i = 0; i < msg.chunks.size(); ++i) {
        const LineChunk &chunk = msg.chunks[i];
        const auto refs = msg.chunks.lineRefs(i);
        panic_if(chunk.line != msg.line, "MESI data spans lines");
        prof_.arrive(cl.prof, chunk.mask, msg.cls, msg.hops);
        for (unsigned w = 0; w < wordsPerLine; ++w) {
            if (!chunk.mask.test(w))
                continue;
            cl.validWords.set(w);
            cl.memRef[w] = refs[w];
            memProf_.addRef(refs[w]);
        }
        cl.dirtyWords |= chunk.dirty & chunk.mask;
    }

    if (msg.kind == MsgKind::MemData) {
        m.usedMemory = true;
        m.tMcArrive = msg.tMcArrive;
        m.tMemDone = msg.tMemDone;
    } else if (msg.tMemDone != 0) {
        // The L2 relayed memory data; stamps were propagated.
        m.usedMemory = true;
        m.tMcArrive = msg.tMcArrive;
        m.tMemDone = msg.tMemDone;
    }

    const bool excl = msg.kind == MsgKind::DataExcl ||
                      (msg.kind == MsgKind::MemData && (msg.aux & 8u));
    if (m.isStore)
        cl.mesi = MesiState::M;
    else if (cl.dirtyWords.count() > 0)
        cl.mesi = MesiState::M; // inherited dirty data (owner forward)
    else
        cl.mesi = excl ? MesiState::E : MesiState::S;
}

void
MesiL1::completeLoadWaiter(Addr a, const LoadCallback &done,
                           const Mshr &m)
{
    MesiL1Line *cl = array_.find(lineAddr(a));
    panic_if(!cl, "load completion without a line");
    const unsigned w = wordIndex(a);
    prof_.load(cl->prof, w);
    memProf_.used(cl->memRef[w]);
    done(timingOf(m));
}

void
MesiL1::maybeComplete(Addr line_addr)
{
    auto it = mshrs_.find(line_addr);
    if (it == mshrs_.end())
        return;
    Mshr &m = it->second;
    if (!m.dataArrived)
        return;
    if (m.isStore && (!m.ackCountKnown || m.acksGot < m.acksNeeded))
        return;

    MesiL1Line *cl = array_.find(line_addr);
    panic_if(!cl, "completing transaction without a line");

    // Apply the buffered stores.
    if (m.isStore) {
        cl->mesi = MesiState::M;
        for (unsigned w = 0; w < wordsPerLine; ++w) {
            if (!m.storeWords.test(w))
                continue;
            const Addr wn = wordNumber(line_addr) + w;
            cl->dirtyWords.set(w);
            cl->validWords.set(w);
            prof_.store(cl->prof, w);
            memProf_.storeAddr(wn);
            if (cl->memRef[w] != invalidInst) {
                memProf_.dropRef(cl->memRef[w], false);
                cl->memRef[w] = invalidInst;
            }
        }
    }

    // Unblock the directory.  Under MMemL1, loads filled straight
    // from the MC forward the line to the L2 as unblock+data,
    // profiled as load traffic (Section 3.3).
    Message ub;
    ub.src = l1Ep(id_);
    ub.dst = l2Ep(params_.topo.homeSlice(line_addr));
    ub.line = line_addr;
    ub.requester = id_;
    if (cfg_.memToL1 && m.usedMemory && !m.isStore && !m.isUpgrade) {
        ub.kind = MsgKind::UnblockData;
        ub.cls = TrafficClass::Load;
        ub.ctl = CtlType::RespCtl;
        LineChunk chunk(line_addr, cl->validWords);
        chunk.dirty = cl->dirtyWords;
        ub.chunks.push_back(chunk, cl->memRef);
    } else {
        ub.kind = MsgKind::Unblock;
        ub.cls = TrafficClass::Overhead;
        ub.ctl = CtlType::OhUnblock;
    }
    net_.send(std::move(ub));

    cl->busy = false;

    // Retire: complete loads, replay stores, free the slot.
    auto load_waiters = std::move(m.loadWaiters);
    auto store_replays = std::move(m.storeReplays);
    const Mshr done_mshr = std::move(m);
    const bool was_store = done_mshr.isStore;
    mshrs_.erase(it);

    for (auto &[a, cb] : load_waiters)
        completeLoadWaiter(a, cb, done_mshr);
    for (Addr a : store_replays)
        store(a, [] {});
    if (was_store)
        retireStoreSlot();
    maybeFireDrain();
}

void
MesiL1::respondToFwd(const Message &msg, bool exclusive)
{
    // Serve from the array or from the evict buffer (writeback races).
    MesiL1Line *cl = array_.find(msg.line);
    MesiL1Line *src = cl;
    auto eb = evictBuf_.find(msg.line);
    if ((!src || !src->valid || src->mesi == MesiState::I) &&
        eb != evictBuf_.end()) {
        src = &eb->second;
    }
    panic_if(!src, "forward for a line we do not hold");

    const bool from_buffer = src != cl;

    Message resp;
    resp.kind = MsgKind::Data;
    resp.src = l1Ep(id_);
    resp.dst = l1Ep(msg.requester);
    resp.line = msg.line;
    resp.requester = msg.requester;
    resp.cls = exclusive ? TrafficClass::Store : TrafficClass::Load;
    resp.ctl = CtlType::RespCtl;
    resp.aux = 0; // no invalidation acks to wait for
    LineChunk chunk(msg.line, src->validWords);
    if (exclusive) {
        // Ownership (and writeback responsibility) transfers.
        chunk.dirty = src->dirtyWords;
    }
    resp.chunks.push_back(chunk, src->memRef);
    net_.send(std::move(resp));

    if (!exclusive) {
        // Downgrade to S.  A dirty copy also goes to the L2, which
        // becomes the holder of the dirty-vs-memory words; a clean
        // (E-state) line needs no copy — the L2 already has it.
        if (!src->dirtyWords.empty()) {
            Message copy;
            copy.kind = MsgKind::Data;
            copy.src = l1Ep(id_);
            copy.dst = l2Ep(params_.topo.homeSlice(msg.line));
            copy.line = msg.line;
            copy.requester = msg.requester;
            copy.cls = TrafficClass::Load;
            copy.ctl = CtlType::RespCtl;
            LineChunk l2chunk(msg.line, src->validWords);
            l2chunk.dirty = src->dirtyWords;
            copy.chunks.push_back(l2chunk, src->memRef);
            net_.send(std::move(copy));
        }
        if (!from_buffer && cl->valid && cl->mesi != MesiState::I) {
            cl->mesi = MesiState::S;
            cl->dirtyWords = WordMask::none();
        }
    } else {
        // Ownership moves to the requester; invalidate our copy.
        if (!from_buffer && cl->valid && cl->mesi != MesiState::I)
            invalidateLine(*cl);
    }

    // If we served a forward from the evict buffer, our in-flight
    // PutX was (or will be) NACKed by the busy directory; writeback
    // responsibility has moved on (to the new owner, or to the L2 via
    // the downgrade copy), so retire the buffered writeback.
    if (from_buffer)
        evictBuf_.erase(msg.line);
}

void
MesiL1::invalidateLine(MesiL1Line &cl)
{
    prof_.invalidate(cl.prof, cl.validWords);
    for (unsigned w = 0; w < wordsPerLine; ++w)
        if (cl.validWords.test(w) && cl.memRef[w] != invalidInst)
            memProf_.dropRef(cl.memRef[w], true);
    array_.invalidate(cl);
}

void
MesiL1::handleInv(const Message &msg)
{
    MesiL1Line *cl = array_.find(msg.line);
    const bool to_dir = msg.aux == 1; // L2-eviction recall

    // A recall can race with our own in-flight (NACKed) PutX; the
    // dirty data lives in the evict buffer and must reach the
    // directory now.
    if (to_dir && (!cl || !cl->valid || cl->mesi == MesiState::I)) {
        auto eb = evictBuf_.find(msg.line);
        if (eb != evictBuf_.end()) {
            MesiL1Line &buf = eb->second;
            Message resp;
            resp.kind = MsgKind::PutX;
            resp.src = l1Ep(id_);
            resp.dst = l2Ep(params_.topo.homeSlice(msg.line));
            resp.line = msg.line;
            resp.requester = id_;
            resp.cls = TrafficClass::Writeback;
            resp.ctl = CtlType::WbControl;
            resp.aux = 1;
            LineChunk chunk(msg.line, buf.validWords);
            chunk.dirty = buf.dirtyWords;
            resp.chunks.push_back(chunk, buf.memRef);
            net_.send(std::move(resp));
            evictBuf_.erase(eb);
            return;
        }
    }

    const bool had_m = cl && cl->valid && cl->mesi == MesiState::M;

    if (to_dir && had_m) {
        // Recall of a modified line: the data must reach the
        // directory before the victim can be written back.
        Message resp;
        resp.kind = MsgKind::PutX;
        resp.src = l1Ep(id_);
        resp.dst = l2Ep(params_.topo.homeSlice(msg.line));
        resp.line = msg.line;
        resp.requester = id_;
        resp.cls = TrafficClass::Writeback;
        resp.ctl = CtlType::WbControl;
        resp.aux = 1; // recall response, not a spontaneous PutX
        LineChunk chunk(msg.line, cl->validWords);
        chunk.dirty = cl->dirtyWords;
        resp.chunks.push_back(chunk, cl->memRef);
        net_.send(std::move(resp));
        invalidateLine(*cl);
        return;
    }

    if (cl && cl->valid && cl->mesi != MesiState::I)
        invalidateLine(*cl);

    Message ack;
    ack.kind = MsgKind::InvAck;
    ack.src = l1Ep(id_);
    ack.dst = to_dir ? l2Ep(params_.topo.homeSlice(msg.line)) : l1Ep(msg.requester);
    ack.line = msg.line;
    ack.requester = msg.requester;
    ack.cls = TrafficClass::Overhead;
    ack.ctl = CtlType::OhAck;
    net_.send(std::move(ack));
}

void
MesiL1::handleNack(const Message &msg)
{
    const Addr la = msg.line;
    const auto orig = static_cast<MsgKind>(msg.aux);

    if (orig == MsgKind::PutX) {
        eq_.schedule(params_.nackRetryDelay, [this, la] {
            auto it = evictBuf_.find(la);
            if (it == evictBuf_.end())
                return;
            MesiL1Line &cl = it->second;
            Message msg;
            msg.kind = MsgKind::PutX;
            msg.src = l1Ep(id_);
            msg.dst = l2Ep(params_.topo.homeSlice(la));
            msg.line = la;
            msg.requester = id_;
            msg.cls = TrafficClass::Writeback;
            msg.ctl = CtlType::WbControl;
            LineChunk chunk(la, cl.validWords);
            chunk.dirty = cl.dirtyWords;
            msg.chunks.push_back(chunk);
            net_.send(std::move(msg));
        });
        return;
    }

    if (orig == MsgKind::PutS) {
        eq_.schedule(params_.nackRetryDelay, [this, la] {
            if (!pendingCleanEvicts_.count(la))
                return;
            Message msg;
            msg.kind = MsgKind::PutS;
            msg.src = l1Ep(id_);
            msg.dst = l2Ep(params_.topo.homeSlice(la));
            msg.line = la;
            msg.requester = id_;
            msg.cls = TrafficClass::Overhead;
            msg.ctl = CtlType::OhWbCtl;
            net_.send(std::move(msg));
        });
        return;
    }

    // A nacked demand request: retry, re-deriving its flavor (an
    // Upgrade whose line got invalidated becomes a GetX).
    eq_.schedule(params_.nackRetryDelay, [this, la] {
        auto it = mshrs_.find(la);
        if (it == mshrs_.end())
            return;
        Mshr &m = it->second;
        if (m.isStore) {
            MesiL1Line *cl = array_.find(la);
            m.isUpgrade = cl && cl->valid && cl->mesi == MesiState::S;
        }
        sendRequest(m);
    });
}

void
MesiL1::handle(Message msg)
{
    switch (msg.kind) {
      case MsgKind::Data:
      case MsgKind::DataExcl:
      case MsgKind::MemData: {
        auto it = mshrs_.find(msg.line);
        panic_if(it == mshrs_.end(), "data for %llx without an MSHR",
                 static_cast<unsigned long long>(msg.line));
        if (!array_.find(msg.line) && !array_.victimFor(msg.line)) {
            // Every way of the set is pinned by a completing
            // transaction; retry once one of them retires.
            net_.deliverAfter(params_.nackRetryDelay, std::move(msg));
            return;
        }
        Mshr &m = it->second;
        installData(msg, m);
        m.dataArrived = true;
        m.ackCountKnown = true;
        // MemData aux carries MC flags, never an ack count; memory
        // fills have no sharers to invalidate.
        m.acksNeeded = msg.kind == MsgKind::MemData ? 0 : msg.aux;
        maybeComplete(msg.line);
        break;
      }

      case MsgKind::UpgradeAck: {
        auto it = mshrs_.find(msg.line);
        panic_if(it == mshrs_.end(), "upgrade ack without an MSHR");
        Mshr &m = it->second;
        m.dataArrived = true;
        m.ackCountKnown = true;
        m.acksNeeded = msg.aux;
        maybeComplete(msg.line);
        break;
      }

      case MsgKind::InvAck: {
        auto it = mshrs_.find(msg.line);
        if (it == mshrs_.end())
            break; // ack raced with a nacked transaction; ignore
        ++it->second.acksGot;
        maybeComplete(msg.line);
        break;
      }

      case MsgKind::Inv:
        handleInv(msg);
        break;

      case MsgKind::FwdGetS:
        respondToFwd(msg, false);
        break;

      case MsgKind::FwdGetX:
        respondToFwd(msg, true);
        break;

      case MsgKind::WbAck:
        evictBuf_.erase(msg.line);
        pendingCleanEvicts_.erase(msg.line);
        break;

      case MsgKind::Nack:
        handleNack(msg);
        break;

      default:
        panic("MESI L1 got unexpected %s", msgKindName(msg.kind));
    }
}

} // namespace wastesim
