#include "protocol/denovo/denovo_l2.hh"

#include <algorithm>

#include "common/log.hh"
#include "dram/memory_controller.hh"
#include "obs/debug.hh"

namespace wastesim
{

namespace
{

/** Add word @p w of @p line to @p owner's entry in @p list, keeping
 *  the list in owner order (see LineOwners). */
template <unsigned N>
void
addOwnerWord(InlineVec<OwnerWords, N> &list, NodeId owner, Addr line,
             unsigned w)
{
    OwnerWords *const pos = std::upper_bound(
        list.begin(), list.end(), owner,
        [](NodeId o, const OwnerWords &e) { return o < e.owner; });
    for (OwnerWords *e = pos; e != list.begin() && e[-1].owner == owner;
         --e) {
        if (e[-1].line == line) {
            e[-1].words.set(w);
            return;
        }
    }
    list.push_back(OwnerWords{owner, line, WordMask::single(w)});
    std::rotate(pos, list.end() - 1, list.end());
}

} // namespace

DenovoL2::DenovoL2(NodeId slice, const ProtocolConfig &cfg,
                   const SimParams &params, EventQueue &eq, Network &net,
                   WordProfiler &prof, MemProfiler &mem_prof)
    : slice_(slice), cfg_(cfg), params_(params), eq_(eq), net_(net),
      prof_(prof), memProf_(mem_prof),
      array_(params.l2Sets, params.l2Ways, params.topo.numTiles()),
      bloom_(cfg.reqBypass ? params.bloomFilters : 0)
{
}

void
DenovoL2::nack(Endpoint to, MsgKind orig, Addr line_addr, WordMask mask)
{
    ++nacks_;
    Message n;
    n.kind = MsgKind::Nack;
    n.src = l2Ep(slice_);
    n.dst = to;
    n.line = line_addr;
    n.mask = mask;
    n.cls = TrafficClass::Overhead;
    n.ctl = CtlType::OhNack;
    n.aux = static_cast<unsigned>(orig);
    net_.send(std::move(n));
}

void
DenovoL2::sendLoadResp(CoreId to, Payload &&chunks, Tick t_mc,
                       Tick t_mem)
{
    Message resp;
    resp.kind = MsgKind::DnLoadResp;
    resp.src = l2Ep(slice_);
    resp.dst = l1Ep(to);
    resp.line = chunks.empty() ? 0 : chunks.front().line;
    resp.requester = to;
    resp.cls = TrafficClass::Load;
    resp.ctl = CtlType::RespCtl;
    resp.tMcArrive = t_mc;
    resp.tMemDone = t_mem;
    resp.chunks = std::move(chunks);
    net_.sendAfter(params_.l2Latency, std::move(resp));
}

void
DenovoL2::sendRegInvs(const LineOwners &invs)
{
    for (const OwnerWords &o : invs) {
        Message inv;
        inv.kind = MsgKind::DnRegInv;
        inv.src = l2Ep(slice_);
        inv.dst = l1Ep(o.owner);
        inv.line = o.line;
        inv.mask = o.words;
        inv.requester = o.owner;
        inv.cls = TrafficClass::Store;
        inv.ctl = CtlType::ReqCtl;
        net_.send(std::move(inv));
    }
}

void
DenovoL2::syncBloom(DenovoL2Line &cl)
{
    if (!cfg_.reqBypass)
        return;
    const bool should =
        !cl.dirtyWords.empty() || !cl.registeredMask().empty();
    if (should && !cl.inBloom) {
        bloom_.insert(cl.line);
        cl.inBloom = true;
    } else if (!should && cl.inBloom) {
        bloom_.remove(cl.line);
        cl.inBloom = false;
    }
}

void
DenovoL2::handleLoadReq(Message &msg)
{
    const CoreId requester = msg.requester;
    const bool bypass = msg.flag;

    Payload resp_chunks;
    InlineVec<OwnerWords, maxWordsPerMsg * wordsPerLine> forwards;

    for (const auto &chunk : msg.chunks) {
        const Addr la = chunk.line;
        panic_if(params_.topo.homeSlice(la) != slice_, "request routed to wrong slice");
        const WordMask want = chunk.want;
        DenovoL2Line *cl = array_.find(la);
        WordMask from_l2, missing = want;

        if (cl) {
            array_.touch(*cl);
            from_l2 = cl->validWords & want;
            missing -= from_l2;
            for (unsigned w = 0; w < wordsPerLine; ++w) {
                if (!missing.test(w))
                    continue;
                const NodeId owner = cl->regOwner(w);
                if (owner == invalidNode)
                    continue;
                missing.clear(w);
                addOwnerWord(forwards, owner, la, w);
            }
        }

        if (!from_l2.empty()) {
            // L2 reuse: these words' residency paid off.
            prof_.respUsed(cl->prof, from_l2);
            for (unsigned w = 0; w < wordsPerLine; ++w) {
                if (!from_l2.test(w))
                    continue;
                if (cl->memRef[w] != invalidInst)
                    memProf_.used(cl->memRef[w]);
                ++wordHits_;
            }
            resp_chunks.push_back(LineChunk(la, from_l2), cl->memRef);
        }

        if (!missing.empty()) {
            if (bypass) {
                // L2 Response Bypass: fetch to the L1 only; nothing
                // is installed here.
                Message rd;
                rd.kind = MsgKind::MemRead;
                rd.src = l2Ep(slice_);
                rd.dst = mcEp(params_.topo.memChannel(la));
                rd.line = la;
                rd.requester = requester;
                rd.cls = TrafficClass::Load;
                rd.ctl = CtlType::ReqCtl;
                rd.aux = McFlag::bypassL2 |
                         (cfg_.flexL2 ? McFlag::flex : 0);
                LineChunk rc(la);
                rc.want = cfg_.flexL2 ? missing : WordMask::full();
                if (cl)
                    rc.dirty = cl->validWords | cl->registeredMask();
                rd.chunks.push_back(rc);
                net_.send(std::move(rd));
                ++memFetches_;
            } else {
                startMemFetch(la, missing, requester, TrafficClass::Load,
                              cfg_.flexL2);
            }
        }
    }

    if (!resp_chunks.empty())
        sendLoadResp(requester, std::move(resp_chunks));

    for (const OwnerWords &o : forwards) {
        Message fwd;
        fwd.kind = MsgKind::DnFwdLoadReq;
        fwd.src = l2Ep(slice_);
        fwd.dst = l1Ep(o.owner);
        fwd.line = o.line;
        fwd.mask = o.words;
        fwd.requester = requester;
        fwd.cls = TrafficClass::Load;
        fwd.ctl = CtlType::ReqCtl;
        net_.send(std::move(fwd));
    }
}

void
DenovoL2::startMemFetch(Addr line_addr, WordMask missing, CoreId requester,
                        TrafficClass cls, bool flex_request)
{
    auto it = memMshrs_.find(line_addr);
    if (it != memMshrs_.end()) {
        it->second.waiters.push_back({requester, missing});
        return;
    }

    // The line itself may be mid-recall (it was chosen as someone's
    // victim): fetching into a dying line would lose the data when
    // the recall completes.  Defer until the slot is free.
    auto rit = recalls_.find(line_addr);
    if (rit != recalls_.end()) {
        rit->second.conts.push_back(
            [this, line_addr, missing, requester, cls, flex_request] {
                startMemFetch(line_addr, missing, requester, cls,
                              flex_request);
            });
        return;
    }

    DenovoL2Line *cl = array_.find(line_addr);
    if (!cl) {
        DenovoL2Line *slot = array_.victimFor(line_addr);
        if (!slot) {
            nack(l1Ep(requester), MsgKind::DnLoadReq, line_addr, missing);
            return;
        }
        if (slot->valid) {
            recallVictim(*slot,
                         [this, line_addr, missing, requester, cls,
                          flex_request] {
                             startMemFetch(line_addr, missing, requester,
                                           cls, flex_request);
                         });
            return;
        }
        array_.resetTo(*slot, line_addr);
        array_.touch(*slot);
        cl = slot;
    }
    cl->busy = true;

    MemMshr m;
    m.waiters.push_back({requester, missing});
    if (cfg_.memToL1 && cls == TrafficClass::Load)
        m.directTo = requester;
    memMshrs_.emplace(line_addr, std::move(m));
    ++memFetches_;

    Message rd;
    rd.kind = MsgKind::MemRead;
    rd.src = l2Ep(slice_);
    rd.dst = mcEp(params_.topo.memChannel(line_addr));
    rd.line = line_addr;
    rd.requester = requester;
    rd.cls = cls;
    rd.ctl = CtlType::ReqCtl;
    rd.aux = 0;
    if (cfg_.memToL1 && cls == TrafficClass::Load)
        rd.aux |= McFlag::toL1;
    if (flex_request)
        rd.aux |= McFlag::flex;
    LineChunk rc(line_addr);
    // Baseline DeNovo fetches the normal cache line from memory; L2
    // Flex requests exactly the communication-region words.
    rc.want = flex_request ? missing : WordMask::full();
    rc.dirty = cl->validWords | cl->registeredMask();
    rd.chunks.push_back(rc);
    net_.send(std::move(rd));
}

void
DenovoL2::handleMemData(Message &msg)
{
    for (unsigned i = 0; i < msg.chunks.size(); ++i) {
        const LineChunk &chunk = msg.chunks[i];
        const auto refs = msg.chunks.lineRefs(i);
        const Addr la = chunk.line;
        DenovoL2Line *cl = array_.find(la);
        panic_if(!cl, "MemData for unallocated DeNovo L2 line");
        cl->busy = false;

        // A registration that raced the fetch wins: the memory data
        // is dead on arrival (Write waste), not installed.
        const WordMask raced = chunk.mask & cl->registeredMask();
        prof_.arrive(cl->prof, chunk.mask, msg.cls, msg.hops);
        prof_.writeKill(cl->prof, raced);
        const WordMask install = chunk.mask - raced - cl->validWords;
        cl->validWords |= install;
        for (unsigned w = 0; w < wordsPerLine; ++w) {
            if (install.test(w)) {
                cl->memRef[w] = refs[w];
                memProf_.addRef(refs[w]);
            }
        }

        auto it = memMshrs_.find(la);
        if (it == memMshrs_.end())
            continue;
        MemMshr mshr = std::move(it->second);
        memMshrs_.erase(it);

        for (const auto &waiter : mshr.waiters) {
            if (waiter.core == mshr.directTo)
                continue; // the MC already delivered to this L1
            const WordMask serve = waiter.want & cl->validWords;
            Payload cs;
            cs.push_back(LineChunk(la, serve), cl->memRef);
            // Demand-fill forward: no respUsed (not L2 reuse).
            sendLoadResp(waiter.core, std::move(cs), msg.tMcArrive,
                         msg.tMemDone);
        }

        for (const auto &[core, mask] : mshr.pendingRegs) {
            applyRegistration(*cl, core, mask);
            ++registrations_;
        }
    }
}

void
DenovoL2::applyRegistration(DenovoL2Line &cl, CoreId req, WordMask mask)
{
    LineOwners invs;
    for (unsigned w = 0; w < wordsPerLine; ++w) {
        if (!mask.test(w))
            continue;
        const NodeId old = cl.regOwner(w);
        if (old == req)
            continue;
        if (old != invalidNode)
            addOwnerWord(invs, old, cl.line, w);
        if (cl.validWords.test(w)) {
            // The L2's copy is stale the moment the write happened.
            prof_.writeKill(cl.prof, WordMask::single(w));
            if (cl.memRef[w] != invalidInst) {
                memProf_.dropRef(cl.memRef[w], false);
                cl.memRef[w] = invalidInst;
            }
            cl.validWords.clear(w);
            cl.dirtyWords.clear(w);
        }
        cl.setRegOwner(w, req);
    }
    sendRegInvs(invs);
    syncBloom(cl);

    Message ack;
    ack.kind = MsgKind::DnRegAck;
    ack.src = l2Ep(slice_);
    ack.dst = l1Ep(req);
    ack.line = cl.line;
    ack.mask = mask;
    ack.requester = req;
    ack.cls = TrafficClass::Store;
    ack.ctl = CtlType::RespCtl;
    net_.send(std::move(ack));
}

void
DenovoL2::handleReg(Message &msg)
{
    const Addr la = msg.line;

    // Registrations for a line mid-recall would be wiped when the
    // victim dies; defer until the recall completes.
    auto rit = recalls_.find(la);
    if (rit != recalls_.end()) {
        rit->second.conts.push_back([this, m = std::move(msg)]() mutable {
            handle(std::move(m));
        });
        return;
    }

    DenovoL2Line *cl = array_.find(la);

    if (!cl) {
        if (!cfg_.l2WriteValidate) {
            // Fetch-on-write at the L2 (baseline DeNovo): bring the
            // line in from memory first, then register.
            auto it = memMshrs_.find(la);
            if (it != memMshrs_.end()) {
                it->second.pendingRegs.emplace_back(msg.requester,
                                                    msg.mask);
                return;
            }
            DenovoL2Line *slot = array_.victimFor(la);
            if (!slot) {
                nack(msg.src, MsgKind::DnReg, la, msg.mask);
                return;
            }
            if (slot->valid) {
                recallVictim(*slot, [this, m = std::move(msg)]() mutable {
                    handle(std::move(m));
                });
                return;
            }
            array_.resetTo(*slot, la);
            array_.touch(*slot);
            slot->busy = true;

            MemMshr m;
            m.pendingRegs.emplace_back(msg.requester, msg.mask);
            memMshrs_.emplace(la, std::move(m));
            ++memFetches_;

            Message rd;
            rd.kind = MsgKind::MemRead;
            rd.src = l2Ep(slice_);
            rd.dst = mcEp(params_.topo.memChannel(la));
            rd.line = la;
            rd.requester = msg.requester;
            rd.cls = TrafficClass::Store;
            rd.ctl = CtlType::ReqCtl;
            LineChunk rc(la);
            rc.want = WordMask::full();
            rd.chunks.push_back(rc);
            net_.send(std::move(rd));
            return;
        }

        // L2 write-validate: allocate the tag, no fetch.
        DenovoL2Line *slot = array_.victimFor(la);
        if (!slot) {
            nack(msg.src, MsgKind::DnReg, la, msg.mask);
            return;
        }
        if (slot->valid) {
            recallVictim(*slot, [this, m = std::move(msg)]() mutable {
                handle(std::move(m));
            });
            return;
        }
        array_.resetTo(*slot, la);
        array_.touch(*slot);
        cl = slot;
    }

    applyRegistration(*cl, msg.requester, msg.mask);
    ++registrations_;
}

void
DenovoL2::handleWb(Message &msg)
{
    const Addr la = msg.line;

    if (msg.aux == 2) {
        // Deregister correction: the L1 acknowledged a registration
        // for words a recall had already flushed from it.
        if (DenovoL2Line *cl = array_.find(la)) {
            for (unsigned w = 0; w < wordsPerLine; ++w)
                if (msg.mask.test(w) &&
                    cl->regOwner(w) == msg.requester) {
                    cl->setRegOwner(w, invalidNode);
                }
            syncBloom(*cl);
            if (cl->validWords.empty() && cl->dirtyWords.empty() &&
                cl->registeredMask().empty() && !cl->busy) {
                array_.invalidate(*cl);
            }
        }
        return;
    }

    if (msg.aux == 1) {
        // Recall response.
        DenovoL2Line *cl = array_.find(la);
        panic_if(!cl, "recall response for missing victim");
        for (const auto &chunk : msg.chunks) {
            prof_.arriveUntracked(cl->prof, chunk.mask);
            cl->validWords |= chunk.mask;
            cl->dirtyWords |= chunk.mask;
            for (unsigned w = 0; w < wordsPerLine; ++w)
                if (chunk.mask.test(w))
                    cl->memRef[w] = invalidInst;
        }
        for (unsigned w = 0; w < wordsPerLine; ++w)
            if (cl->regOwner(w) == msg.requester)
                cl->setRegOwner(w, invalidNode);
        progressRecall(la);
        return;
    }

    DenovoL2Line *cl = array_.find(la);
    if (!cl) {
        DenovoL2Line *slot = array_.victimFor(la);
        if (slot && slot->valid) {
            recallVictim(*slot, [this, m = std::move(msg)]() mutable {
                handle(std::move(m));
            });
            return;
        }
        if (!slot) {
            // Every way is mid-transaction: fall back to writing the
            // dirty data straight through to memory.
            Message wt;
            wt.kind = MsgKind::MemWrite;
            wt.src = l2Ep(slice_);
            wt.dst = mcEp(params_.topo.memChannel(la));
            wt.line = la;
            wt.cls = TrafficClass::Writeback;
            wt.ctl = CtlType::WbControl;
            wt.chunks = msg.chunks;
            net_.send(std::move(wt));

            Message ack;
            ack.kind = MsgKind::DnWbAck;
            ack.src = l2Ep(slice_);
            ack.dst = l1Ep(msg.requester);
            ack.line = la;
            ack.requester = msg.requester;
            ack.cls = TrafficClass::Writeback;
            ack.ctl = CtlType::WbControl;
            net_.send(std::move(ack));
            return;
        }
        array_.resetTo(*slot, la);
        array_.touch(*slot);
        cl = slot;
    }

    LineOwners invs;
    for (const auto &chunk : msg.chunks) {
        for (unsigned w = 0; w < wordsPerLine; ++w) {
            if (!chunk.mask.test(w))
                continue;
            const bool combined_reg = msg.flag && msg.mask.test(w);
            const NodeId owner = cl->regOwner(w);
            if (owner != invalidNode && owner != msg.requester) {
                if (!combined_reg)
                    continue; // stale writeback lost to a newer writer
                addOwnerWord(invs, owner, la, w);
            }
            if (cl->validWords.test(w)) {
                prof_.overwrite(cl->prof, WordMask::single(w));
                if (cl->memRef[w] != invalidInst) {
                    memProf_.dropRef(cl->memRef[w], false);
                    cl->memRef[w] = invalidInst;
                }
            } else {
                prof_.arriveUntracked(cl->prof, WordMask::single(w));
            }
            cl->validWords.set(w);
            cl->dirtyWords.set(w);
            cl->setRegOwner(w, invalidNode);
        }
    }
    sendRegInvs(invs);
    syncBloom(*cl);

    Message ack;
    ack.kind = MsgKind::DnWbAck;
    ack.src = l2Ep(slice_);
    ack.dst = l1Ep(msg.requester);
    ack.line = la;
    ack.requester = msg.requester;
    ack.cls = TrafficClass::Writeback;
    ack.ctl = CtlType::WbControl;
    net_.send(std::move(ack));
}

void
DenovoL2::recallVictim(DenovoL2Line &victim, std::function<void()> cont)
{
    const Addr vla = victim.line;
    auto it = recalls_.find(vla);
    if (it != recalls_.end()) {
        it->second.conts.push_back(std::move(cont));
        return;
    }

    victim.busy = true;
    LineOwners owners;
    for (unsigned w = 0; w < wordsPerLine; ++w)
        if (victim.regOwner(w) != invalidNode)
            addOwnerWord(owners, victim.regOwner(w), vla, w);

    if (owners.empty()) {
        finishVictim(vla);
        cont();
        return;
    }

    ++recallsIssued_;
    DPRINTF(DeNovo, eq_, "slice %u recall line %llx owners %u", slice_,
            static_cast<unsigned long long>(vla), owners.size());
    RecallTxn rt;
    rt.pending = owners.size();
    rt.conts.push_back(std::move(cont));
    recalls_.emplace(vla, std::move(rt));

    for (const OwnerWords &o : owners) {
        Message rc;
        rc.kind = MsgKind::DnRecall;
        rc.src = l2Ep(slice_);
        rc.dst = l1Ep(o.owner);
        rc.line = vla;
        rc.mask = o.words;
        rc.requester = o.owner;
        rc.cls = TrafficClass::Writeback;
        rc.ctl = CtlType::WbControl;
        net_.send(std::move(rc));
    }
}

void
DenovoL2::progressRecall(Addr victim_line)
{
    auto it = recalls_.find(victim_line);
    panic_if(it == recalls_.end(), "recall progress without txn");
    if (--it->second.pending > 0)
        return;
    auto conts = std::move(it->second.conts);
    recalls_.erase(it);
    finishVictim(victim_line);
    for (auto &c : conts)
        c();
}

void
DenovoL2::finishVictim(Addr victim_line)
{
    DenovoL2Line *cl = array_.find(victim_line);
    panic_if(!cl, "finishing missing DeNovo victim");

    if (!cl->dirtyWords.empty()) {
        Message wb;
        wb.kind = MsgKind::MemWrite;
        wb.src = l2Ep(slice_);
        wb.dst = mcEp(params_.topo.memChannel(victim_line));
        wb.line = victim_line;
        wb.cls = TrafficClass::Writeback;
        wb.ctl = CtlType::WbControl;
        // Dirty-words-only writeback (DValidateL2+) vs. the baseline
        // full-transfer-granularity writeback.
        const WordMask mask = cfg_.l2DirtyWbOnly
            ? cl->dirtyWords
            : (cl->validWords | cl->dirtyWords);
        LineChunk chunk(victim_line, mask);
        chunk.dirty = cl->dirtyWords;
        wb.chunks.push_back(chunk);
        net_.send(std::move(wb));
    }

    prof_.evict(cl->prof);
    for (unsigned w = 0; w < wordsPerLine; ++w)
        if (cl->validWords.test(w) && cl->memRef[w] != invalidInst)
            memProf_.dropRef(cl->memRef[w], false);
    if (cl->inBloom)
        bloom_.remove(victim_line);
    array_.invalidate(*cl);
}

void
DenovoL2::handleBloomReq(const Message &msg)
{
    const unsigned idx = msg.aux;
    panic_if(idx >= bloom_.numFilters(), "bad bloom filter index");
    const BloomImage img = bloom_.image(idx);

    Message resp;
    resp.kind = MsgKind::BloomCopyResp;
    resp.src = l2Ep(slice_);
    resp.dst = l1Ep(msg.requester);
    resp.line = msg.line;
    resp.requester = msg.requester;
    resp.cls = TrafficClass::Overhead;
    resp.ctl = CtlType::OhBloom;
    resp.aux = idx;
    resp.chunks.setRaw(img); // the 64-byte image: 16 raw words
    net_.send(std::move(resp));
}

void
DenovoL2::dumpLine(Addr line_addr) const
{
    std::fprintf(stderr, "  L2[%u]: ", slice_);
    const DenovoL2Line *cl = array_.find(line_addr);
    if (cl) {
        std::fprintf(stderr, "valid=%s dirty=%s busy=%d regOwner=[",
                     cl->validWords.toString().c_str(),
                     cl->dirtyWords.toString().c_str(), cl->busy);
        for (unsigned w = 0; w < wordsPerLine; ++w) {
            if (cl->regOwner(w) == invalidNode)
                std::fprintf(stderr, ".");
            else
                std::fprintf(stderr, "%x", cl->regOwner(w));
        }
        std::fprintf(stderr, "]");
    } else {
        std::fprintf(stderr, "(absent)");
    }
    auto m = memMshrs_.find(line_addr);
    if (m != memMshrs_.end())
        std::fprintf(stderr, " memMshr(waiters=%zu pendingRegs=%zu)",
                     m->second.waiters.size(),
                     m->second.pendingRegs.size());
    if (recalls_.count(line_addr))
        std::fprintf(stderr, " [recalling]");
    std::fprintf(stderr, "\n");
}

void
DenovoL2::handle(Message msg)
{
    switch (msg.kind) {
      case MsgKind::DnLoadReq:
        handleLoadReq(msg);
        break;
      case MsgKind::DnReg:
        handleReg(msg);
        break;
      case MsgKind::DnWb:
        handleWb(msg);
        break;
      case MsgKind::MemData:
        handleMemData(msg);
        break;
      case MsgKind::BloomCopyReq:
        handleBloomReq(msg);
        break;
      default:
        panic("DeNovo L2 got unexpected %s", msgKindName(msg.kind));
    }
}

} // namespace wastesim
