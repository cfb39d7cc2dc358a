#include "protocol/denovo/denovo_l1.hh"

#include <algorithm>
#include <unordered_set>

#include "common/inline_vec.hh"
#include "common/log.hh"
#include "dram/memory_controller.hh"

namespace wastesim
{

namespace
{

/**
 * Partition @p wanted by @p key and hand each group to @p emit in
 * ascending key order — the same order the previous std::map-based
 * grouping produced, but on the stack (the chunk count is bounded by
 * the packet format, so quadratic collection is trivially cheap).
 */
template <typename KeyFn, typename EmitFn>
void
groupChunksBy(const Payload &wanted, KeyFn key, EmitFn emit)
{
    InlineVec<unsigned, Payload::maxChunks> keys;
    for (const auto &c : wanted) {
        const unsigned k = key(c);
        if (std::find(keys.begin(), keys.end(), k) == keys.end())
            keys.push_back(k);
    }
    std::sort(keys.begin(), keys.end());
    for (unsigned k : keys) {
        Payload group;
        for (unsigned i = 0; i < wanted.size(); ++i)
            if (key(wanted[i]) == k)
                group.appendFrom(wanted, i);
        emit(k, std::move(group));
    }
}

} // namespace

DenovoL1::DenovoL1(CoreId id, const ProtocolConfig &cfg,
                   const SimParams &params, EventQueue &eq, Network &net,
                   WordProfiler &prof, MemProfiler &mem_prof,
                   const RegionTable &regions)
    : id_(id), cfg_(cfg), params_(params), eq_(eq), net_(net),
      prof_(prof), memProf_(mem_prof), regions_(regions),
      array_(params.l1Sets, params.l1Ways),
      wc_(eq, params.writeBufferEntries, params.wcTimeout,
          [this](Addr line, WordMask words) {
              flushRegistration(line, words);
          }),
      bloom_(cfg.reqBypass ? params.bloomFilters : 0, params.topo)
{
}

bool
DenovoL1::isReadable(Addr a) const
{
    const DenovoL1Line *cl = array_.find(lineAddr(a));
    return cl && readable(*cl).test(wordIndex(a));
}

void
DenovoL1::load(Addr a, LoadCallback done)
{
    ++demandLoads_;
    const Addr la = lineAddr(a);
    DenovoL1Line *cl = array_.find(la);
    const unsigned w = wordIndex(a);
    if (cl && readable(*cl).test(w)) {
        ++loadHits_;
        array_.touch(*cl);
        prof_.load(cl->prof, w);
        if (cl->memRef[w] != invalidInst)
            memProf_.used(cl->memRef[w]);
        MemTiming t;
        t.immediate = true;
        t.issued = t.tEnd = eq_.now();
        done(t);
        return;
    }
    missLoad(a, std::move(done));
}

void
DenovoL1::missLoad(Addr a, LoadCallback done)
{
    const Addr la = lineAddr(a);
    auto it = loadMshrs_.find(la);
    if (it != loadMshrs_.end()) {
        it->second.waiters.emplace_back(wordNumber(a), std::move(done));
        return;
    }

    ++loadMisses_;
    LoadMshr m;
    m.line = la;
    m.issued = eq_.now();
    m.waiters.emplace_back(wordNumber(a), std::move(done));
    loadMshrs_.emplace(la, std::move(m));

    sendLoadRequest(a, composeWanted(a));
}

Payload
DenovoL1::composeWanted(Addr a)
{
    const Addr la = lineAddr(a);
    Payload chunks;

    auto readable_at = [this](Addr line, unsigned w) {
        const DenovoL1Line *cl = array_.find(line);
        return cl && readable(*cl).test(w);
    };

    auto push_chunk = [&chunks](Addr line, WordMask want) {
        LineChunk c(line);
        c.want = want;
        chunks.push_back(c);
    };

    if (cfg_.flexL1) {
        auto fw = regions_.flexWords(a);
        if (!fw.empty()) {
            // The communication region's words, minus what we hold.
            InlineVec<std::pair<Addr, WordMask>, Payload::maxChunks>
                masks;
            auto add = [&](Addr line, unsigned w) {
                if (readable_at(line, w))
                    return;
                for (auto &[l, m] : masks) {
                    if (l == line) {
                        m.set(w);
                        return;
                    }
                }
                masks.emplace_back(line, WordMask::single(w));
            };
            // Guarantee the critical word is requested even if it is
            // not one of the region's declared used fields.
            add(la, wordIndex(a));
            for (const auto &f : fw)
                add(f.line, f.widx);
            for (auto &[l, m] : masks)
                push_chunk(l, m);
            return chunks;
        }
    }

    const DenovoL1Line *cl = array_.find(la);
    const WordMask have = cl ? readable(*cl) : WordMask::none();
    push_chunk(la, WordMask::full() - have);
    return chunks;
}

void
DenovoL1::requestBloomCopy(Addr line_addr)
{
    const NodeId slice = params_.topo.homeSlice(line_addr);
    const unsigned idx = bloomFilterIndex(line_addr,
                                          params_.bloomFilters);
    const Addr key = slice * params_.bloomFilters + idx;
    if (bloomCopyPending_.count(key))
        return;
    bloomCopyPending_[key] = true;

    Message req;
    req.kind = MsgKind::BloomCopyReq;
    req.src = l1Ep(id_);
    req.dst = l2Ep(slice);
    req.line = line_addr;
    req.requester = id_;
    req.cls = TrafficClass::Overhead;
    req.ctl = CtlType::OhBloom;
    req.aux = idx;
    net_.send(std::move(req));
}

void
DenovoL1::sendLoadRequest(Addr critical, const Payload &wanted)
{
    const Addr cla = lineAddr(critical);
    const bool bypass = cfg_.respBypass && regions_.isBypass(critical);

    if (bypass && cfg_.reqBypass) {
        // L2 Request Bypass: safe only if every involved line is
        // provably clean on-chip (Bloom shadow, no false negatives).
        bool all_safe = true;
        for (const auto &c : wanted) {
            bool need_copy = false;
            const bool maybe_dirty = bloom_.query(c.line, need_copy);
            if (need_copy)
                requestBloomCopy(c.line);
            if (need_copy || maybe_dirty)
                all_safe = false;
        }
        if (all_safe) {
            ++bypassDirect_;
            // Group by memory channel: one MemRead per controller.
            groupChunksBy(
                wanted,
                [&](const LineChunk &c) {
                    return params_.topo.memChannel(c.line);
                },
                [&](unsigned ch, Payload &&group) {
                    Message rd;
                    rd.kind = MsgKind::MemRead;
                    rd.src = l1Ep(id_);
                    rd.dst = mcEp(ch);
                    // Primary = critical line when in this group.
                    rd.line = group.front().line;
                    for (const auto &c : group)
                        if (c.line == cla)
                            rd.line = cla;
                    rd.requester = id_;
                    rd.cls = TrafficClass::Load;
                    rd.ctl = CtlType::ReqCtl;
                    rd.aux = McFlag::bypassL2 |
                             (cfg_.flexL2 ? McFlag::flex : 0);
                    rd.chunks = std::move(group);
                    net_.send(std::move(rd));
                });
            return;
        }
        ++bypassViaL2_;
    }

    // Route through the home L2 slice(s).
    groupChunksBy(
        wanted,
        [&](const LineChunk &c) {
            return params_.topo.homeSlice(c.line);
        },
        [&](unsigned slice, Payload &&group) {
            Message req;
            req.kind = MsgKind::DnLoadReq;
            req.src = l1Ep(id_);
            req.dst = l2Ep(slice);
            req.line = group.front().line;
            for (const auto &c : group)
                if (c.line == cla)
                    req.line = cla;
            req.mask = group.front().want;
            req.requester = id_;
            req.cls = TrafficClass::Load;
            req.ctl = CtlType::ReqCtl;
            req.flag = bypass;
            req.chunks = std::move(group);
            net_.send(std::move(req));
        });
}

DenovoL1Line &
DenovoL1::ensureSlot(Addr line_addr)
{
    if (DenovoL1Line *cl = array_.find(line_addr))
        return *cl;
    DenovoL1Line *slot = array_.victimFor(line_addr);
    panic_if(!slot, "DeNovo L1 has no victim candidate");
    if (slot->valid)
        evictLine(*slot);
    array_.resetTo(*slot, line_addr);
    array_.touch(*slot);
    return *slot;
}

void
DenovoL1::evictLine(DenovoL1Line &cl)
{
    const Addr la = cl.line;
    const WordMask pending = wc_.takeLine(la);
    const WordMask reg = cl.regWords;
    const WordMask confirmed = reg - pending;

    // Clean valid words die silently: no sharer lists to maintain.
    prof_.evict(cl.prof);
    for (unsigned w = 0; w < wordsPerLine; ++w)
        if (cl.validWords.test(w) && !reg.test(w) &&
            cl.memRef[w] != invalidInst)
            memProf_.dropRef(cl.memRef[w], false);

    unsigned wbs = 0;
    auto send_wb = [&](WordMask words, bool combined_reg) {
        Message wb;
        wb.kind = MsgKind::DnWb;
        wb.src = l1Ep(id_);
        wb.dst = l2Ep(params_.topo.homeSlice(la));
        wb.line = la;
        wb.requester = id_;
        wb.cls = TrafficClass::Writeback;
        wb.ctl = CtlType::WbControl;
        wb.flag = combined_reg;
        if (combined_reg)
            wb.mask = words; // registration side of the message
        LineChunk chunk(la, words);
        chunk.dirty = words;
        wb.chunks.push_back(chunk);
        net_.send(std::move(wb));
        ++wbs;
    };

    // Eviction with pending registrations sends two messages: a plain
    // writeback and a combined writeback+register (Section 4.2).
    if (!confirmed.empty())
        send_wb(confirmed, false);
    if (!pending.empty())
        send_wb(pending, true);

    if (wbs > 0) {
        evictBuf_.emplace(la, cl);
        pendingWbAcks_[la] = wbs;
        if (cfg_.reqBypass)
            bloom_.insertWriteback(la);
    }
    array_.invalidate(cl);
}

void
DenovoL1::store(Addr a, PlainCallback accepted)
{
    ++demandStores_;
    const Addr la = lineAddr(a);
    const unsigned w = wordIndex(a);
    const Addr wn = wordNumber(a);

    DenovoL1Line &cl = ensureSlot(la);
    array_.touch(cl);

    prof_.store(cl.prof, w);
    memProf_.storeAddr(wn);
    if (cl.validWords.test(w) && cl.memRef[w] != invalidInst) {
        memProf_.dropRef(cl.memRef[w], false);
        cl.memRef[w] = invalidInst;
    }

    if (!cl.regWords.test(w)) {
        cl.regWords.set(w);
        cl.dirtyWords.set(w);
        // Write-validate: no fetch; queue the registration.
        wc_.write(la, w);
    }
    accepted();
}

void
DenovoL1::flushRegistration(Addr line_addr, WordMask words)
{
    inflightRegs_[line_addr] |= words;

    Message reg;
    reg.kind = MsgKind::DnReg;
    reg.src = l1Ep(id_);
    reg.dst = l2Ep(params_.topo.homeSlice(line_addr));
    reg.line = line_addr;
    reg.mask = words;
    reg.requester = id_;
    reg.cls = TrafficClass::Store;
    reg.ctl = CtlType::ReqCtl;
    net_.send(std::move(reg));
}

void
DenovoL1::drainWrites(PlainCallback done)
{
    drainWaiters_.push_back(std::move(done));
    wc_.flushAll();
    maybeFireDrain();
}

void
DenovoL1::maybeFireDrain()
{
    if (drainWaiters_.empty())
        return;
    if (!inflightRegs_.empty() || !pendingWbAcks_.empty())
        return;
    if (wc_.size() > 0)
        return;
    auto ws = std::move(drainWaiters_);
    drainWaiters_.clear();
    for (auto &w : ws)
        w();
}

void
DenovoL1::barrierRelease(const std::vector<RegionId> &inv_regions)
{
    if (!inv_regions.empty()) {
        std::unordered_set<RegionId> inv(inv_regions.begin(),
                                         inv_regions.end());
        array_.forEachValid([&](DenovoL1Line &cl) {
            const Addr la = cl.line;
            WordMask gone;
            for (unsigned w = 0; w < wordsPerLine; ++w) {
                if (!cl.validWords.test(w) || cl.regWords.test(w))
                    continue;
                const Addr byte = la + w * bytesPerWord;
                const Region *r = regions_.regionOf(byte);
                if (!r || !inv.count(r->id))
                    continue;
                gone.set(w);
                if (cl.memRef[w] != invalidInst) {
                    memProf_.dropRef(cl.memRef[w], true);
                    cl.memRef[w] = invalidInst;
                }
            }
            prof_.invalidate(cl.prof, gone);
            cl.validWords -= gone;
            selfInvalidated_ += gone.count();
            if (cl.validWords.empty() && cl.regWords.empty())
                array_.invalidate(cl);
        });
    }
    if (cfg_.reqBypass) {
        bloom_.clearAll();
        bloomCopyPending_.clear();
    }
}

void
DenovoL1::installResponse(Message &msg)
{
    for (unsigned i = 0; i < msg.chunks.size(); ++i) {
        const LineChunk &chunk = msg.chunks[i];
        const auto refs = msg.chunks.lineRefs(i);
        if (chunk.mask.empty())
            continue;
        DenovoL1Line &cl = ensureSlot(chunk.line);
        array_.touch(cl);
        // Every carried word is profiled (conservation); a word we
        // wrote meanwhile is present, so the arrival records as Fetch
        // waste and is not installed.
        prof_.arrive(cl.prof, chunk.mask, msg.cls, msg.hops);
        for (unsigned w = 0; w < wordsPerLine; ++w) {
            if (!chunk.mask.test(w))
                continue;
            if (!cl.regWords.test(w) && !cl.validWords.test(w)) {
                cl.validWords.set(w);
                cl.memRef[w] = refs[w];
                memProf_.addRef(refs[w]);
            }
        }
        // Update load-MSHR timing for this line.
        auto it = loadMshrs_.find(chunk.line);
        if (it != loadMshrs_.end() && msg.tMemDone != 0) {
            it->second.usedMemory = true;
            it->second.tMcArrive = msg.tMcArrive;
            it->second.tMemDone = msg.tMemDone;
        }
    }

    // Complete whatever waiters this response satisfied.
    InlineVec<Addr, Payload::maxChunks + 1> lines;
    for (const auto &chunk : msg.chunks)
        lines.push_back(chunk.line);
    lines.push_back(msg.line);
    std::sort(lines.begin(), lines.end());
    lines.erase(std::unique(lines.begin(), lines.end()), lines.end());
    for (Addr l : lines)
        completeWaiters(l);
}

void
DenovoL1::completeWaiters(Addr line_addr)
{
    auto it = loadMshrs_.find(line_addr);
    if (it == loadMshrs_.end())
        return;
    LoadMshr &m = it->second;

    DenovoL1Line *cl = array_.find(line_addr);
    std::vector<std::pair<Addr, LoadCallback>> still_waiting;
    for (auto &[wn, cb] : m.waiters) {
        const unsigned w = static_cast<unsigned>(wn % wordsPerLine);
        if (cl && readable(*cl).test(w)) {
            prof_.load(cl->prof, w);
            if (cl->memRef[w] != invalidInst)
                memProf_.used(cl->memRef[w]);
            MemTiming t;
            t.usedMemory = m.usedMemory;
            t.issued = m.issued;
            t.tMcArrive = m.tMcArrive;
            t.tMemDone = m.tMemDone;
            t.tEnd = eq_.now();
            cb(t);
        } else {
            still_waiting.emplace_back(wn, std::move(cb));
        }
    }
    m.waiters = std::move(still_waiting);
    if (m.waiters.empty()) {
        loadMshrs_.erase(it);
        return;
    }
    scheduleRetry(line_addr);
}

void
DenovoL1::scheduleRetry(Addr line_addr)
{
    auto it = loadMshrs_.find(line_addr);
    if (it == loadMshrs_.end() || it->second.retryPending)
        return;
    it->second.retryPending = true;
    eq_.schedule(params_.loadRetryDelay, [this, line_addr] {
        auto it2 = loadMshrs_.find(line_addr);
        if (it2 == loadMshrs_.end())
            return;
        LoadMshr &m = it2->second;
        m.retryPending = false;
        if (m.waiters.empty()) {
            loadMshrs_.erase(it2);
            return;
        }
        if (++m.retries > 200) {
            if (debugLineDump)
                debugLineDump(line_addr);
            panic("L1 %u livelocked retrying line %llx (waiting on "
                  "%zu loads, first word %llu)",
                  id_, static_cast<unsigned long long>(line_addr),
                  m.waiters.size(),
                  static_cast<unsigned long long>(
                      m.waiters.front().first));
        }
        // Re-request exactly the words still blocked (line-granular,
        // no Flex expansion the second time).
        WordMask need;
        for (const auto &[wn, cb] : m.waiters)
            need.set(static_cast<unsigned>(wn % wordsPerLine));
        const DenovoL1Line *cl = array_.find(line_addr);
        if (cl)
            need -= readable(*cl);
        if (need.empty()) {
            completeWaiters(line_addr);
            return;
        }
        LineChunk chunk(line_addr);
        chunk.want = need;
        Payload wanted;
        wanted.push_back(chunk);
        const Addr first_word = m.waiters.front().first * bytesPerWord;
        sendLoadRequest(first_word, wanted);
        scheduleRetry(line_addr);
    });
}

void
DenovoL1::handleFwdLoadReq(const Message &msg)
{
    const Addr la = msg.line;
    const DenovoL1Line *src = array_.find(la);
    if (!src) {
        auto eb = evictBuf_.find(la);
        if (eb != evictBuf_.end())
            src = &eb->second;
    }
    const WordMask supplied =
        src ? (readable(*src) & msg.mask) : WordMask::none();

    // Always respond (possibly data-less) so the requester can make
    // progress or retry.
    Message resp;
    resp.kind = MsgKind::DnLoadResp;
    resp.src = l1Ep(id_);
    resp.dst = l1Ep(msg.requester);
    resp.line = la;
    resp.requester = msg.requester;
    resp.cls = TrafficClass::Load;
    resp.ctl = CtlType::RespCtl;
    if (!supplied.empty()) {
        // Registered words not yet valid here carry no instance.
        std::array<InstId, wordsPerLine> refs;
        refs.fill(invalidInst);
        for (unsigned w = 0; w < wordsPerLine; ++w)
            if (src->validWords.test(w))
                refs[w] = src->memRef[w];
        resp.chunks.push_back(LineChunk(la, supplied), refs);
    }
    net_.send(std::move(resp));
}

void
DenovoL1::handleRegInv(const Message &msg)
{
    DenovoL1Line *cl = array_.find(msg.line);
    if (!cl)
        return;
    const WordMask gone = msg.mask & readable(*cl);
    prof_.invalidate(cl->prof, gone);
    for (unsigned w = 0; w < wordsPerLine; ++w) {
        if (gone.test(w) && cl->validWords.test(w) &&
            cl->memRef[w] != invalidInst) {
            memProf_.dropRef(cl->memRef[w], true);
            cl->memRef[w] = invalidInst;
        }
    }
    cl->validWords -= gone;
    cl->regWords -= gone;
    cl->dirtyWords -= gone;
    if (cl->validWords.empty() && cl->regWords.empty())
        array_.invalidate(*cl);
}

void
DenovoL1::handleRecall(const Message &msg)
{
    const Addr la = msg.line;
    DenovoL1Line *cl = array_.find(la);
    const WordMask give =
        cl ? (cl->regWords & msg.mask) : WordMask::none();

    Message resp;
    resp.kind = MsgKind::DnWb;
    resp.src = l1Ep(id_);
    resp.dst = l2Ep(params_.topo.homeSlice(la));
    resp.line = la;
    resp.requester = id_;
    resp.cls = TrafficClass::Writeback;
    resp.ctl = CtlType::WbControl;
    resp.aux = 1; // recall response
    if (!give.empty()) {
        LineChunk chunk(la, give);
        chunk.dirty = give;
        resp.chunks.push_back(chunk);
    }
    net_.send(std::move(resp));

    if (cl) {
        prof_.invalidate(cl->prof, give);
        cl->regWords -= give;
        cl->dirtyWords -= give;
        cl->validWords -= give;
        // Pending write-combine words are disjoint from the recalled
        // (registered) set and will re-register the line later; keep
        // them.  In-flight registrations for recalled words become
        // stale at the L2 and are corrected when their ack arrives
        // (see the DnRegAck handler).
        if (cl->validWords.empty() && cl->regWords.empty() &&
            wc_.pendingFor(la).empty()) {
            array_.invalidate(*cl);
        }
    }
}

void
DenovoL1::handleNack(const Message &msg)
{
    const auto orig = static_cast<MsgKind>(msg.aux);
    const Addr la = msg.line;
    if (orig == MsgKind::DnReg) {
        const WordMask words = msg.mask;
        eq_.schedule(params_.nackRetryDelay, [this, la, words] {
            Message reg;
            reg.kind = MsgKind::DnReg;
            reg.src = l1Ep(id_);
            reg.dst = l2Ep(params_.topo.homeSlice(la));
            reg.line = la;
            reg.mask = words;
            reg.requester = id_;
            reg.cls = TrafficClass::Store;
            reg.ctl = CtlType::ReqCtl;
            net_.send(std::move(reg));
        });
    } else {
        scheduleRetry(la);
    }
}

void
DenovoL1::dumpLine(Addr line_addr) const
{
    const DenovoL1Line *cl = array_.find(line_addr);
    std::fprintf(stderr, "  L1[%u]: ", id_);
    if (cl) {
        std::fprintf(stderr, "valid=%s reg=%s dirty=%s",
                     cl->validWords.toString().c_str(),
                     cl->regWords.toString().c_str(),
                     cl->dirtyWords.toString().c_str());
    } else {
        std::fprintf(stderr, "(absent)");
    }
    if (evictBuf_.count(line_addr))
        std::fprintf(stderr, " [evictBuf]");
    auto wc = wc_.pendingFor(line_addr);
    if (!wc.empty())
        std::fprintf(stderr, " wcPending=%s", wc.toString().c_str());
    auto ir = inflightRegs_.find(line_addr);
    if (ir != inflightRegs_.end())
        std::fprintf(stderr, " inflightReg=%s",
                     ir->second.toString().c_str());
    auto m = loadMshrs_.find(line_addr);
    if (m != loadMshrs_.end())
        std::fprintf(stderr, " mshr(waiters=%zu retries=%u)",
                     m->second.waiters.size(), m->second.retries);
    std::fprintf(stderr, "\n");
}

void
DenovoL1::handle(Message msg)
{
    switch (msg.kind) {
      case MsgKind::DnLoadResp:
      case MsgKind::MemData:
        installResponse(msg);
        break;
      case MsgKind::DnFwdLoadReq:
        handleFwdLoadReq(msg);
        break;
      case MsgKind::DnRegAck: {
        auto it = inflightRegs_.find(msg.line);
        if (it != inflightRegs_.end()) {
            it->second -= msg.mask;
            if (it->second.empty())
                inflightRegs_.erase(it);
        }
        // A recall may have flushed words while their registration
        // was in flight; the L2 now holds a stale registration that
        // would livelock readers.  Deregister what we no longer hold.
        WordMask stale = msg.mask;
        if (const DenovoL1Line *cl = array_.find(msg.line))
            stale -= cl->regWords;
        if (!stale.empty()) {
            Message dereg;
            dereg.kind = MsgKind::DnWb;
            dereg.src = l1Ep(id_);
            dereg.dst = l2Ep(params_.topo.homeSlice(msg.line));
            dereg.line = msg.line;
            dereg.mask = stale;
            dereg.requester = id_;
            dereg.cls = TrafficClass::Store;
            dereg.ctl = CtlType::ReqCtl;
            dereg.aux = 2; // deregister correction
            net_.send(std::move(dereg));
        }
        maybeFireDrain();
        break;
      }
      case MsgKind::DnRegInv:
        handleRegInv(msg);
        break;
      case MsgKind::DnWbAck: {
        auto it = pendingWbAcks_.find(msg.line);
        if (it != pendingWbAcks_.end() && --it->second == 0) {
            pendingWbAcks_.erase(it);
            evictBuf_.erase(msg.line);
        }
        maybeFireDrain();
        break;
      }
      case MsgKind::DnRecall:
        handleRecall(msg);
        break;
      case MsgKind::BloomCopyResp: {
        bloom_.installImage(msg.src.idx, msg.aux,
                            msg.chunks.raw<BloomImage>());
        bloomCopyPending_.erase(
            static_cast<Addr>(msg.src.idx) * params_.bloomFilters +
            msg.aux);
        break;
      }
      case MsgKind::Nack:
        handleNack(msg);
        break;
      default:
        panic("DeNovo L1 got unexpected %s", msgKindName(msg.kind));
    }
}

} // namespace wastesim
