#include "profile/mem_profiler.hh"

#include "common/log.hh"

namespace wastesim
{

void
MemProfiler::expectEpoch()
{
    panic_if(nextId_ != 0, "expectEpoch after %zu instances were created",
             nextId_);
    warmEnd_ = epochPending;
}

InstId
MemProfiler::create(Addr word_num, bool present_in_l2)
{
    panic_if(nextId_ >= invalidInst, "instance id space exhausted");
    const InstId id = static_cast<InstId>(nextId_++);
    const bool warm = id < warmEnd_;
    if ((id & (chunkIds - 1)) == 0) {
        // The previous chunk's ids are now all handed out.
        if (id != 0) {
            releaseRecs((id >> chunkBits) - 1);
            releaseCounts((id >> chunkBits) - 1);
        }
        recs_.add(!warm);
        copyCounts_.add(warm);
    }
    if (warm)
        return id; // a copy count of zero, nothing else
    RecChunk &c = *recs_.of(id);
    ++c.live;
    Rec &r = c.slot(id);
    r.wordNum = word_num;
    r.open = true;
    if (present_in_l2) {
        // Fig. 4.3: memory sends (A, I) while A is present in the L2.
        // The copies about to be installed keep the record open.
        r.cat = WasteCat::Fetch;
        if (id >= epochStart_)
            ++tally_[static_cast<unsigned>(WasteCat::Fetch)];
    }
    // Push onto the word's open-instance list.
    InstId &head =
        byAddr_.getOrDefault(word_num / wordsPerLine)
            .head[word_num % wordsPerLine];
    if (head != invalidInst) {
        r.nextSame = head;
        rec(head).prevSame = id;
    }
    head = id;
    return id;
}

void
MemProfiler::dropRef(InstId id, bool invalidated)
{
    if (id == invalidInst)
        return;
    if (id < warmEnd_) {
        CountChunk *c = copyCounts_.of(id);
        if (!c) {
            dropCounted(id);
            return;
        }
        std::uint16_t &n = c->slot(id);
        panic_if(n == 0, "dropRef on instance with zero refs");
        if (--n == 0) {
            --c->live;
            releaseCounts(id >> chunkBits);
        }
        return;
    }
    Rec *r = openRec(id);
    if (!r) {
        // A copy re-installed after the instance closed.
        dropCounted(id);
        return;
    }
    panic_if(r->refs == 0, "dropRef on instance with zero refs");
    if (--r->refs == 0) {
        if (r->cat == WasteCat::Unclassified)
            classify(id, *r, invalidated ? WasteCat::Invalidate
                                         : WasteCat::Evict);
        else
            close(id, *r);
    }
}

void
MemProfiler::dropCounted(InstId id)
{
    unsigned *copies = reinstalled_.find(id);
    panic_if(!copies, "dropRef on instance with zero refs");
    if (--*copies == 0)
        reinstalled_.erase(id);
}

void
MemProfiler::storeAddr(Addr word_num)
{
    const LineHeads *lh = byAddr_.find(word_num / wordsPerLine);
    if (!lh)
        return;
    for (InstId id = lh->head[word_num % wordsPerLine];
         id != invalidInst;) {
        Rec &r = rec(id);
        const InstId next = r.nextSame; // classify() may close r
        classify(id, r, WasteCat::Write);
        id = next;
    }
}

void
MemProfiler::markEpoch()
{
    if (warmEnd_ == epochPending) {
        warmEnd_ = nextId_;
        // The chunk holding the first window id began as a count
        // chunk; its window ids need records.
        if (nextId_ & (chunkIds - 1))
            recs_.v.back() = std::make_unique<RecChunk>();
    }
    epochStart_ = nextId_;
    tally_ = {};
    excessAtEpoch_ = excess_;
}

void
MemProfiler::close(InstId id, Rec &r)
{
    if (r.nextSame != invalidInst)
        rec(r.nextSame).prevSame = r.prevSame;
    if (r.prevSame != invalidInst)
        rec(r.prevSame).nextSame = r.nextSame;
    else
        byAddr_.find(r.wordNum / wordsPerLine)
            ->head[r.wordNum % wordsPerLine] = r.nextSame;
    RecChunk *c = recs_.of(id);
    if (!c) {
        strays_.erase(id); // r dangles from here on
        return;
    }
    r.open = false;
    --c->live;
    releaseRecs(id >> chunkBits);
}

void
MemProfiler::releaseRecs(std::size_t k)
{
    recs_.releaseIfSparse(k, nextId_, [this](InstId id, const Rec &r) {
        if (r.open)
            strays_.insert(id, r);
    });
}

void
MemProfiler::releaseCounts(std::size_t k)
{
    copyCounts_.releaseIfSparse(k, nextId_, [this](InstId id, unsigned n) {
        if (n != 0)
            reinstalled_.insert(id, n);
    });
}

unsigned
MemProfiler::refs(InstId id) const
{
    if (id < warmEnd_) {
        if (CountChunk *c = copyCounts_.of(id))
            return c->slot(id);
    } else if (RecChunk *c = recs_.of(id)) {
        const Rec &r = c->slot(id);
        if (r.open)
            return r.refs;
    } else if (const Rec *r = strays_.find(id)) {
        return r->refs;
    }
    const unsigned *copies = reinstalled_.find(id);
    return copies ? *copies : 0;
}

WasteCounts
MemProfiler::finalize()
{
    panic_if(finalized_, "MemProfiler finalized twice");
    // Unmarked, every warm-up instance would drop out of all tallies.
    panic_if(warmEnd_ == epochPending,
             "MemProfiler: an epoch was expected but never marked");
    finalized_ = true;
    return counts();
}

WasteCounts
MemProfiler::counts() const
{
    WasteCounts c;
    std::uint64_t classified = 0;
    for (unsigned i = 0; i < numWasteCats; ++i) {
        c.byCat[i] = static_cast<double>(tally_[i]);
        classified += tally_[i];
    }
    // Every window instance not yet classified is still on chip.
    c[WasteCat::Unevicted] +=
        static_cast<double>(nextId_ - epochStart_ - classified);
    c[WasteCat::Excess] += excess_ - excessAtEpoch_;
    return c;
}

} // namespace wastesim
