#include "profile/mem_profiler.hh"

#include "common/log.hh"

namespace wastesim
{

InstId
MemProfiler::create(Addr word_num, bool present_in_l2)
{
    panic_if(nextId_ >= invalidInst, "instance id space exhausted");
    const InstId id = static_cast<InstId>(nextId_++);
    if ((id & (chunkRecs - 1)) == 0) {
        // The previous chunk's ids are now all handed out.
        if (!chunks_.empty() && chunks_.back())
            releaseIfSparse(chunks_.size() - 1);
        chunks_.push_back(std::make_unique<Chunk>());
    }
    Rec &r = rec(id);
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
    Rec *r = openRec(id);
    if (!r) {
        // A copy re-installed after the instance closed.
        unsigned *copies = reinstalled_.find(id);
        panic_if(!copies, "dropRef on instance with zero refs");
        if (--*copies == 0)
            reinstalled_.erase(id);
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
MemProfiler::close(InstId id, Rec &r)
{
    if (r.nextSame != invalidInst)
        rec(r.nextSame).prevSame = r.prevSame;
    if (r.prevSame != invalidInst)
        rec(r.prevSame).nextSame = r.nextSame;
    else
        byAddr_.find(r.wordNum / wordsPerLine)
            ->head[r.wordNum % wordsPerLine] = r.nextSame;
    const std::size_t k = id >> chunkBits;
    if (!chunks_[k]) {
        strays_.erase(id); // r dangles from here on
        return;
    }
    r.open = false;
    --chunks_[k]->live;
    releaseIfSparse(k);
}

void
MemProfiler::releaseIfSparse(std::size_t k)
{
    const Chunk &c = *chunks_[k];
    if (c.live > sparseRecs || ((k + 1) << chunkBits) > nextId_)
        return;
    const InstId base = static_cast<InstId>(k << chunkBits);
    for (std::size_t i = 0; i < chunkRecs; ++i)
        if (c.recs[i].open)
            strays_.insert(base + static_cast<InstId>(i), c.recs[i]);
    chunks_[k].reset();
}

unsigned
MemProfiler::refs(InstId id) const
{
    const Chunk *c = chunks_[id >> chunkBits].get();
    const Rec *r = c ? &c->recs[id & (chunkRecs - 1)] : strays_.find(id);
    if (r && r->open)
        return r->refs;
    const unsigned *copies = reinstalled_.find(id);
    return copies ? *copies : 0;
}

std::size_t
MemProfiler::residentChunks() const
{
    std::size_t n = 0;
    for (const auto &c : chunks_)
        n += c != nullptr;
    return n;
}

WasteCounts
MemProfiler::finalize()
{
    panic_if(finalized_, "MemProfiler finalized twice");
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
