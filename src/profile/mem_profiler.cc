#include "profile/mem_profiler.hh"

#include "common/log.hh"

namespace wastesim
{

InstId
MemProfiler::create(Addr word_num, bool present_in_l2)
{
    panic_if(recs_.size() >= maxInstances, "instance id space exhausted");
    const InstId id = static_cast<InstId>(recs_.size());
    recs_.push_back(Rec{WasteCat::Unclassified, 0, word_num,
                        invalidInst, invalidInst});
    if (present_in_l2) {
        // Fig. 4.3: memory sends (A, I) while A is present in the L2.
        recs_[id].cat = WasteCat::Fetch;
    }
    // Push onto the word's live-instance list.
    InstId &head =
        byAddr_.getOrDefault(word_num / wordsPerLine)
            .head[word_num % wordsPerLine];
    if (head != invalidInst) {
        recs_[id].nextSame = head;
        recs_[head].prevSame = id;
    }
    head = id;
    return id;
}

void
MemProfiler::dropRef(InstId id, bool invalidated)
{
    if (id == invalidInst)
        return;
    Rec &r = recs_[id];
    panic_if(r.refs == 0, "dropRef on instance with zero refs");
    if (--r.refs == 0) {
        if (r.cat == WasteCat::Unclassified)
            r.cat = invalidated ? WasteCat::Invalidate
                                : WasteCat::Evict;
        // Unlink from the word's live-instance list.
        if (r.nextSame != invalidInst)
            recs_[r.nextSame].prevSame = r.prevSame;
        if (r.prevSame != invalidInst) {
            recs_[r.prevSame].nextSame = r.nextSame;
        } else if (LineHeads *lh =
                       byAddr_.find(r.wordNum / wordsPerLine)) {
            InstId &head = lh->head[r.wordNum % wordsPerLine];
            if (head == id)
                head = r.nextSame;
        }
        r.prevSame = r.nextSame = invalidInst;
    }
}

WasteCounts
MemProfiler::finalize()
{
    panic_if(finalized_, "MemProfiler finalized twice");
    finalized_ = true;
    for (auto &r : recs_)
        if (r.cat == WasteCat::Unclassified)
            r.cat = WasteCat::Unevicted;
    return counts();
}

WasteCounts
MemProfiler::counts() const
{
    WasteCounts c;
    for (std::size_t i = epochStart_; i < recs_.size(); ++i) {
        const Rec &r = recs_[i];
        WasteCat cat = r.cat == WasteCat::Unclassified
            ? WasteCat::Unevicted : r.cat;
        c[cat] += 1.0;
    }
    c[WasteCat::Excess] += excess_ - excessAtEpoch_;
    return c;
}

} // namespace wastesim
