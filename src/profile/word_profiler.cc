#include "profile/word_profiler.hh"

#include "common/log.hh"

namespace wastesim
{

void
WordProfiler::openInstance(LineSlot &ls, unsigned w, TrafficClass cls,
                           unsigned hops)
{
    const std::uint16_t bit = static_cast<std::uint16_t>(1u << w);
    const bool ld = cls == TrafficClass::Load;
    ls.mask |= bit;
    ls.open |= bit;
    ls.load = ld ? ls.load | bit : ls.load & ~bit;
    ls.epoch = epochMarked_ ? ls.epoch | bit : ls.epoch & ~bit;
    ls.hops[w] = static_cast<std::uint8_t>(hops);
    ++tally_[static_cast<unsigned>(WasteCat::Unclassified)];
    quarters_[ld][false] += hops;
}

void
WordProfiler::arrive(Addr word_num, TrafficClass cls, unsigned hops)
{
    LineSlot &ls = present_.getOrDefault(lineKey(word_num));
    const unsigned w = widx(word_num);
    if (ls.mask & (1u << w)) {
        // Word already present: the arriving copy is Fetch waste
        // (Fig. 4.1/4.2, "word present in cache? yes -> Fetch").
        ++tally_[static_cast<unsigned>(WasteCat::Fetch)];
        quarters_[cls == TrafficClass::Load][false] += hops;
        return;
    }
    openInstance(ls, w, cls, hops);
}

void
WordProfiler::arriveUntracked(Addr word_num)
{
    present_.getOrDefault(lineKey(word_num)).mask |=
        static_cast<std::uint16_t>(1u << widx(word_num));
}

void
WordProfiler::arriveReplace(Addr word_num, TrafficClass cls,
                            unsigned hops)
{
    LineSlot &ls = present_.getOrDefault(lineKey(word_num));
    const unsigned w = widx(word_num);
    classify(ls, w, WasteCat::Write);
    openInstance(ls, w, cls, hops);
}

void
WordProfiler::writeKill(Addr word_num)
{
    if (LineSlot *ls = present_.find(lineKey(word_num)))
        remove(*ls, widx(word_num), WasteCat::Write);
}

void
WordProfiler::respUsed(Addr word_num)
{
    if (LineSlot *ls = present_.find(lineKey(word_num)))
        classify(*ls, widx(word_num), WasteCat::Used);
}

void
WordProfiler::overwrite(Addr word_num)
{
    LineSlot &ls = present_.getOrDefault(lineKey(word_num));
    const unsigned w = widx(word_num);
    classify(ls, w, WasteCat::Write);
    ls.mask |= static_cast<std::uint16_t>(1u << w);
}

void
WordProfiler::evict(Addr word_num)
{
    if (LineSlot *ls = present_.find(lineKey(word_num)))
        remove(*ls, widx(word_num), WasteCat::Evict);
}

void
WordProfiler::invalidate(Addr word_num)
{
    if (LineSlot *ls = present_.find(lineKey(word_num)))
        remove(*ls, widx(word_num),
               level_ == Level::L1 ? WasteCat::Invalidate
                                   : WasteCat::Evict);
}

void
WordProfiler::markEpoch()
{
    panic_if(epochMarked_, "WordProfiler epoch marked twice");
    epochMarked_ = true;
    tally_ = {};
    quarters_ = {};
}

WasteCounts
WordProfiler::finalize(TrafficStats &traffic)
{
    panic_if(finalized_, "WordProfiler finalized twice");
    finalized_ = true;

    auto &open = tally_[static_cast<unsigned>(WasteCat::Unclassified)];
    tally_[static_cast<unsigned>(WasteCat::Unevicted)] += open;
    open = 0;

    // A quarter flit-hop is exact in a double, so adding the integer
    // sums gives the same bits as adding instance by instance.
    const auto fh = [](std::uint64_t q) {
        return static_cast<double>(q) / wordsPerFlit;
    };
    if (level_ == Level::L1) {
        traffic.ldRespL1Used += fh(quarters_[1][1]);
        traffic.ldRespL1Waste += fh(quarters_[1][0]);
        traffic.stRespL1Used += fh(quarters_[0][1]);
        traffic.stRespL1Waste += fh(quarters_[0][0]);
    } else {
        traffic.ldRespL2Used += fh(quarters_[1][1]);
        traffic.ldRespL2Waste += fh(quarters_[1][0]);
        traffic.stRespL2Used += fh(quarters_[0][1]);
        traffic.stRespL2Waste += fh(quarters_[0][0]);
    }
    return counts();
}

WasteCounts
WordProfiler::counts() const
{
    WasteCounts c;
    for (unsigned i = 0; i < numWasteCats; ++i)
        c.byCat[i] = static_cast<double>(tally_[i]);
    return c;
}

} // namespace wastesim
