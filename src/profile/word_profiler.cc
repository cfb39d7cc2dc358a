#include "profile/word_profiler.hh"

namespace wastesim
{

void
WordProfiler::openInstances(LineState &s, std::uint16_t bits,
                            TrafficClass cls, unsigned hops)
{
    if (!bits)
        return;
    const bool ld = cls == TrafficClass::Load;
    s.mask_ |= bits;
    s.open_ |= bits;
    s.load_ = static_cast<std::uint16_t>(ld ? s.load_ | bits
                                            : s.load_ & ~bits);
    s.epoch_ = static_cast<std::uint16_t>(epochMarked_ ? s.epoch_ | bits
                                                       : s.epoch_ & ~bits);
    const auto h = static_cast<std::uint8_t>(hops);
    for (unsigned w = 0; w < wordsPerLine; ++w)
        s.hops_[w] = (bits >> w) & 1u ? h : s.hops_[w];
    const unsigned n = std::popcount(bits);
    tally_[static_cast<unsigned>(WasteCat::Unclassified)] += n;
    quarters_[ld][false] += std::uint64_t{hops} * n;
}

void
WordProfiler::arrive(LineState &s, WordMask words, TrafficClass cls,
                     unsigned hops)
{
    // Words already present: the arriving copies are Fetch waste.
    const unsigned fetched = std::popcount(
        static_cast<std::uint16_t>(words.raw() & s.mask_));
    tally_[static_cast<unsigned>(WasteCat::Fetch)] += fetched;
    quarters_[cls == TrafficClass::Load][false] +=
        std::uint64_t{hops} * fetched;
    openInstances(s, static_cast<std::uint16_t>(words.raw() & ~s.mask_),
                  cls, hops);
}

void
WordProfiler::bankUsed(const LineState &s, std::uint16_t in)
{
    for (std::uint16_t b = in; b; b &= static_cast<std::uint16_t>(b - 1)) {
        const unsigned w = std::countr_zero(b);
        const bool ld = (s.load_ >> w) & 1u;
        quarters_[ld][false] -= s.hops_[w];
        quarters_[ld][true] += s.hops_[w];
    }
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
