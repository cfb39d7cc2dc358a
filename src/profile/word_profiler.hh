/**
 * @file
 * Per-cache word-instance profiler implementing the L1 and L2 waste
 * FSMs of Figs. 4.1 and 4.2.
 *
 * Every word delivered into a cache by a data message is a word
 * *instance*.  The instance is classified exactly once:
 *
 *  - arrival while the word is already present     -> Fetch
 *  - first read (L1) / returned in a response (L2) -> Used
 *  - overwritten before use                        -> Write
 *  - invalidated before use (L1 only)              -> Invalidate
 *  - evicted before use                            -> Evict
 *  - still unclassified at end of simulation       -> Unevicted
 *
 * The instance also banks the data flit-hops that carried it, so the
 * Used/Waste split of Figs. 5.1b/5.1c follows its classification.
 *
 * No per-instance record outlives its classification: an instance is
 * tallied into per-category counters the moment it is classified, and
 * the only instance that can still be open is a word's resident copy.
 * That copy's state lives in the cache line holding the word
 * (CacheLine::prof, a WordProfiler::LineState), so the profiler keeps
 * only its tallies and never allocates.  Every call takes the line's
 * state and the words it concerns, and classifies them bit-parallel.
 *
 * A line state's present words are not the line's validWords.  At a
 * DeNovo L1, a word the core wrote under write-validate is present
 * (registered) without being valid.  At a MESI L2, the clean words of
 * an L1 writeback become valid without a profiled arrival; under
 * MMemL1 a store miss's line reaches the L2 only that way.  What the
 * arrays do guarantee is that every present word sits in a valid line
 * of its cache: CacheArray panics if it drops or reuses a slot whose
 * state still has a present word.
 *
 * Banked traffic is an integer count of quarter flit-hops (one word's
 * share of a data flit), so sums are exact in any order.
 */

#ifndef WASTESIM_PROFILE_WORD_PROFILER_HH
#define WASTESIM_PROFILE_WORD_PROFILER_HH

#include <array>
#include <bit>
#include <cstdint>

#include "common/log.hh"
#include "common/topology.hh"
#include "common/types.hh"
#include "common/word_mask.hh"
#include "profile/waste.hh"

namespace wastesim
{

/** Word-instance waste profiler for one L1 cache or one L2 slice. */
class WordProfiler
{
  public:
    /** Which FSM flavor this profiler implements. */
    enum class Level { L1, L2 };

    /** Longest route (Message::hops) on the largest mesh. */
    static constexpr unsigned maxHops = 2 * (Topology::maxDim - 1) + 1;
    static_assert(maxHops <= UINT8_MAX, "hops must fit a LineState byte");

    /**
     * Presence state of one cache line's words, kept in the line and
     * changed only by WordProfiler.  A present word with its open bit
     * clear is untracked or already classified; an open word is the
     * resident, still unclassified instance, which carries its traffic
     * class (load bit), whether it counts toward this run's window
     * (epoch bit) and its route length in hops.
     */
    class LineState
    {
      public:
        /** Words the profiler counts as present in the line. */
        WordMask present() const { return WordMask(mask_); }

      private:
        friend class WordProfiler;
        std::uint16_t mask_ = 0;
        std::uint16_t open_ = 0; //!< subset of mask_
        std::uint16_t load_ = 0;
        std::uint16_t epoch_ = 0;
        std::array<std::uint8_t, wordsPerLine> hops_{};
    };
    static_assert(sizeof(LineState) == 24);

    explicit WordProfiler(Level level) : level_(level) {}

    /**
     * Tracked @p words arrive in a data message.  A word already
     * present is Fetch waste (Fig. 4.1/4.2, "word present in cache?
     * yes -> Fetch"); the others become present with open instances.
     *
     * @param cls  traffic class of the delivering message
     * @param hops route length of the delivering message
     *             (Message::hops, at most maxHops); each word banks its
     *             per-word share, hops / wordsPerFlit data flit-hops
     */
    void arrive(LineState &s, WordMask words, TrafficClass cls,
                unsigned hops);

    /**
     * Words become present without a profiled fetch: store-allocated
     * at the L1 under write-validate, or installed by an L1 writeback
     * at the L2.  Later tracked arrivals of them classify as Fetch.
     */
    void
    arriveUntracked(LineState &s, WordMask words)
    {
        s.mask_ |= words.raw();
    }

    /** The core reads word @p w (L1) — classifies Used. */
    void
    load(LineState &s, unsigned w)
    {
        const std::uint16_t bit = static_cast<std::uint16_t>(1u << w);
        panic_if(!(s.mask_ & bit),
                 "L1 load hit on word %u the profiler believes absent", w);
        classify(s, bit, WasteCat::Used);
    }

    /**
     * The core writes word @p w (L1).  An open instance is classified
     * Write (overwritten before use); an absent word becomes present
     * untracked (write-validate allocation).
     */
    void
    store(LineState &s, unsigned w)
    {
        const std::uint16_t bit = static_cast<std::uint16_t>(1u << w);
        classify(s, bit, WasteCat::Write);
        s.mask_ |= bit;
    }

    /**
     * The L2's resident copies of @p words satisfied a request (an L2
     * hit) — classifies Used.  Demand-fill forwards do not count: a
     * fetched word only becomes Used through reuse.
     */
    void
    respUsed(LineState &s, WordMask words)
    {
        classify(s, words.raw(), WasteCat::Used);
    }

    /**
     * Newer data for @p words arrives (e.g. an owner's dirty copy
     * reaching the L2): old open instances become Write waste and the
     * arriving ones take over as the resident instances.
     */
    void
    arriveReplace(LineState &s, WordMask words, TrafficClass cls,
                  unsigned hops)
    {
        classify(s, words.raw(), WasteCat::Write);
        openInstances(s, words.raw(), cls, hops);
    }

    /**
     * A remote write kills the resident copies of @p words (DeNovo
     * registration stealing them): open instances become Write waste,
     * presence ends.
     */
    void
    writeKill(LineState &s, WordMask words)
    {
        remove(s, words.raw(), WasteCat::Write);
    }

    /**
     * An L1 writeback overwrites @p words at the L2 — open instances
     * become Write waste.  The words stay (or become) present.
     */
    void
    overwrite(LineState &s, WordMask words)
    {
        classify(s, words.raw(), WasteCat::Write);
        s.mask_ |= words.raw();
    }

    /** The line is evicted: every present word leaves the cache. */
    void evict(LineState &s) { remove(s, s.mask_, WasteCat::Evict); }

    /** The protocol invalidates @p words. */
    void
    invalidate(LineState &s, WordMask words)
    {
        remove(s, words.raw(),
               level_ == Level::L1 ? WasteCat::Invalidate
                                   : WasteCat::Evict);
    }

    /**
     * Begin the measurement window (at most once per run): instances
     * that arrived earlier (cache warm-up) are excluded from counts
     * and traffic resolution.
     */
    void markEpoch();

    /**
     * Close out the run: open instances become Unevicted.  Returns
     * word counts by category and adds this cache's resolved data
     * flit-hops into @p traffic (dest = ToL1 or ToL2 by level).
     */
    WasteCounts finalize(TrafficStats &traffic);

    /** Word counts by category so far (without finalizing). */
    WasteCounts counts() const;

  private:
    /** Make @p bits of @p s present with new open instances. */
    void openInstances(LineState &s, std::uint16_t bits, TrafficClass cls,
                       unsigned hops);

    /** Classify the open instances among @p bits as @p cat. */
    void
    classify(LineState &s, std::uint16_t bits, WasteCat cat)
    {
        bits &= s.open_;
        if (!bits)
            return;
        s.open_ &= static_cast<std::uint16_t>(~bits);
        // Instances that arrived before the measurement window count
        // nowhere.
        const std::uint16_t in = static_cast<std::uint16_t>(
            epochMarked_ ? bits & s.epoch_ : bits & ~s.epoch_);
        if (!in)
            return;
        const unsigned n = std::popcount(in);
        tally_[static_cast<unsigned>(WasteCat::Unclassified)] -= n;
        tally_[static_cast<unsigned>(cat)] += n;
        if (cat == WasteCat::Used)
            bankUsed(s, in);
    }

    /** Move the hops of the in-window words @p in from waste to used. */
    void bankUsed(const LineState &s, std::uint16_t in);

    /** Classify @p bits if open, then end their presence. */
    void
    remove(LineState &s, std::uint16_t bits, WasteCat cat)
    {
        classify(s, bits, cat);
        s.mask_ &= static_cast<std::uint16_t>(~bits);
    }

    Level level_;
    bool epochMarked_ = false;
    bool finalized_ = false;
    /**
     * Instances in the window by category; open instances count as
     * Unclassified until finalize() turns them into Unevicted.
     */
    std::array<std::uint64_t, numWasteCats> tally_{};
    /**
     * Quarter flit-hops of in-window instances, by [load class][Used].
     * An open instance banks as waste until it is classified Used.
     */
    std::array<std::array<std::uint64_t, 2>, 2> quarters_{};
};

} // namespace wastesim

#endif // WASTESIM_PROFILE_WORD_PROFILER_HH
