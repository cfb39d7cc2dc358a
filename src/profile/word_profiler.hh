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
 * the only instance that can still be open is a word's resident copy,
 * whose state lives in its cache line's LineSlot.  A slot whose words
 * have all left the cache is dead; the line table purges dead slots
 * before it grows, so it stays within twice the slots the cache's
 * largest resident set needs, not the lines it has ever received.
 * Banked traffic is an integer count of quarter flit-hops (one word's
 * share of a data flit), so sums are exact in any order.
 */

#ifndef WASTESIM_PROFILE_WORD_PROFILER_HH
#define WASTESIM_PROFILE_WORD_PROFILER_HH

#include <array>
#include <cstdint>

#include "common/flat_map.hh"
#include "common/log.hh"
#include "common/topology.hh"
#include "common/types.hh"
#include "profile/waste.hh"

namespace wastesim
{

/** Word-instance waste profiler for one L1 cache or one L2 slice. */
class WordProfiler
{
  public:
    /** Which FSM flavor this profiler implements. */
    enum class Level { L1, L2 };

    explicit WordProfiler(Level level) : level_(level) {}

    /**
     * A tracked word arrives in a data message.
     *
     * @param word_num global word number (address / 4)
     * @param cls      traffic class of the delivering message
     * @param hops     route length of the delivering message
     *                 (Message::hops, at most maxHops); the word banks
     *                 its per-word share, hops / wordsPerFlit data
     *                 flit-hops
     */
    void arrive(Addr word_num, TrafficClass cls, unsigned hops);

    /**
     * A word becomes present without a profiled fetch: store-allocated
     * at the L1 under write-validate, or installed by an L1 writeback
     * at the L2.  Subsequent tracked arrivals of the word classify as
     * Fetch waste.
     */
    void arriveUntracked(Addr word_num);

    /** The core reads the word (L1) — classifies Used. */
    void
    load(Addr word_num)
    {
        LineSlot *ls = present_.find(lineKey(word_num));
        const unsigned w = widx(word_num);
        panic_if(!ls || !(ls->mask & (1u << w)),
                 "L1 load hit on word %llu the profiler believes absent",
                 static_cast<unsigned long long>(word_num));
        classify(*ls, w, WasteCat::Used);
    }

    /**
     * The core writes the word (L1).  An open instance is classified
     * Write (overwritten before use); an absent word becomes present
     * untracked (write-validate allocation).
     */
    void
    store(Addr word_num)
    {
        LineSlot &ls = present_.getOrDefault(lineKey(word_num));
        const unsigned w = widx(word_num);
        if (ls.mask & (1u << w))
            classify(ls, w, WasteCat::Write);
        else
            ls.mask |= 1u << w; // write-validate: present, untracked
    }

    /**
     * The L2's resident copy of this word satisfied a request (an L2
     * hit) — classifies Used.  Demand-fill forwards do not count: a
     * fetched word only becomes Used through reuse.
     */
    void respUsed(Addr word_num);

    /**
     * Newer data for a tracked word arrives (e.g. an owner's dirty
     * copy reaching the L2): the old open instance becomes Write waste
     * and the arriving one takes over as the resident instance.
     */
    void arriveReplace(Addr word_num, TrafficClass cls, unsigned hops);

    /**
     * A remote write kills the resident copy (DeNovo registration
     * stealing the word): an open instance becomes Write waste,
     * presence ends.
     */
    void writeKill(Addr word_num);

    /**
     * An L1 writeback overwrites this word at the L2 — an open
     * instance becomes Write waste.  The word stays (or becomes)
     * present.
     */
    void overwrite(Addr word_num);

    /** The word is evicted from the cache. */
    void evict(Addr word_num);

    /** The word is invalidated by the protocol. */
    void invalidate(Addr word_num);

    /** Slots in the line table (testing hook for its bound). */
    std::size_t lineCapacity() const { return present_.capacity(); }

    /** True if the profiler believes the word is present. */
    bool
    present(Addr word_num) const
    {
        const LineSlot *ls = present_.find(lineKey(word_num));
        return ls && (ls->mask & (1u << widx(word_num)));
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

    /** Longest route (Message::hops) on the largest mesh. */
    static constexpr unsigned maxHops = 2 * (Topology::maxDim - 1) + 1;
    static_assert(maxHops <= UINT8_MAX, "hops must fit a LineSlot byte");

  private:
    /**
     * Presence state of one cache line's words.  A present word with
     * its open bit clear is untracked or already classified; an open
     * word is the resident, still unclassified instance, which carries
     * its traffic class (load bit), whether it counts toward this
     * run's window (epoch bit) and its route length in hops.  Grouping
     * by line means a fill/evict/load burst over a line costs one hash
     * probe, not sixteen.
     */
    struct LineSlot
    {
        std::uint16_t mask = 0;
        std::uint16_t open = 0;
        std::uint16_t load = 0;
        std::uint16_t epoch = 0;
        std::array<std::uint8_t, wordsPerLine> hops;
    };

    /** No word present: open is a subset of mask, so nothing is lost
     *  when the slot is dropped. */
    static bool lineDead(const LineSlot &ls) { return ls.mask == 0; }

    /** Make word @p w of @p ls present with a new open instance. */
    void openInstance(LineSlot &ls, unsigned w, TrafficClass cls,
                      unsigned hops);

    /** Classify word @p w's resident instance as @p cat if open. */
    void
    classify(LineSlot &ls, unsigned w, WasteCat cat)
    {
        const std::uint16_t bit = static_cast<std::uint16_t>(1u << w);
        if (!(ls.open & bit))
            return;
        ls.open &= static_cast<std::uint16_t>(~bit);
        if (((ls.epoch & bit) != 0) != epochMarked_)
            return; // arrived before the measurement window
        --tally_[static_cast<unsigned>(WasteCat::Unclassified)];
        ++tally_[static_cast<unsigned>(cat)];
        if (cat == WasteCat::Used) {
            const bool ld = ls.load & bit;
            quarters_[ld][false] -= ls.hops[w];
            quarters_[ld][true] += ls.hops[w];
        }
    }

    /** Classify word @p w if open, then end its presence. */
    void
    remove(LineSlot &ls, unsigned w, WasteCat cat)
    {
        classify(ls, w, cat);
        ls.mask &= static_cast<std::uint16_t>(~(1u << w));
    }

    static Addr lineKey(Addr word_num) { return word_num / wordsPerLine; }
    static unsigned widx(Addr word_num)
    {
        return static_cast<unsigned>(word_num % wordsPerLine);
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
    /** line number -> per-word presence/instance state. */
    FlatMap<LineSlot> present_{lineDead};
};

} // namespace wastesim

#endif // WASTESIM_PROFILE_WORD_PROFILER_HH
