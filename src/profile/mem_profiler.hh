/**
 * @file
 * Memory-level waste profiler implementing the FSM of Fig. 4.3.
 *
 * Every word the memory controller sends on-chip is paired with a
 * unique identifier; the pair (address, identifier) is profiled
 * separately from other instances of the same address.  The profiler
 * reference-counts on-chip copies of each instance (DeNovo's
 * non-inclusive L2 means several copies of one fetch can coexist):
 *
 *  - sent while the address is already present in the home L2 -> Fetch
 *  - any core loads a copy                                    -> Used
 *  - any L1 issues a write to the address                     -> Write
 *    (all on-chip instances of the address)
 *  - last copy evicted                                        -> Evict
 *  - last copy invalidated                                    -> Invalidate
 *  - copies still on-chip at the end of the run               -> Unevicted
 *  - read from DRAM but filtered at the MC (L2 Flex)          -> Excess
 *
 * Instance records are never recycled, so the arena grows with every
 * word ever sent on-chip.  Ids are capped at maxInstances: a cell
 * large enough to exceed it fails fast with a message instead of
 * growing toward an out-of-memory kill.
 */

#ifndef WASTESIM_PROFILE_MEM_PROFILER_HH
#define WASTESIM_PROFILE_MEM_PROFILER_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/flat_map.hh"
#include "common/types.hh"
#include "common/word_mask.hh"
#include "profile/waste.hh"

namespace wastesim
{

/** Chip-global memory fetch-waste profiler (one per simulation). */
class MemProfiler
{
  public:
    /** Instance-id cap (about 12 GiB of records): create() panics
     *  instead of growing the arena past it. */
    static constexpr std::size_t maxInstances =
        (std::size_t{1} << 29) - 1;

    /**
     * The MC sends a freshly fetched word on-chip.
     *
     * @param word_num       global word number
     * @param present_in_l2  was the address already present in the
     *                       home L2 slice when memory sent it?
     * @return new instance id (reference count starts at zero; call
     *         addRef() for each cache copy installed)
     */
    InstId create(Addr word_num, bool present_in_l2);

    /** A cache installed a copy of instance @p id. */
    void
    addRef(InstId id)
    {
        if (id == invalidInst)
            return;
        ++recs_[id].refs;
    }

    /**
     * A cache copy of instance @p id died.
     *
     * @param invalidated true if the copy died to an invalidation,
     *                    false for an eviction/replacement
     */
    void dropRef(InstId id, bool invalidated);

    /** A core read a copy of instance @p id. */
    void
    used(InstId id)
    {
        if (id == invalidInst)
            return;
        classify(id, WasteCat::Used);
    }

    /**
     * An L1 issued a write to @p word_num: all open instances of the
     * address become Write waste.
     */
    void
    storeAddr(Addr word_num)
    {
        const LineHeads *lh = byAddr_.find(word_num / wordsPerLine);
        if (!lh)
            return;
        for (InstId id = lh->head[word_num % wordsPerLine];
             id != invalidInst; id = recs_[id].nextSame)
            classify(id, WasteCat::Write);
    }

    /** @p nwords were read from DRAM and dropped at the MC. */
    void excess(unsigned nwords) { excess_ += nwords; }

    /** Begin the measurement window (warm-up excluded). */
    void
    markEpoch()
    {
        epochStart_ = recs_.size();
        excessAtEpoch_ = excess_;
    }

    /** Close the run; returns word counts by category (incl. Excess). */
    WasteCounts finalize();

    /** Counts so far, without finalizing. */
    WasteCounts counts() const;

    /** Number of instances created (words sent on-chip). */
    std::size_t numInstances() const { return recs_.size(); }

    /** On-chip copies of instance @p id (testing hook). */
    unsigned refs(InstId id) const { return recs_[id].refs; }

  private:
    struct Rec
    {
        WasteCat cat = WasteCat::Unclassified;
        unsigned refs = 0;
        Addr wordNum = 0;
        /** Intrusive doubly-linked list of live instances of the same
         *  word, anchored in byAddr_ — no per-word heap vector. */
        InstId prevSame = invalidInst;
        InstId nextSame = invalidInst;
    };

    void
    classify(InstId id, WasteCat cat)
    {
        Rec &r = recs_[id];
        if (r.cat == WasteCat::Unclassified)
            r.cat = cat;
    }

    /** Per-word live-instance list heads for one cache line (one
     *  probe covers a whole line's worth of creates/drops). */
    struct LineHeads
    {
        LineHeads() { head.fill(invalidInst); }
        std::array<InstId, wordsPerLine> head;
    };

    std::vector<Rec> recs_;
    std::size_t epochStart_ = 0;
    /** line number -> per-word instance list heads. */
    FlatMap<LineHeads> byAddr_;
    double excess_ = 0;
    double excessAtEpoch_ = 0;
    bool finalized_ = false;
};

} // namespace wastesim

#endif // WASTESIM_PROFILE_MEM_PROFILER_HH
