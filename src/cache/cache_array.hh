/**
 * @file
 * Set-associative tag/metadata array shared by the MESI and DeNovo
 * controllers.
 *
 * The simulator is metadata-only: lines carry per-word coherence
 * state, dirty bits, memory-profiler instance references and the
 * word profiler's per-word waste state, but no data values (no
 * reported metric depends on values).  CacheLine holds what every
 * controller reads; each controller derives its own line type
 * (MesiL1Line, MesiDirLine, DenovoL1Line, DenovoL2Line) with only the
 * fields its protocol reads, and instantiates CacheArray over it.
 *
 * The word profiler's state lives only here, so a word it counts as
 * present must sit in a valid line: resetTo() and invalidate() panic
 * on a slot whose state still has a present word.
 *
 * An array pays for the lines it holds, not for its geometry: only the
 * packed tag array and a per-set table of way-group pointers are
 * allocated up front.  Line storage comes in contiguous groups of
 * CacheArray::groupWays ways, allocated by the first victimFor() that
 * picks a way in a group not yet allocated.  victimFor() picks the
 * lowest invalid way, so a set that has held at most k lines at once
 * owns ceil(k / groupWays) groups.  A group is never moved or freed
 * before the array, so controllers may keep Line pointers across
 * events.
 */

#ifndef WASTESIM_CACHE_CACHE_ARRAY_HH
#define WASTESIM_CACHE_CACHE_ARRAY_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/log.hh"
#include "common/types.hh"
#include "common/word_mask.hh"
#include "profile/word_profiler.hh"

namespace wastesim
{

/** The metadata every controller's line carries. */
struct CacheLine
{
    Addr line = 0;              //!< line byte address
    std::uint64_t lastUse = 0;  //!< LRU stamp

    /** Memory-profiler instance carried by each resident word. */
    std::array<InstId, wordsPerLine> memRef;
    /**
     * Word-profiler state of the line's words: which are present and
     * which hold a still unclassified instance (with its class, epoch
     * and hops).  Only the cache's WordProfiler changes it.
     */
    WordProfiler::LineState prof;

    WordMask validWords;        //!< words with (conceptually) live data
    WordMask dirtyWords;        //!< words modified vs. the next level
    bool valid = false;         //!< tag valid
    bool busy = false;          //!< mid-transaction; not evictable

    CacheLine() { memRef.fill(invalidInst); }

    /**
     * Re-initialize the slot for a new line address.  Every field but
     * lastUse is reset: a refilled slot keeps its LRU stamp until the
     * caller touches it.  Derived lines hide this with a version that
     * also resets their own fields.
     */
    void
    resetTo(Addr line_addr)
    {
        line = line_addr;
        valid = true;
        busy = false;
        validWords = WordMask::none();
        dirtyWords = WordMask::none();
        memRef.fill(invalidInst);
        prof = {};
    }
};
static_assert(sizeof(CacheLine) == 112);

/**
 * A set-associative array of @p Line slots with LRU replacement.
 * @p Line is CacheLine or a type derived from it.
 */
template <typename Line = CacheLine>
class CacheArray
{
  public:
    /**
     * Ways per line-storage group.  Four keeps a group at 448-608
     * bytes: small enough that sparsely used sets stay cheap, large
     * enough that the malloc header stays under 5% of it.
     */
    static constexpr unsigned groupWays = 4;

    /**
     * @param sets       number of sets
     * @param ways       associativity
     * @param index_div  line-address divisor applied before set
     *                   indexing (L2 slices see every 16th 256-byte
     *                   chunk, so they divide out the interleaving).
     *                   Known defect: the L2s pass the tile count, which
     *                   divides by lines, not by 4-line chunks, so a
     *                   slice reaches only a quarter of its sets.  The
     *                   golden results depend on it.
     */
    CacheArray(unsigned sets, unsigned ways, unsigned index_div = 1)
        : sets_(sets), ways_(ways),
          groupsPerSet_((ways + groupWays - 1) / groupWays),
          indexDiv_(index_div), indexShift_(std::countr_zero(index_div)),
          indexDivPow2_(std::has_single_bit(index_div)),
          groups_(static_cast<std::size_t>(sets) * groupsPerSet_),
          tags_(static_cast<std::size_t>(sets) * ways, noTag)
    {
        panic_if(sets == 0 || ways == 0 || index_div == 0,
                 "degenerate cache geometry");
        panic_if((sets & (sets - 1)) != 0,
                 "set count must be a power of two");
    }

    /** Find the line, or nullptr. Does not touch LRU. */
    Line *
    find(Addr line_addr)
    {
        const unsigned set = setIndex(line_addr);
        const Addr *tags = &tags_[static_cast<std::size_t>(set) * ways_];
        for (unsigned w = 0; w < ways_; ++w)
            if (tags[w] == line_addr)
                return &group(set, w / groupWays)[w % groupWays];
        return nullptr;
    }

    const Line *
    find(Addr line_addr) const
    {
        return const_cast<CacheArray *>(this)->find(line_addr);
    }

    /** Mark the line most-recently used. */
    void touch(Line &cl) { cl.lastUse = ++useClock_; }

    /**
     * Re-initialize @p cl for @p line_addr (after the caller finished
     * evicting any victim), keeping the packed tag array in sync.
     * @p cl must be the slot victimFor(line_addr) returned.  Always
     * use this for slots owned by the array; the raw Line::resetTo is
     * only for detached copies (evict buffers).
     */
    void
    resetTo(Line &cl, Addr line_addr)
    {
        checkNoProfiledWords(cl);
        const std::size_t slot = slotIndex(setIndex(line_addr), cl);
        cl.resetTo(line_addr);
        tags_[slot] = line_addr;
    }

    /**
     * Choose the slot a fill of @p line_addr should use: an invalid
     * way if one exists, else the LRU non-busy way.  Returns nullptr
     * if every way is busy (caller must retry).  Picking an invalid
     * way allocates its group if the set has not used it yet.
     *
     * The returned slot may hold a valid victim; the caller performs
     * the protocol eviction actions and then calls resetTo().
     */
    Line *
    victimFor(Addr line_addr)
    {
        const unsigned set = setIndex(line_addr);
        const Addr *tags = &tags_[static_cast<std::size_t>(set) * ways_];
        Line *lru = nullptr;
        for (unsigned g = 0; g < groupsPerSet_; ++g) {
            Line *grp = group(set, g);
            const unsigned first = g * groupWays;
            const unsigned end = std::min(first + groupWays, ways_);
            for (unsigned w = first; w < end; ++w) {
                if (tags[w] == noTag)
                    return &(grp ? grp : allocateGroup(set, g))[w - first];
                Line &cl = grp[w - first];
                if (cl.busy)
                    continue;
                if (!lru || cl.lastUse < lru->lastUse)
                    lru = &cl;
            }
        }
        return lru;
    }

    /** Invalidate (tag-drop) a valid line slot. */
    void
    invalidate(Line &cl)
    {
        checkNoProfiledWords(cl);
        tags_[slotIndex(setIndex(cl.line), cl)] = noTag;
        cl.valid = false;
        cl.busy = false;
    }

    unsigned sets() const { return sets_; }
    unsigned ways() const { return ways_; }

    /**
     * Set index for @p line_addr.  resetTo() and invalidate() compute
     * it too, so a power-of-two divisor (every L1, and the L2s of
     * power-of-two meshes) shifts instead of paying a 64-bit divide.
     */
    unsigned
    setIndex(Addr line_addr) const
    {
        const Addr n = line_addr / bytesPerLine;
        const Addr q = indexDivPow2_ ? n >> indexShift_ : n / indexDiv_;
        return static_cast<unsigned>(q) & (sets_ - 1);
    }

    /**
     * Iterate all valid lines (end-of-run sweeps), set by set and,
     * within a set, in way order.
     */
    template <typename Fn>
    void
    forEachValid(Fn &&fn)
    {
        for (unsigned set = 0; set < sets_; ++set)
            for (unsigned g = 0; g < groupsPerSet_; ++g)
                if (Line *grp = group(set, g))
                    for (unsigned i = 0; i < groupWays; ++i)
                        if (grp[i].valid)
                            fn(grp[i]);
    }

    /** Iterate all valid lines read-only (invariant checks, tests). */
    template <typename Fn>
    void
    forEachValid(Fn &&fn) const
    {
        const_cast<CacheArray *>(this)->forEachValid(
            [&fn](const Line &cl) { fn(cl); });
    }

  private:
    /**
     * A slot losing its line must hold no word the profiler counts as
     * present: the controller evicts or invalidates them first.
     */
    static void
    checkNoProfiledWords(const Line &cl)
    {
        panic_if(!cl.prof.present().empty(),
                 "line %llx leaves its slot with profiled words %s",
                 static_cast<unsigned long long>(cl.line),
                 cl.prof.present().toString().c_str());
    }

    /** Tag slot of invalid ways (never a real line address). */
    static constexpr Addr noTag = ~Addr(0);

    /** First line of group @p g of @p set, or nullptr if unallocated. */
    Line *
    group(unsigned set, unsigned g) const
    {
        return groups_[static_cast<std::size_t>(set) * groupsPerSet_ + g]
            .get();
    }

    /**
     * Allocate group @p g of @p set.  A group always holds groupWays
     * lines; in a short last group the ones past ways_ stay unused.
     */
    Line *
    allocateGroup(unsigned set, unsigned g)
    {
        std::unique_ptr<Line[]> &grp =
            groups_[static_cast<std::size_t>(set) * groupsPerSet_ + g];
        grp = std::make_unique<Line[]>(groupWays);
        return grp.get();
    }

    /** Tag-array index of @p cl, a slot of @p set. */
    std::size_t
    slotIndex(unsigned set, const Line &cl) const
    {
        const auto addr = reinterpret_cast<std::uintptr_t>(&cl);
        for (unsigned g = 0; g < groupsPerSet_; ++g) {
            const auto base = reinterpret_cast<std::uintptr_t>(group(set, g));
            const std::uintptr_t off = addr - base;
            if (base != 0 && off < groupWays * sizeof(Line))
                return static_cast<std::size_t>(set) * ways_ +
                       g * groupWays + off / sizeof(Line);
        }
        panic("line slot is not in set %u", set);
    }

    unsigned sets_, ways_, groupsPerSet_, indexDiv_, indexShift_;
    bool indexDivPow2_;
    std::uint64_t useClock_ = 0;
    /** Per set, groupsPerSet_ way groups (null until first needed). */
    std::vector<std::unique_ptr<Line[]>> groups_;
    /**
     * Packed tag array, sets_ x ways_ (noTag = invalid way).  A line
     * is 112-152 bytes, so a ways-wide lookup over the lines touches
     * one or two cache lines per way; scanning the packed tags touches
     * one or two for the whole set.
     */
    std::vector<Addr> tags_;
};

} // namespace wastesim

#endif // WASTESIM_CACHE_CACHE_ARRAY_HH
