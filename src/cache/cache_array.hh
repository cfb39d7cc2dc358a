/**
 * @file
 * Set-associative tag/metadata array shared by the MESI and DeNovo
 * controllers.
 *
 * The simulator is metadata-only: lines carry per-word coherence
 * state, dirty bits and profiler instance references, but no data
 * values (no reported metric depends on values).  CacheLine holds what
 * every controller reads; each controller derives its own line type
 * (MesiL1Line, MesiDirLine, DenovoL1Line, DenovoL2Line) with only the
 * fields its protocol reads, and instantiates CacheArray over it.
 */

#ifndef WASTESIM_CACHE_CACHE_ARRAY_HH
#define WASTESIM_CACHE_CACHE_ARRAY_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/log.hh"
#include "common/types.hh"
#include "common/word_mask.hh"

namespace wastesim
{

/** The metadata every controller's line carries. */
struct CacheLine
{
    Addr line = 0;              //!< line byte address
    std::uint64_t lastUse = 0;  //!< LRU stamp

    /** Memory-profiler instance carried by each resident word. */
    std::array<InstId, wordsPerLine> memRef;

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
    }
};
static_assert(sizeof(CacheLine) == 88);

/**
 * A set-associative array of @p Line slots with LRU replacement.
 * @p Line is CacheLine or a type derived from it.
 */
template <typename Line = CacheLine>
class CacheArray
{
  public:
    /**
     * @param sets       number of sets
     * @param ways       associativity
     * @param index_div  line-address divisor applied before set
     *                   indexing (L2 slices see every 16th 256-byte
     *                   chunk, so they divide out the interleaving)
     */
    CacheArray(unsigned sets, unsigned ways, unsigned index_div = 1)
        : sets_(sets), ways_(ways), indexDiv_(index_div),
          slots_(static_cast<std::size_t>(sets) * ways),
          tags_(static_cast<std::size_t>(sets) * ways, noTag)
    {
        panic_if(sets == 0 || ways == 0, "degenerate cache geometry");
        panic_if((sets & (sets - 1)) != 0,
                 "set count must be a power of two");
    }

    /** Find the line, or nullptr. Does not touch LRU. */
    Line *
    find(Addr line_addr)
    {
        const std::size_t base =
            static_cast<std::size_t>(setIndex(line_addr)) * ways_;
        for (unsigned w = 0; w < ways_; ++w)
            if (tags_[base + w] == line_addr)
                return &slots_[base + w];
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
     * Always use this for slots owned by the array; the raw
     * Line::resetTo is only for detached copies (evict buffers).
     */
    void
    resetTo(Line &cl, Addr line_addr)
    {
        cl.resetTo(line_addr);
        tags_[slotIndex(cl)] = line_addr;
    }

    /**
     * Choose the slot a fill of @p line_addr should use: an invalid
     * way if one exists, else the LRU non-busy way.  Returns nullptr
     * if every way is busy (caller must retry).
     *
     * The returned slot may hold a valid victim; the caller performs
     * the protocol eviction actions and then calls resetTo().
     */
    Line *
    victimFor(Addr line_addr)
    {
        const std::size_t base =
            static_cast<std::size_t>(setIndex(line_addr)) * ways_;
        Line *lru = nullptr;
        for (unsigned w = 0; w < ways_; ++w) {
            if (tags_[base + w] == noTag)
                return &slots_[base + w];
            Line &cl = slots_[base + w];
            if (cl.busy)
                continue;
            if (!lru || cl.lastUse < lru->lastUse)
                lru = &cl;
        }
        return lru;
    }

    /** Invalidate (tag-drop) a line slot. */
    void
    invalidate(Line &cl)
    {
        cl.valid = false;
        cl.busy = false;
        tags_[slotIndex(cl)] = noTag;
    }

    unsigned sets() const { return sets_; }
    unsigned ways() const { return ways_; }

    /** Set index for @p line_addr. */
    unsigned
    setIndex(Addr line_addr) const
    {
        return static_cast<unsigned>(
            (line_addr / bytesPerLine / indexDiv_) % sets_);
    }

    /** Iterate all valid lines (end-of-run sweeps). */
    template <typename Fn>
    void
    forEachValid(Fn &&fn)
    {
        for (Line &cl : slots_)
            if (cl.valid)
                fn(cl);
    }

    /** Iterate all valid lines read-only (invariant checks, tests). */
    template <typename Fn>
    void
    forEachValid(Fn &&fn) const
    {
        for (const Line &cl : slots_)
            if (cl.valid)
                fn(cl);
    }

  private:
    /** Tag slot of invalid ways (never a real line address). */
    static constexpr Addr noTag = ~Addr(0);

    std::size_t
    slotIndex(const Line &cl) const
    {
        return static_cast<std::size_t>(&cl - slots_.data());
    }

    unsigned sets_, ways_, indexDiv_;
    std::uint64_t useClock_ = 0;
    std::vector<Line> slots_;
    /**
     * Packed tag array mirroring slots_ (noTag = invalid way).  A line
     * is 88-128 bytes, so a ways-wide lookup over the slots touches
     * one or two cache lines per way; scanning the packed tags touches
     * one or two for the whole set.
     */
    std::vector<Addr> tags_;
};

} // namespace wastesim

#endif // WASTESIM_CACHE_CACHE_ARRAY_HH
