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
 * An instance is tallied into its category when it is classified, and
 * its record is released once it is classified and no cache holds a
 * copy.  Records sit in fixed-size chunks indexed by id.  Once all of
 * a chunk's ids are handed out and at most an eighth of its records
 * are still open, those few move to a small id-keyed side map and the
 * chunk is freed, so a handful of long-lived copies cannot pin whole
 * chunks.  Memory is bounded by the dense chunks plus the evacuated
 * strays, that is by the instances still live on chip, not by the
 * words ever sent.  The per-line list heads are purged once every
 * word of the line has no open instance.  Ids are handed out
 * monotonically and never reused: an id travels without a reference
 * (the MESI L1 evict buffer keeps a line's ids after dropping its
 * refs and hands them to the L2), so a closed instance can be
 * installed again.  Such copies are counted in a small side table;
 * they cannot change the instance's category.
 *
 * Only instances created inside the measurement window are tallied.
 * When the run will mark an epoch (expectEpoch()), an instance created
 * before it therefore keeps no record and no list entry, only its copy
 * count: a 2-byte count in chunks that are evacuated into the side
 * table by the same rule as the record chunks.  Its used(), storeAddr()
 * and classification could never reach a tally, and the copy count
 * keeps the zero-refs check exact.
 */

#ifndef WASTESIM_PROFILE_MEM_PROFILER_HH
#define WASTESIM_PROFILE_MEM_PROFILER_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/flat_map.hh"
#include "common/log.hh"
#include "common/types.hh"
#include "profile/waste.hh"

namespace wastesim
{

/** Chip-global memory fetch-waste profiler (one per simulation). */
class MemProfiler
{
  public:
    /**
     * The run will call markEpoch(): until then, create() keeps only a
     * copy count per instance.  Call before the first create().
     */
    void expectEpoch();

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
        if (id < warmEnd_) {
            if (CountChunk *c = copyCounts_.of(id)) {
                std::uint16_t &n = c->slot(id);
                panic_if(n == UINT16_MAX,
                         "instance %u: copy count overflow", id);
                c->live += n++ == 0;
                return;
            }
        } else if (Rec *r = openRec(id)) {
            ++r->refs;
            return;
        }
        ++reinstalled_.getOrDefault(id);
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
        if (id == invalidInst || id < warmEnd_)
            return;
        if (Rec *r = openRec(id))
            classify(id, *r, WasteCat::Used);
    }

    /**
     * An L1 issued a write to @p word_num: all open instances of the
     * address become Write waste.
     */
    void storeAddr(Addr word_num);

    /** @p nwords were read from DRAM and dropped at the MC. */
    void excess(unsigned nwords) { excess_ += nwords; }

    /** Begin the measurement window (warm-up excluded). */
    void markEpoch();

    /** Close the run; returns word counts by category (incl. Excess). */
    WasteCounts finalize();

    /** Counts so far, without finalizing. */
    WasteCounts counts() const;

    /** Number of instances created (words sent on-chip). */
    std::size_t numInstances() const { return nextId_; }

    /** On-chip copies of instance @p id (testing hook). */
    unsigned refs(InstId id) const;

    /** Record chunks not yet freed (testing hook for the bound). */
    std::size_t residentChunks() const { return recs_.resident(); }

    /** Warm-up copy-count chunks not yet freed (testing hook). */
    std::size_t residentCountChunks() const { return copyCounts_.resident(); }

    /** Lines with a list-head entry (testing hook). */
    std::size_t lineHeads() const { return byAddr_.size(); }

  private:
    struct Rec
    {
        Addr wordNum = 0;
        /** Intrusive doubly-linked list of open instances of the same
         *  word, anchored in byAddr_ — no per-word heap vector. */
        InstId prevSame = invalidInst;
        InstId nextSame = invalidInst;
        unsigned refs = 0;
        WasteCat cat = WasteCat::Unclassified;
        bool open = false;
    };

    static constexpr unsigned chunkBits = 10;
    static constexpr std::size_t chunkIds = std::size_t{1} << chunkBits;

    /**
     * One slot per id, in chunks of chunkIds consecutive ids: chunk k
     * holds ids [k * chunkIds, (k + 1) * chunkIds) and is null where
     * this kind of slot is not kept or once the chunk is freed.  The
     * owner counts each chunk's live slots.
     */
    template <typename Slot>
    struct Chunks
    {
        struct Chunk
        {
            std::array<Slot, chunkIds> slots{};
            /** Slots the owner counts as live. */
            std::size_t live = 0;

            Slot &slot(InstId id) { return slots[id & (chunkIds - 1)]; }
        };

        /** The chunk holding handed-out id @p id, or nullptr. */
        Chunk *of(InstId id) const { return v[id >> chunkBits].get(); }

        /** Append chunk k = v.size(), allocated if @p kept. */
        void
        add(bool kept)
        {
            v.push_back(kept ? std::make_unique<Chunk>() : nullptr);
        }

        /**
         * Free chunk @p k if all its ids are below @p next_id and at
         * most an eighth of its slots are live, first passing every
         * slot to @p evacuate(id, slot), which keeps the live ones.
         */
        template <typename Evacuate>
        void
        releaseIfSparse(std::size_t k, std::size_t next_id,
                        Evacuate evacuate)
        {
            const Chunk *c = v[k].get();
            if (!c || c->live > chunkIds / 8 ||
                ((k + 1) << chunkBits) > next_id)
                return;
            const InstId base = static_cast<InstId>(k << chunkBits);
            for (std::size_t i = 0; i < chunkIds; ++i)
                evacuate(base + static_cast<InstId>(i), c->slots[i]);
            v[k].reset();
        }

        std::size_t
        resident() const
        {
            std::size_t n = 0;
            for (const auto &c : v)
                n += c != nullptr;
            return n;
        }

        std::vector<std::unique_ptr<Chunk>> v;
    };

    using RecChunk = Chunks<Rec>::Chunk;
    using CountChunk = Chunks<std::uint16_t>::Chunk;

    /** warmEnd_ while an expected epoch has not been marked yet. */
    static constexpr std::size_t epochPending = SIZE_MAX;

    /** The record of open instance @p id. */
    Rec &
    rec(InstId id)
    {
        if (RecChunk *c = recs_.of(id))
            return c->slot(id);
        return *strays_.find(id);
    }

    /** The record of instance @p id, or nullptr once it closed. */
    Rec *
    openRec(InstId id)
    {
        RecChunk *c = recs_.of(id);
        if (!c)
            return strays_.find(id);
        Rec &r = c->slot(id);
        return r.open ? &r : nullptr;
    }

    /** Classify @p r (instance @p id) once; close it if no copy lives. */
    void
    classify(InstId id, Rec &r, WasteCat cat)
    {
        if (r.cat != WasteCat::Unclassified)
            return;
        r.cat = cat;
        if (id >= epochStart_)
            ++tally_[static_cast<unsigned>(cat)];
        if (r.refs == 0)
            close(id, r);
    }

    /** Unlink a classified, copy-less record and release it. */
    void close(InstId id, Rec &r);

    /** Drop a copy counted in reinstalled_. */
    void dropCounted(InstId id);

    /** Free record chunk @p k into strays_ if it is sparse. */
    void releaseRecs(std::size_t k);

    /** Free copy-count chunk @p k into reinstalled_ if it is sparse. */
    void releaseCounts(std::size_t k);

    /** Per-word open-instance list heads for one cache line (one
     *  probe covers a whole line's worth of creates/drops). */
    struct LineHeads
    {
        LineHeads() { head.fill(invalidInst); }
        std::array<InstId, wordsPerLine> head;
    };

    /** No word of the line has an open instance. */
    static bool
    headsDead(const LineHeads &lh)
    {
        for (InstId h : lh.head)
            if (h != invalidInst)
                return false;
        return true;
    }

    /** Records of instances created from warmEnd_ on. */
    Chunks<Rec> recs_;
    /** Copy counts of instances created before warmEnd_. */
    Chunks<std::uint16_t> copyCounts_;
    /** Open records of freed chunks, by id. */
    FlatMap<Rec> strays_;
    std::size_t nextId_ = 0;
    std::size_t epochStart_ = 0;
    /** Ids below this keep only a copy count: 0 unless an epoch is
     *  expected, epochPending until it is marked, then epochStart_. */
    std::size_t warmEnd_ = 0;
    /** Classified instances created in the window, by category. */
    std::array<std::uint64_t, numWasteCats> tally_{};
    /** Cache copies of ids with neither an open record nor a resident
     *  count chunk: closed instances installed again, and warm-up
     *  instances whose count chunk was freed. */
    FlatMap<unsigned> reinstalled_;
    /** line number -> per-word instance list heads. */
    FlatMap<LineHeads> byAddr_{headsDead};
    double excess_ = 0;
    double excessAtEpoch_ = 0;
    bool finalized_ = false;
};

} // namespace wastesim

#endif // WASTESIM_PROFILE_MEM_PROFILER_HH
