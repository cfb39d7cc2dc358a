/**
 * @file
 * Banked Bloom-filter structures for the "L2 Request Bypass"
 * optimization (Sections 3.1 and 4.4).
 *
 * Each L2 slice holds 32 counting Bloom filters tracking the line
 * addresses whose most-recent data lives on-chip (dirty words in the
 * L2 or words registered to an L1).  Each L1 holds a shadow copy of
 * all 32 x 16 filters (1-bit entries) that it populates on demand,
 * clears at barriers, and updates with its own writebacks.
 *
 * Only protocols with request bypass read the filters; the others
 * build banks and shadows with zero filters, which hold no storage
 * and panic if queried, inserted into or imaged.
 */

#ifndef WASTESIM_BLOOM_BLOOM_BANK_HH
#define WASTESIM_BLOOM_BLOOM_BANK_HH

#include <cstdint>
#include <vector>

#include "bloom/bloom_filter.hh"
#include "common/topology.hh"
#include "common/types.hh"

namespace wastesim
{

/** Filters per L2 slice in the paper's configuration (Section 4.4).
 *  The scaled sweep uses fewer (see SimParams::scaled()) so the
 *  copy-traffic amortization matches the shrunken per-phase work. */
constexpr unsigned bloomFiltersPerSlice = 32;

/** Select the filter within a slice for a line address. */
unsigned bloomFilterIndex(Addr line_addr, unsigned num_filters);

/** The shared H3 function all filters use (one hash, Section 4.4). */
const H3Hash &bloomHash();

/** Key a line address hashes with inside a filter. */
inline std::uint64_t
bloomKey(Addr line_addr)
{
    return line_addr / bytesPerLine;
}

/** The counting filters of one L2 slice. */
class BloomBank
{
  public:
    explicit BloomBank(unsigned num_filters = bloomFiltersPerSlice);

    /** Track that @p line_addr now has dirty/registered words. */
    void insert(Addr line_addr);

    /** Track that @p line_addr no longer has dirty words on-chip. */
    void remove(Addr line_addr);

    bool maybeContains(Addr line_addr) const;

    /** 64-byte image of filter @p idx for copying to an L1. */
    BloomImage image(unsigned idx) const;

    unsigned numFilters() const
    {
        return static_cast<unsigned>(filters_.size());
    }

  private:
    std::vector<CountingBloomFilter> filters_;
};

/** One L1's shadow of all slices' filters. */
class BloomShadow
{
  public:
    explicit BloomShadow(unsigned num_filters = bloomFiltersPerSlice,
                         Topology topo = Topology{});

    /**
     * Query @p line_addr for bypass safety.
     *
     * @param[out] need_copy true if the relevant filter has not been
     *             copied from the home slice yet (the request must go
     *             through the L2, and a copy should be requested)
     * @return true if the line may have dirty data on-chip (go
     *         through the L2); false means bypass is safe
     */
    bool query(Addr line_addr, bool &need_copy) const;

    /** Install a copied filter image (unions per Section 4.4). */
    void installImage(NodeId slice, unsigned idx, const BloomImage &img);

    /** True if the filter covering @p line_addr has been copied. */
    bool hasCopy(Addr line_addr) const;

    /** Insert a written-back line into the local copy. */
    void insertWriteback(Addr line_addr);

    /** Barrier: clear every filter and every valid bit. */
    void clearAll();

    unsigned numFilters() const { return numFilters_; }

  private:
    unsigned
    flatIndex(NodeId slice, unsigned idx) const
    {
        return slice * numFilters_ + idx;
    }

    unsigned numFilters_;
    Topology topo_; //!< slices shadowed + the home-slice map
    std::vector<BloomFilter> filters_;
    std::vector<bool> valid_;
};

} // namespace wastesim

#endif // WASTESIM_BLOOM_BLOOM_BANK_HH
