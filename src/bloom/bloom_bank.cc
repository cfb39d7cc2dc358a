#include "bloom/bloom_bank.hh"

#include "common/log.hh"

namespace wastesim
{

const H3Hash &
bloomHash()
{
    static const H3Hash hash(9, 0xb100f11737ULL);
    return hash;
}

unsigned
bloomFilterIndex(Addr line_addr, unsigned num_filters)
{
    panic_if(num_filters == 0, "Bloom filter use with zero filters");
    // Multiplicative scramble of the line number, independent of the
    // in-filter H3 hash.
    const std::uint64_t ln = line_addr / bytesPerLine;
    return static_cast<unsigned>((ln * 0x9e3779b97f4a7c15ULL) >> 59) %
           num_filters;
}

BloomBank::BloomBank(unsigned num_filters)
{
    filters_.reserve(num_filters);
    for (unsigned i = 0; i < num_filters; ++i)
        filters_.emplace_back(bloomHash());
}

void
BloomBank::insert(Addr line_addr)
{
    filters_[bloomFilterIndex(line_addr, numFilters())].insert(
        bloomKey(line_addr));
}

void
BloomBank::remove(Addr line_addr)
{
    filters_[bloomFilterIndex(line_addr, numFilters())].remove(
        bloomKey(line_addr));
}

bool
BloomBank::maybeContains(Addr line_addr) const
{
    return filters_[bloomFilterIndex(line_addr,
                                     static_cast<unsigned>(
                                         filters_.size()))]
        .maybeContains(bloomKey(line_addr));
}

BloomImage
BloomBank::image(unsigned idx) const
{
    panic_if(idx >= numFilters(), "Bloom image of filter %u of %u", idx,
             numFilters());
    return filters_[idx].image();
}

BloomShadow::BloomShadow(unsigned num_filters, Topology topo)
    : numFilters_(num_filters), topo_(std::move(topo)),
      valid_(topo_.numTiles() * num_filters, false)
{
    const unsigned n = topo_.numTiles() * num_filters;
    filters_.reserve(n);
    for (unsigned i = 0; i < n; ++i)
        filters_.emplace_back(bloomHash());
}

bool
BloomShadow::query(Addr line_addr, bool &need_copy) const
{
    const NodeId slice = topo_.homeSlice(line_addr);
    const unsigned idx = bloomFilterIndex(line_addr, numFilters_);
    const unsigned f = flatIndex(slice, idx);
    if (!valid_[f]) {
        need_copy = true;
        return true; // conservative until the copy arrives
    }
    need_copy = false;
    return filters_[f].maybeContains(bloomKey(line_addr));
}

void
BloomShadow::installImage(NodeId slice, unsigned idx,
                          const BloomImage &img)
{
    panic_if(idx >= numFilters_, "Bloom image into filter %u of %u", idx,
             numFilters_);
    const unsigned f = flatIndex(slice, idx);
    filters_[f].unionImage(img);
    valid_[f] = true;
}

bool
BloomShadow::hasCopy(Addr line_addr) const
{
    return valid_[flatIndex(topo_.homeSlice(line_addr),
                            bloomFilterIndex(line_addr, numFilters_))];
}

void
BloomShadow::insertWriteback(Addr line_addr)
{
    filters_[flatIndex(topo_.homeSlice(line_addr),
                       bloomFilterIndex(line_addr, numFilters_))]
        .insert(bloomKey(line_addr));
}

void
BloomShadow::clearAll()
{
    for (auto &f : filters_)
        f.clear();
    std::fill(valid_.begin(), valid_.end(), false);
}

} // namespace wastesim
