/** Unit + property tests: H3 hashing, Bloom filters, banked arrays. */

#include <gtest/gtest.h>

#include "common/topology.hh"

#include "bloom/bloom_bank.hh"
#include "bloom/bloom_filter.hh"
#include "bloom/h3.hh"
#include "common/rng.hh"

namespace wastesim
{

TEST(H3, DeterministicAndBounded)
{
    H3Hash h(9, 1234);
    for (std::uint64_t k = 0; k < 4096; ++k) {
        const auto v = h(k);
        EXPECT_LT(v, 512u);
        EXPECT_EQ(v, h(k));
    }
}

TEST(H3, ZeroKeyHashesToZero)
{
    // H3 is linear over GF(2): the zero key always maps to 0.
    H3Hash h(9, 77);
    EXPECT_EQ(h(0), 0u);
}

TEST(H3, Linearity)
{
    // h(a ^ b) == h(a) ^ h(b) — the defining H3 property.
    H3Hash h(9, 99);
    Rng rng(5);
    for (int i = 0; i < 200; ++i) {
        const std::uint64_t a = rng.next(), b = rng.next();
        EXPECT_EQ(h(a ^ b), h(a) ^ h(b));
    }
}

TEST(H3, ReasonablySpread)
{
    H3Hash h(9, 2024);
    std::vector<int> hits(512, 0);
    for (std::uint64_t k = 1; k <= 8192; ++k)
        ++hits[h(k)];
    int empty = 0;
    for (int c : hits)
        empty += c == 0;
    EXPECT_LT(empty, 40); // ~16 expected occupancy per bucket
}

TEST(BloomFilter, NoFalseNegatives)
{
    H3Hash h(9, 42);
    BloomFilter f(h);
    Rng rng(1);
    std::vector<std::uint64_t> keys;
    for (int i = 0; i < 200; ++i)
        keys.push_back(rng.next());
    for (auto k : keys)
        f.insert(k);
    for (auto k : keys)
        EXPECT_TRUE(f.maybeContains(k));
}

TEST(BloomFilter, ClearEmpties)
{
    H3Hash h(9, 42);
    BloomFilter f(h);
    f.insert(123);
    EXPECT_TRUE(f.maybeContains(123));
    f.clear();
    EXPECT_FALSE(f.maybeContains(123));
    EXPECT_DOUBLE_EQ(f.fillRatio(), 0.0);
}

TEST(BloomFilter, UnionImage)
{
    H3Hash h(9, 42);
    BloomFilter a(h), b(h);
    a.insert(1);
    b.insert(2);
    a.unionImage(b.image());
    EXPECT_TRUE(a.maybeContains(1));
    EXPECT_TRUE(a.maybeContains(2));
}

TEST(CountingBloom, InsertRemove)
{
    H3Hash h(9, 42);
    CountingBloomFilter f(h);
    f.insert(7);
    f.insert(7);
    EXPECT_TRUE(f.maybeContains(7));
    f.remove(7);
    EXPECT_TRUE(f.maybeContains(7)); // one copy left
    f.remove(7);
    // Removing both copies clears (unless another key aliases).
    EXPECT_FALSE(f.maybeContains(7));
}

TEST(CountingBloom, ImageMatchesMembership)
{
    H3Hash h(9, 42);
    CountingBloomFilter f(h);
    f.insert(11);
    f.insert(22);
    BloomFilter shadow(h);
    shadow.unionImage(f.image());
    EXPECT_TRUE(shadow.maybeContains(11));
    EXPECT_TRUE(shadow.maybeContains(22));
}

TEST(BloomBank, TracksLines)
{
    BloomBank bank;
    const Addr la = (1u << 20) + 3 * 64;
    EXPECT_FALSE(bank.maybeContains(la));
    bank.insert(la);
    EXPECT_TRUE(bank.maybeContains(la));
    bank.remove(la);
    EXPECT_FALSE(bank.maybeContains(la));
}

TEST(BloomBank, FilterIndexStable)
{
    const Addr la = 1u << 21;
    EXPECT_EQ(bloomFilterIndex(la, bloomFiltersPerSlice), bloomFilterIndex(la, bloomFiltersPerSlice));
    EXPECT_LT(bloomFilterIndex(la, bloomFiltersPerSlice), bloomFiltersPerSlice);
}

TEST(BloomShadow, ConservativeUntilCopied)
{
    BloomShadow shadow;
    const Addr la = 1u << 20;
    bool need_copy = false;
    EXPECT_TRUE(shadow.query(la, need_copy)); // conservative
    EXPECT_TRUE(need_copy);

    // Install an empty image: the filter is now authoritative.
    BloomImage empty{};
    shadow.installImage(Topology{}.homeSlice(la), bloomFilterIndex(la, bloomFiltersPerSlice), empty);
    EXPECT_FALSE(shadow.query(la, need_copy));
    EXPECT_FALSE(need_copy);
}

TEST(BloomShadow, NoFalseNegativeAfterCopy)
{
    // The safety property of Section 3.1: if the L2 bank holds the
    // line, a copied shadow must report it.
    BloomBank bank;
    BloomShadow shadow;
    Rng rng(3);
    std::vector<Addr> lines;
    for (int i = 0; i < 300; ++i) {
        const Addr la = (1u << 20) + rng.below(1u << 14) * 64;
        bank.insert(la);
        lines.push_back(la);
    }
    // Copy every filter of slice s.
    for (NodeId s = 0; s < numTiles; ++s)
        for (unsigned f = 0; f < bloomFiltersPerSlice; ++f)
            shadow.installImage(s, f, bank.image(f));
    for (Addr la : lines) {
        bool need_copy = false;
        EXPECT_TRUE(shadow.query(la, need_copy))
            << "false negative for line " << la;
        EXPECT_FALSE(need_copy);
    }
}

TEST(BloomShadow, WritebackInsertsLocally)
{
    BloomShadow shadow;
    const Addr la = 1u << 20;
    BloomImage empty{};
    shadow.installImage(Topology{}.homeSlice(la), bloomFilterIndex(la, bloomFiltersPerSlice), empty);
    bool need_copy = false;
    EXPECT_FALSE(shadow.query(la, need_copy));
    shadow.insertWriteback(la);
    EXPECT_TRUE(shadow.query(la, need_copy));
}

TEST(BloomShadow, ClearAllResetsValidity)
{
    BloomShadow shadow;
    const Addr la = 1u << 20;
    BloomImage empty{};
    shadow.installImage(Topology{}.homeSlice(la), bloomFilterIndex(la, bloomFiltersPerSlice), empty);
    EXPECT_TRUE(shadow.hasCopy(la));
    shadow.clearAll();
    EXPECT_FALSE(shadow.hasCopy(la));
    bool need_copy = false;
    EXPECT_TRUE(shadow.query(la, need_copy));
    EXPECT_TRUE(need_copy);
}

/** Property sweep: false-positive rate grows with occupancy but no
 *  false negatives ever occur. */
TEST(BloomDeath, ZeroFilterBankPanicsOnUse)
{
    // Protocols without request bypass build banks with no filters;
    // any use must fail loudly instead of dividing by zero.
    BloomBank bank(0);
    EXPECT_EQ(bank.numFilters(), 0u);
    const Addr la = 1u << 20;
    EXPECT_DEATH(bank.insert(la), "zero filters");
    EXPECT_DEATH(bank.remove(la), "zero filters");
    EXPECT_DEATH(bank.maybeContains(la), "zero filters");
    EXPECT_DEATH(bank.image(0), "filter 0 of 0");
}

TEST(BloomDeath, ZeroFilterShadowPanicsOnUse)
{
    BloomShadow shadow(0);
    EXPECT_EQ(shadow.numFilters(), 0u);
    shadow.clearAll(); // nothing to clear is fine
    const Addr la = 1u << 20;
    bool need_copy = false;
    EXPECT_DEATH(shadow.query(la, need_copy), "zero filters");
    EXPECT_DEATH(shadow.hasCopy(la), "zero filters");
    EXPECT_DEATH(shadow.insertWriteback(la), "zero filters");
    EXPECT_DEATH(shadow.installImage(0, 0, BloomImage{}), "filter 0 of 0");
}

class BloomOccupancy : public ::testing::TestWithParam<int>
{
};

TEST_P(BloomOccupancy, FalsePositivesBoundedNoFalseNegatives)
{
    const int n = GetParam();
    H3Hash h(9, 4242);
    BloomFilter f(h);
    Rng rng(n);
    std::vector<std::uint64_t> in;
    for (int i = 0; i < n; ++i) {
        in.push_back(rng.next());
        f.insert(in.back());
    }
    for (auto k : in)
        EXPECT_TRUE(f.maybeContains(k));
    int fp = 0;
    const int probes = 4000;
    for (int i = 0; i < probes; ++i)
        fp += f.maybeContains(rng.next());
    // With one hash, FP rate ~ fill ratio; assert a loose bound.
    EXPECT_LE(fp / static_cast<double>(probes),
              f.fillRatio() + 0.05);
}

INSTANTIATE_TEST_SUITE_P(Occupancies, BloomOccupancy,
                         ::testing::Values(8, 32, 128, 256, 512));

} // namespace wastesim
