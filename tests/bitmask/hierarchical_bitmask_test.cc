#include "bitmask/hierarchical_bitmask.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/random.h"

namespace spangle {
namespace {

Bitmask RandomMask(size_t bits, uint64_t seed, double density) {
  Rng rng(seed);
  Bitmask m(bits);
  for (size_t i = 0; i < bits; ++i) {
    if (rng.NextBool(density)) m.Set(i);
  }
  return m;
}

TEST(HierarchicalBitmaskTest, RoundTripsThroughFlat) {
  auto flat = RandomMask(4096, 11, 0.001);
  auto h = HierarchicalBitmask::FromBitmask(flat);
  EXPECT_TRUE(h.ToBitmask() == flat);
}

TEST(HierarchicalBitmaskTest, EmptyMask) {
  Bitmask flat(1024);
  auto h = HierarchicalBitmask::FromBitmask(flat);
  EXPECT_EQ(h.CountAll(), 0u);
  EXPECT_EQ(h.num_lower_words(), 0u);
  EXPECT_FALSE(h.Test(0));
  EXPECT_EQ(h.Rank(1024), 0u);
}

TEST(HierarchicalBitmaskTest, DropsAllZeroWords) {
  Bitmask flat(64 * 100);
  flat.Set(0);
  flat.Set(64 * 50 + 3);
  flat.Set(64 * 99 + 63);
  auto h = HierarchicalBitmask::FromBitmask(flat);
  EXPECT_EQ(h.num_lower_words(), 3u);  // only 3 of 100 words survive
  EXPECT_EQ(h.CountAll(), 3u);
}

TEST(HierarchicalBitmaskTest, SmallerThanFlatWhenSuperSparse) {
  // 65536 cells, 5 valid: flat mask = 8 KiB, hierarchical far less.
  Bitmask flat(65536);
  for (size_t i : {100u, 20000u, 30000u, 50000u, 65000u}) flat.Set(i);
  auto h = HierarchicalBitmask::FromBitmask(flat);
  EXPECT_LT(h.SizeBytes(), flat.SizeBytes() / 4);
}

class HierarchicalDensityTest : public ::testing::TestWithParam<double> {};

TEST_P(HierarchicalDensityTest, TestRankSelectAgreeWithFlat) {
  const double density = GetParam();
  auto flat = RandomMask(20000, 42, density);
  auto h = HierarchicalBitmask::FromBitmask(flat);
  EXPECT_EQ(h.CountAll(), flat.CountAll());
  for (size_t i = 0; i < flat.num_bits(); i += 111) {
    EXPECT_EQ(h.Test(i), flat.Test(i)) << "i=" << i;
    EXPECT_EQ(h.Rank(i), flat.RankNaive(i)) << "i=" << i;
  }
  EXPECT_EQ(h.Rank(flat.num_bits()), flat.CountAll());
  const uint64_t total = flat.CountAll();
  for (uint64_t k = 0; k < total; k += 13) {
    EXPECT_EQ(h.SelectSetBit(k), flat.SelectSetBit(k)) << "k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Densities, HierarchicalDensityTest,
                         ::testing::Values(0.0001, 0.001, 0.01, 0.1, 0.9));

TEST(HierarchicalBitmaskTest, ForEachSetBitMatchesFlat) {
  auto flat = RandomMask(10000, 17, 0.002);
  auto h = HierarchicalBitmask::FromBitmask(flat);
  std::vector<size_t> from_flat, from_h;
  flat.ForEachSetBit([&](size_t i) { from_flat.push_back(i); });
  h.ForEachSetBit([&](size_t i) { from_h.push_back(i); });
  EXPECT_EQ(from_flat, from_h);
}

/// A super-sparse mask whose set bits sit in a few short clusters, with
/// long all-zero stretches between them.
Bitmask ClusteredMask(size_t bits, uint64_t seed) {
  Rng rng(seed);
  Bitmask m(bits);
  for (int c = 0; c < 6; ++c) {
    const size_t at = rng.NextBounded(bits);
    for (size_t i = at; i < std::min(bits, at + 90); ++i) {
      if (rng.NextBool(0.3)) m.Set(i);
    }
  }
  return m;
}

// SkipZeroWords never jumps over a set bit and lands on a non-zero word.
TEST(HierarchicalBitmaskTest, SkipZeroWordsStopsAtTheNextNonZeroWord) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    const Bitmask flat = ClusteredMask(9000 + seed * 37, seed);
    const auto h = HierarchicalBitmask::FromBitmask(flat);
    for (size_t from = 0; from <= flat.num_bits(); ++from) {
      const size_t to = h.SkipZeroWords(from);
      ASSERT_GE(to, from);
      ASSERT_LE(to, flat.num_bits());
      for (size_t i = from; i < to; ++i) ASSERT_FALSE(flat.Test(i)) << i;
      if (to < flat.num_bits() && to != from) {
        ASSERT_NE(flat.word(to / Bitmask::kBitsPerWord), 0u) << "from " << from;
        ASSERT_EQ(to % Bitmask::kBitsPerWord, 0u);
      }
    }
  }
}

// Range walks sharing one counter, over ranges that mostly fall in the
// empty stretches, visit exactly the set bits with their payload ranks.
TEST(HierarchicalBitmaskTest, RangeWalksOverLongEmptyStretchesMatchFlat) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    const Bitmask flat = ClusteredMask(20000, seed);
    const auto h = HierarchicalBitmask::FromBitmask(flat);
    for (size_t width : {1, 7, 64, 100, 128, 1000}) {
      std::vector<std::pair<size_t, uint64_t>> got, want;
      DeltaCounter counter(h.upper_mask());
      for (size_t begin = 0; begin < flat.num_bits(); begin += width + 3) {
        h.ForEachSetBitInRange(begin, begin + width, &counter,
                               [&](size_t bit, uint64_t rank) {
                                 got.emplace_back(bit, rank);
                               });
        flat.ForEachSetBitInRange(begin, begin + width, [&](size_t bit) {
          want.emplace_back(bit, flat.Rank(bit));
        });
      }
      ASSERT_EQ(got, want) << "seed " << seed << " width " << width;
    }
  }
}

// FromSortedBits must build exactly what FromBitmask builds from the
// equivalent flat mask: same answers from every query and the same
// footprint.
void ExpectSortedBuildMatchesFlat(const Bitmask& flat) {
  std::vector<uint32_t> bits;
  flat.ForEachSetBit(
      [&](size_t i) { bits.push_back(static_cast<uint32_t>(i)); });
  const auto want = HierarchicalBitmask::FromBitmask(flat);
  const auto got = HierarchicalBitmask::FromSortedBits(
      flat.num_bits(), bits.size(), [&](size_t k) { return bits[k]; });
  ASSERT_EQ(got.num_bits(), want.num_bits());
  EXPECT_EQ(got.num_lower_words(), want.num_lower_words());
  EXPECT_EQ(got.SizeBytes(), want.SizeBytes());
  EXPECT_EQ(got.CountAll(), want.CountAll());
  for (size_t i = 0; i < flat.num_bits(); ++i) {
    ASSERT_EQ(got.Test(i), want.Test(i)) << "i=" << i;
    ASSERT_EQ(got.Rank(i), want.Rank(i)) << "i=" << i;
  }
  EXPECT_EQ(got.Rank(flat.num_bits()), want.Rank(flat.num_bits()));
  for (uint64_t k = 0; k <= bits.size(); ++k) {
    EXPECT_EQ(got.SelectSetBit(k), want.SelectSetBit(k)) << "k=" << k;
  }
  std::vector<size_t> from_got, from_want;
  got.ForEachSetBit([&](size_t i) { from_got.push_back(i); });
  want.ForEachSetBit([&](size_t i) { from_want.push_back(i); });
  EXPECT_EQ(from_got, from_want);
  EXPECT_TRUE(got.ToBitmask() == flat);
}

TEST(HierarchicalSortedBuildTest, EmptyMask) {
  ExpectSortedBuildMatchesFlat(Bitmask(4096));
  ExpectSortedBuildMatchesFlat(Bitmask(0));
}

TEST(HierarchicalSortedBuildTest, FirstAndLastBit) {
  for (size_t bits : {size_t{64}, size_t{4096}, size_t{4100}}) {
    Bitmask first(bits);
    first.Set(0);
    ExpectSortedBuildMatchesFlat(first);
    Bitmask last(bits);
    last.Set(bits - 1);
    ExpectSortedBuildMatchesFlat(last);
  }
}

TEST(HierarchicalSortedBuildTest, OneBitPerWord) {
  Bitmask flat(64 * 70);
  for (size_t w = 0; w < 70; ++w) flat.Set(w * 64 + (w * 7) % 64);
  ExpectSortedBuildMatchesFlat(flat);
}

TEST(HierarchicalSortedBuildTest, FullWord) {
  Bitmask flat(64 * 300);
  flat.SetRange(64 * 150, 64 * 151);
  ExpectSortedBuildMatchesFlat(flat);
}

class HierarchicalSortedDensityTest
    : public ::testing::TestWithParam<double> {};

TEST_P(HierarchicalSortedDensityTest, MatchesFromBitmask) {
  // Up to the super-sparse mode's 1/64 threshold, at 512^2 cells (the
  // ml benchmark's tile) and at a size with a partial last word.
  ExpectSortedBuildMatchesFlat(RandomMask(512 * 512, 23, GetParam()));
  ExpectSortedBuildMatchesFlat(RandomMask(20000 + 37, 29, GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Densities, HierarchicalSortedDensityTest,
                         ::testing::Values(0.00001, 0.0005, 0.004,
                                           1.0 / 64));

}  // namespace
}  // namespace spangle
