#include "array/chunk.h"

#include <gtest/gtest.h>

#include "common/random.h"

namespace spangle {
namespace {

std::vector<std::pair<uint32_t, double>> RandomCells(uint32_t num_cells,
                                                     double density,
                                                     uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<uint32_t, double>> cells;
  for (uint32_t i = 0; i < num_cells; ++i) {
    if (rng.NextBool(density)) cells.emplace_back(i, rng.NextDouble(-10, 10));
  }
  return cells;
}

TEST(ChunkTest, ChooseModeThresholds) {
  EXPECT_EQ(Chunk::ChooseMode(4096, 4096), ChunkMode::kDense);
  EXPECT_EQ(Chunk::ChooseMode(4096, 2048), ChunkMode::kDense);
  EXPECT_EQ(Chunk::ChooseMode(4096, 2047), ChunkMode::kSparse);
  EXPECT_EQ(Chunk::ChooseMode(4096, 64), ChunkMode::kSparse);
  EXPECT_EQ(Chunk::ChooseMode(4096, 63), ChunkMode::kSuperSparse);
  EXPECT_EQ(Chunk::ChooseMode(4096, 0), ChunkMode::kSuperSparse);
}

class ChunkModeTest : public ::testing::TestWithParam<ChunkMode> {};

TEST_P(ChunkModeTest, FromCellsRoundTrip) {
  auto cells = RandomCells(1000, 0.2, 7);
  Chunk c = Chunk::FromCells(1000, cells, GetParam());
  EXPECT_EQ(c.mode(), GetParam());
  EXPECT_EQ(c.num_cells(), 1000u);
  EXPECT_EQ(c.num_valid(), cells.size());
  EXPECT_EQ(c.ToCells(), cells) << "offset-sorted round trip";
}

TEST_P(ChunkModeTest, RandomAccessMatchesCells) {
  auto cells = RandomCells(2000, 0.1, 13);
  Chunk c = Chunk::FromCells(2000, cells, GetParam());
  size_t idx = 0;
  for (uint32_t off = 0; off < 2000; ++off) {
    const bool expect_valid =
        idx < cells.size() && cells[idx].first == off;
    EXPECT_EQ(c.Valid(off), expect_valid) << off;
    if (expect_valid) {
      EXPECT_DOUBLE_EQ(c.Value(off), cells[idx].second);
      EXPECT_DOUBLE_EQ(c.ValueNaiveOr(off, -1), cells[idx].second);
      ++idx;
    } else {
      EXPECT_DOUBLE_EQ(c.ValueOr(off, -1), -1.0);
    }
  }
}

TEST_P(ChunkModeTest, ForEachValidVisitsInOrder) {
  auto cells = RandomCells(1500, 0.3, 21);
  Chunk c = Chunk::FromCells(1500, cells, GetParam());
  std::vector<std::pair<uint32_t, double>> seen;
  c.ForEachValid([&](uint32_t off, double v) { seen.emplace_back(off, v); });
  EXPECT_EQ(seen, cells);
}

TEST_P(ChunkModeTest, ApplyMaskKeepsIntersection) {
  auto cells = RandomCells(1024, 0.5, 3);
  Chunk c = Chunk::FromCells(1024, cells, GetParam());
  Bitmask keep(1024);
  keep.SetRange(100, 600);
  Chunk masked = c.ApplyMask(keep);
  EXPECT_EQ(masked.mode(), GetParam());
  uint64_t expected = 0;
  for (const auto& [off, v] : cells) {
    if (off >= 100 && off < 600) ++expected;
  }
  EXPECT_EQ(masked.num_valid(), expected);
  masked.ForEachValid([&](uint32_t off, double) {
    EXPECT_GE(off, 100u);
    EXPECT_LT(off, 600u);
    EXPECT_TRUE(c.Valid(off));
  });
}

TEST_P(ChunkModeTest, MapValuesTransformsInPlace) {
  auto cells = RandomCells(512, 0.4, 5);
  Chunk c = Chunk::FromCells(512, cells, GetParam());
  Chunk doubled = c.MapValues([](uint32_t, double v) { return v * 2; });
  EXPECT_EQ(doubled.num_valid(), c.num_valid());
  for (const auto& [off, v] : cells) {
    EXPECT_DOUBLE_EQ(doubled.Value(off), v * 2);
  }
}

TEST_P(ChunkModeTest, ConvertToAnyModePreservesCells) {
  auto cells = RandomCells(800, 0.15, 9);
  Chunk c = Chunk::FromCells(800, cells, GetParam());
  for (ChunkMode target : {ChunkMode::kDense, ChunkMode::kSparse,
                           ChunkMode::kSuperSparse}) {
    Chunk converted = c.ConvertTo(target);
    EXPECT_EQ(converted.mode(), target);
    EXPECT_EQ(converted.ToCells(), cells);
  }
}

TEST_P(ChunkModeTest, FlatMaskMatchesValidity) {
  auto cells = RandomCells(640, 0.05, 11);
  Chunk c = Chunk::FromCells(640, cells, GetParam());
  Bitmask mask = c.FlatMask();
  EXPECT_EQ(mask.CountAll(), c.num_valid());
  for (uint32_t off = 0; off < 640; ++off) {
    EXPECT_EQ(mask.Test(off), c.Valid(off));
  }
}

TEST_P(ChunkModeTest, FromCellsAcceptsUnsortedInput) {
  for (double density : {0.005, 0.2}) {
    const auto sorted = RandomCells(4096, density, 13);
    auto shuffled = sorted;
    Rng rng(14);
    for (size_t i = shuffled.size(); i > 1; --i) {
      std::swap(shuffled[i - 1], shuffled[rng.NextBounded(i)]);
    }
    ASSERT_NE(shuffled, sorted);
    Chunk from_sorted = Chunk::FromCells(4096, sorted, GetParam());
    Chunk from_shuffled = Chunk::FromCells(4096, shuffled, GetParam());
    EXPECT_EQ(from_shuffled.mode(), GetParam());
    EXPECT_EQ(from_shuffled.num_valid(), sorted.size());
    EXPECT_EQ(from_shuffled.ToCells(), sorted);
    EXPECT_EQ(from_shuffled.MemoryBytes(), from_sorted.MemoryBytes());
    for (const auto& [off, v] : sorted) {
      EXPECT_EQ(from_shuffled.Value(off), v) << "offset " << off;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, ChunkModeTest,
                         ::testing::Values(ChunkMode::kDense,
                                           ChunkMode::kSparse,
                                           ChunkMode::kSuperSparse));

TEST(ChunkTest, RepeatedOffsetKeepsLastValueInEveryMode) {
  using Cells = std::vector<std::pair<uint32_t, double>>;
  const Cells sorted = {{3, 1.0}, {3, 2.0}, {5, 7.0}};
  const Cells unsorted = {{5, 7.0}, {3, 1.0}, {3, 2.0}};
  for (const ChunkMode mode :
       {ChunkMode::kDense, ChunkMode::kSparse, ChunkMode::kSuperSparse}) {
    for (const Cells& cells : {sorted, unsorted}) {
      const Chunk c = Chunk::FromCells(128, cells, mode);
      EXPECT_EQ(c.num_valid(), 2u) << ChunkModeName(mode);
      EXPECT_EQ(c.Value(3), 2.0) << ChunkModeName(mode);
      EXPECT_EQ(c.Value(5), 7.0) << ChunkModeName(mode);
    }
  }
}

TEST(ChunkTest, DenseMutation) {
  Chunk c = Chunk::MakeDense(100);
  EXPECT_EQ(c.num_valid(), 0u);
  c.Set(5, 1.5);
  c.Set(50, 2.5);
  EXPECT_EQ(c.num_valid(), 2u);
  EXPECT_DOUBLE_EQ(c.Value(5), 1.5);
  c.Set(5, 9.0);
  EXPECT_EQ(c.num_valid(), 2u) << "overwrite does not double-count";
  EXPECT_DOUBLE_EQ(c.Value(5), 9.0);
  c.SetInvalid(5);
  EXPECT_EQ(c.num_valid(), 1u);
  EXPECT_FALSE(c.Valid(5));
  c.SetInvalid(5);
  EXPECT_EQ(c.num_valid(), 1u) << "idempotent";
}

TEST(ChunkTest, SparseModeIsSmallerThanDense) {
  auto cells = RandomCells(65536, 0.02, 42);
  Chunk dense = Chunk::FromCells(65536, cells, ChunkMode::kDense);
  Chunk sparse = Chunk::FromCells(65536, cells, ChunkMode::kSparse);
  EXPECT_LT(sparse.MemoryBytes(), dense.MemoryBytes() / 5)
      << "2% density: sparse payload drops 98% of the cells";
}

TEST(ChunkTest, SuperSparseIsSmallerThanSparseWhenNearlyEmpty) {
  auto cells = RandomCells(65536, 0.0005, 17);
  Chunk sparse = Chunk::FromCells(65536, cells, ChunkMode::kSparse);
  Chunk super_sparse =
      Chunk::FromCells(65536, cells, ChunkMode::kSuperSparse);
  EXPECT_LT(super_sparse.MemoryBytes(), sparse.MemoryBytes() / 2)
      << "the flat bitmask dominates at this density";
}

TEST(ChunkTest, SerializedBytesTracksPayloadAndMask) {
  auto cells = RandomCells(4096, 0.1, 2);
  Chunk sparse = Chunk::FromCells(4096, cells, ChunkMode::kSparse);
  const size_t expected =
      2 * sizeof(uint32_t) + cells.size() * sizeof(double) + 4096 / 8;
  EXPECT_EQ(sparse.SerializedBytes(), expected);
}

TEST(ChunkTest, EmptyChunk) {
  Chunk c = Chunk::FromCells(256, {}, ChunkMode::kSparse);
  EXPECT_EQ(c.num_valid(), 0u);
  EXPECT_TRUE(c.ToCells().empty());
  int visits = 0;
  c.ForEachValid([&](uint32_t, double) { ++visits; });
  EXPECT_EQ(visits, 0);
}

TEST(ChunkTest, ToStringMentionsMode) {
  Chunk c = Chunk::FromCells(64, {{1, 2.0}}, ChunkMode::kSuperSparse);
  EXPECT_NE(c.ToString().find("super-sparse"), std::string::npos);
}

}  // namespace
}  // namespace spangle
