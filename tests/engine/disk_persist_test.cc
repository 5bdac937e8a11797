#include <gtest/gtest.h>

#include "array/array_rdd.h"

namespace spangle {
namespace {

TEST(ChunkSerializationTest, RoundTripsAllModes) {
  for (ChunkMode mode : {ChunkMode::kDense, ChunkMode::kSparse,
                         ChunkMode::kSuperSparse}) {
    std::vector<std::pair<uint32_t, double>> cells = {
        {1, 0.5}, {64, -2.0}, {190, 3.25}};
    Chunk original = Chunk::FromCells(200, cells, mode);
    std::string buf;
    original.AppendTo(&buf);
    size_t consumed = 0;
    auto decoded = Chunk::FromBytes(buf.data(), buf.size(), &consumed);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(consumed, buf.size());
    EXPECT_EQ(decoded->mode(), mode);
    EXPECT_EQ(decoded->num_cells(), 200u);
    EXPECT_EQ(decoded->ToCells(), cells);
  }
}

TEST(ChunkSerializationTest, ConsecutiveChunksInOneBuffer) {
  Chunk a = Chunk::FromCells(64, {{0, 1.0}}, ChunkMode::kSparse);
  Chunk b = Chunk::FromCells(32, {{5, 2.0}, {6, 3.0}}, ChunkMode::kDense);
  std::string buf;
  a.AppendTo(&buf);
  b.AppendTo(&buf);
  size_t consumed = 0;
  auto first = Chunk::FromBytes(buf.data(), buf.size(), &consumed);
  ASSERT_TRUE(first.ok());
  size_t consumed2 = 0;
  auto second = Chunk::FromBytes(buf.data() + consumed,
                                 buf.size() - consumed, &consumed2);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(consumed + consumed2, buf.size());
  EXPECT_EQ(first->num_valid(), 1u);
  EXPECT_EQ(second->num_valid(), 2u);
}

TEST(ChunkSerializationTest, RejectsGarbage) {
  size_t consumed = 0;
  EXPECT_FALSE(Chunk::FromBytes("xy", 2, &consumed).ok());
  std::string buf;
  Chunk::FromCells(64, {{1, 1.0}}, ChunkMode::kSparse).AppendTo(&buf);
  // Truncate mid-cell.
  EXPECT_FALSE(
      Chunk::FromBytes(buf.data(), buf.size() - 4, &consumed).ok());
  // Corrupt the mode byte.
  buf[0] = 9;
  EXPECT_FALSE(Chunk::FromBytes(buf.data(), buf.size(), &consumed).ok());
}

// An array cached DISK_ONLY is written once through the chunk-frame
// codec and read back from disk, never recomputed from lineage.
TEST(DiskPersistTest, ArraySpillRoundTrip) {
  Context ctx(2);
  auto meta = *ArrayMetadata::Make({{"x", 0, 64, 16, 0}});
  std::vector<CellValue> cells;
  for (int64_t x = 0; x < 64; x += 3) cells.push_back({{x}, double(x)});
  auto array = *ArrayRdd::FromCells(&ctx, meta, cells);
  const uint64_t valid = array.CountValid();
  array.Cache(StorageLevel::kDiskOnly);
  EXPECT_EQ(array.CountValid(), valid);  // first read writes the blocks

  ctx.metrics().Reset();
  EXPECT_EQ(array.CountValid(), valid);
  EXPECT_DOUBLE_EQ(*array.GetCell({33}), 33.0);
  EXPECT_TRUE(array.GetCell({34}).status().IsNotFound());
  // Caching keeps the partitioner: point queries stay single-task.
  EXPECT_TRUE(array.chunks().partitioner() != nullptr);
  EXPECT_GT(ctx.metrics().disk_reads.load(), 0u);
  EXPECT_EQ(ctx.metrics().recomputed_partitions.load(), 0u)
      << "DISK_ONLY chunks come back from disk, never from lineage";
}

}  // namespace
}  // namespace spangle
