#include "array/metadata.h"

#include <gtest/gtest.h>

namespace spangle {
namespace {

ArrayMetadata Meta2D() {
  return *ArrayMetadata::Make({{"x", 0, 100, 10, 0}, {"y", 0, 60, 16, 0}});
}

TEST(MetadataTest, MakeValidates) {
  EXPECT_FALSE(ArrayMetadata::Make({}).ok());
  EXPECT_FALSE(ArrayMetadata::Make({{"x", 0, 0, 4, 0}}).ok());
  EXPECT_FALSE(ArrayMetadata::Make({{"x", 0, 10, 0, 0}}).ok());
  EXPECT_TRUE(ArrayMetadata::Make({{"x", -5, 10, 4, 1}}).ok());
}

TEST(MetadataTest, ChunkGridUsesCeiling) {
  auto meta = Meta2D();
  EXPECT_EQ(meta.chunks_along(0), 10u);
  EXPECT_EQ(meta.chunks_along(1), 4u);  // ceil(60/16)
  EXPECT_EQ(meta.total_chunks(), 40u);
  EXPECT_EQ(meta.cells_per_chunk(), 160u);
  EXPECT_EQ(meta.total_cells(), 6000u);
}

TEST(MetadataTest, DimIndexByName) {
  auto meta = Meta2D();
  EXPECT_EQ(*meta.DimIndex("x"), 0u);
  EXPECT_EQ(*meta.DimIndex("y"), 1u);
  EXPECT_FALSE(meta.DimIndex("z").ok());
}

TEST(MetadataTest, WithChunkSizes) {
  auto meta = Meta2D().WithChunkSizes({25, 30});
  EXPECT_EQ(meta.chunks_along(0), 4u);
  EXPECT_EQ(meta.chunks_along(1), 2u);
  EXPECT_EQ(meta.dim(0).size, 100u) << "sizes unchanged";
}

TEST(MetadataTest, TransposeReversesDims) {
  auto t = Meta2D().Transposed();
  EXPECT_EQ(t.dim(0).name, "y");
  EXPECT_EQ(t.dim(1).name, "x");
  EXPECT_TRUE(t.Transposed() == Meta2D());
}

TEST(MetadataTest, EqualityIsStructural) {
  EXPECT_TRUE(Meta2D() == Meta2D());
  auto other = Meta2D().WithChunkSizes({10, 15});
  EXPECT_FALSE(Meta2D() == other);
}

TEST(MetadataTest, RejectsHugeChunks) {
  EXPECT_FALSE(ArrayMetadata::Make(
                   {{"x", 0, uint64_t{1} << 33, uint64_t{1} << 33, 0}})
                   .ok());
}

TEST(MetadataTest, RejectsChunksOfExactly2To32Cells) {
  // A 65536 x 65536 chunk has 2^32 cells, one more than a uint32_t
  // offset can address.
  const uint64_t k = uint64_t{1} << 16;
  auto exact = ArrayMetadata::Make({{"x", 0, k, k, 0}, {"y", 0, k, k, 0}});
  EXPECT_TRUE(exact.status().IsInvalidArgument()) << exact.status().ToString();
  EXPECT_TRUE(
      ArrayMetadata::Make({{"x", 0, k, k, 0}, {"y", 0, k, k - 1, 0}}).ok());
  // A product that wraps 2^64 to a small number is rejected too.
  const uint64_t half = uint64_t{1} << 63;
  EXPECT_TRUE(ArrayMetadata::Make({{"x", 0, 4, 2, 0}, {"y", 0, half, half, 0}})
                  .status()
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace spangle
