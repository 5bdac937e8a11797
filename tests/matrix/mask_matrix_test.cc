#include "matrix/mask_matrix.h"

#include <gtest/gtest.h>

#include <map>

#include "common/random.h"
#include "matrix/block_matrix.h"

namespace spangle {
namespace {

std::vector<std::pair<uint64_t, uint64_t>> RandomEdges(uint64_t n,
                                                       double density,
                                                       uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<uint64_t, uint64_t>> edges;
  for (uint64_t r = 0; r < n; ++r) {
    for (uint64_t c = 0; c < n; ++c) {
      if (rng.NextBool(density)) edges.emplace_back(r, c);
    }
  }
  return edges;
}

TEST(MaskMatrixTest, CountsEdges) {
  Context ctx(2);
  auto edges = RandomEdges(32, 0.1, 1);
  auto m = *MaskMatrix::FromEdges(&ctx, 32, 8, edges);
  EXPECT_EQ(m.NumEdges(), edges.size());
}

TEST(MaskMatrixTest, ValidatesInput) {
  Context ctx(2);
  EXPECT_FALSE(MaskMatrix::FromEdges(&ctx, 0, 8, {}).ok());
  EXPECT_FALSE(MaskMatrix::FromEdges(&ctx, 8, 4, {{9, 0}}).ok());
}

TEST(MaskMatrixTest, RejectsTilesOf2To32Cells) {
  Context ctx(2);
  const uint64_t k = uint64_t{1} << 16;
  auto exact = MaskMatrix::FromEdges(&ctx, k, k, {{0, 0}});
  EXPECT_TRUE(exact.status().IsInvalidArgument()) << exact.status().ToString();
}

/// The words of a tile's mask, whichever mode stores it.
std::vector<uint64_t> TileWords(const MaskTile& tile) {
  return tile.hierarchical ? tile.h.ToBitmask().words() : tile.flat.words();
}

TEST(MaskMatrixTest, FromEdgesMatchesNaiveFlatBuildTileByTile) {
  // n % block != 0, so the last row and column blocks are partial.
  const uint64_t n = 100;
  const uint64_t block = 32;
  const uint64_t nb = 4;
  const uint32_t cells = block * block;  // hierarchical below 16 bits
  Rng rng(11);
  std::vector<std::pair<uint64_t, uint64_t>> edges;
  // Tile (0, 0): dense, flat.
  for (int i = 0; i < 300; ++i) {
    edges.emplace_back(rng.NextBounded(32), rng.NextBounded(32));
  }
  // Tile (1, 2): 15 distinct bits, one below the flat bound.
  for (uint64_t i = 0; i < 15; ++i) edges.emplace_back(32 + i, 64 + 2 * i);
  // Tile (2, 1): exactly 16 distinct bits, the first flat count.
  for (uint64_t i = 0; i < 16; ++i) edges.emplace_back(64 + i, 32 + i);
  // Tile (3, 3): the partial corner tile.
  edges.emplace_back(99, 99);
  edges.emplace_back(96, 97);
  // Duplicate every edge of tiles (1, 2) and (2, 1): still 15 and 16 bits.
  for (size_t i = 300; i < 331; ++i) edges.push_back(edges[i]);
  // Unsorted input.
  for (size_t i = edges.size(); i > 1; --i) {
    std::swap(edges[i - 1], edges[rng.NextBounded(i)]);
  }

  std::map<ChunkId, Bitmask> naive;
  for (const auto& [dst, src] : edges) {
    auto [it, inserted] =
        naive.try_emplace(dst / block + (src / block) * nb, cells);
    it->second.Set((dst % block) * block + src % block);
  }
  for (bool force : {false, true}) {
    Context ctx(2);
    auto m = *MaskMatrix::FromEdges(&ctx, n, block, edges, force, 3);
    auto tiles = m.tiles().Collect();
    ASSERT_EQ(tiles.size(), naive.size());
    int flat_tiles = 0;
    for (const auto& [id, tile] : tiles) {
      ASSERT_EQ(naive.count(id), 1u) << "tile " << id;
      Bitmask mask = naive.at(id);
      const bool hierarchical = force || mask.CountAll() * 64 < cells;
      EXPECT_EQ(tile.hierarchical, hierarchical) << "tile " << id;
      size_t want_bytes = 0;
      if (hierarchical) {
        want_bytes = HierarchicalBitmask::FromBitmask(mask).SizeBytes();
      } else {
        mask.BuildMilestones();
        want_bytes = mask.SizeBytes();
        ++flat_tiles;
      }
      EXPECT_EQ(TileWords(tile), mask.words()) << "tile " << id;
      EXPECT_EQ(tile.MemoryBytes(), want_bytes) << "tile " << id;
    }
    // Both sides of the density rule were exercised: (0, 0) and (2, 1)
    // are flat unless forced.
    EXPECT_EQ(flat_tiles, force ? 0 : 2);
  }
}

TEST(MaskMatrixTest, OneBitPerEdgeBeatsPayloadMatrix) {
  Context ctx(2);
  const uint64_t n = 512;
  auto edges = RandomEdges(n, 0.05, 2);
  auto mask = *MaskMatrix::FromEdges(&ctx, n, 128, edges);
  std::vector<MatrixEntry> entries;
  entries.reserve(edges.size());
  for (auto& [r, c] : edges) entries.push_back({r, c, 1.0});
  auto weighted = *BlockMatrix::FromEntries(&ctx, n, n, 128, entries);
  EXPECT_LT(mask.MemoryBytes(), weighted.MemoryBytes() / 2)
      << "an unweighted edge costs one bit, not eight bytes (Sec. VI-B)";
}

TEST(MaskMatrixTest, HierarchicalTilesForVerySparseGraphs) {
  Context ctx(2);
  // 1000 nodes, ~2000 edges: density ~2e-3 < 1/64.
  Rng rng(3);
  std::vector<std::pair<uint64_t, uint64_t>> edges;
  for (int i = 0; i < 2000; ++i) {
    edges.emplace_back(rng.NextBounded(1000), rng.NextBounded(1000));
  }
  auto auto_mode = *MaskMatrix::FromEdges(&ctx, 1000, 500, edges);
  auto flat = *MaskMatrix::FromEdges(&ctx, 1000, 500, edges, false);
  auto forced = *MaskMatrix::FromEdges(&ctx, 1000, 500, edges, true);
  EXPECT_LT(forced.MemoryBytes(), 1000u * 1000u / 8 / 2)
      << "hierarchical masks drop the all-zero words";
  EXPECT_EQ(forced.NumEdges(), auto_mode.NumEdges());
  (void)flat;
}

TEST(MaskMatrixTest, MultiplyVectorMatchesReference) {
  Context ctx(2);
  const uint64_t n = 24;
  auto edges = RandomEdges(n, 0.2, 4);
  auto m = *MaskMatrix::FromEdges(&ctx, n, 6, edges);
  std::vector<double> x(n);
  for (uint64_t i = 0; i < n; ++i) x[i] = 0.1 * i + 1;
  auto v = BlockVector::FromDense(&ctx, x, 6);
  auto y = *m.MultiplyVector(v);
  std::vector<double> want(n, 0.0);
  for (auto& [r, c] : edges) want[r] += x[c];
  auto got = y.ToDense();
  ASSERT_EQ(got.size(), n);
  for (uint64_t i = 0; i < n; ++i) EXPECT_NEAR(got[i], want[i], 1e-9);
}

TEST(MaskMatrixTest, MultiplyVectorHierarchicalAgreesWithFlat) {
  Context ctx(2);
  const uint64_t n = 64;
  auto edges = RandomEdges(n, 0.01, 5);
  auto flat = *MaskMatrix::FromEdges(&ctx, n, 16, edges, false);
  auto hier = *MaskMatrix::FromEdges(&ctx, n, 16, edges, true);
  auto v = BlockVector::FromDense(&ctx, std::vector<double>(n, 1.0), 16);
  EXPECT_EQ(flat.MultiplyVector(v)->ToDense(),
            hier.MultiplyVector(v)->ToDense());
}

TEST(MaskMatrixTest, ColumnDegrees) {
  Context ctx(2);
  // Edges (dst, src): node 0 has out-degree 3 (appears as src 3 times).
  std::vector<std::pair<uint64_t, uint64_t>> edges = {
      {1, 0}, {2, 0}, {3, 0}, {0, 1}, {2, 1}, {3, 7}};
  auto m = *MaskMatrix::FromEdges(&ctx, 8, 4, edges);
  auto deg = m.ColumnDegrees();
  EXPECT_EQ(deg[0], 3u);
  EXPECT_EQ(deg[1], 2u);
  EXPECT_EQ(deg[7], 1u);
  EXPECT_EQ(deg[2], 0u);
}

TEST(MaskMatrixTest, MultiplyVectorDimensionChecks) {
  Context ctx(2);
  auto m = *MaskMatrix::FromEdges(&ctx, 8, 4, {{0, 1}});
  EXPECT_FALSE(
      m.MultiplyVector(BlockVector::FromDense(&ctx, std::vector<double>(9), 4))
          .ok());
  EXPECT_FALSE(
      m.MultiplyVector(BlockVector::FromDense(&ctx, std::vector<double>(8), 2))
          .ok());
}

}  // namespace
}  // namespace spangle
