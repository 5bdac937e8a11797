#include "ops/overlap.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "common/random.h"
#include "ops/aggregator.h"

namespace spangle {
namespace {

ArrayMetadata Meta2D() {
  return *ArrayMetadata::Make({{"x", 0, 12, 4, 0}, {"y", 0, 12, 4, 0}});
}

ArrayRdd Ramp(Context* ctx) {
  std::vector<CellValue> cells;
  for (int64_t x = 0; x < 12; ++x) {
    for (int64_t y = 0; y < 12; ++y) {
      cells.push_back({{x, y}, double(x * 12 + y)});
    }
  }
  return *ArrayRdd::FromCells(ctx, Meta2D(), cells);
}

TEST(OverlapTest, BuildKeepsChunkCount) {
  Context ctx(2);
  auto base = Ramp(&ctx);
  auto overlap = OverlapArrayRdd::Build(base, 1);
  EXPECT_EQ(overlap.radius(), 1u);
  EXPECT_EQ(overlap.expanded_chunks().Count(), 9u);
}

TEST(OverlapTest, GhostCellsMatchNeighborValues) {
  Context ctx(2);
  auto base = Ramp(&ctx);
  auto overlap = OverlapArrayRdd::Build(base, 1);
  // The expanded chunk is 6x6; for the center chunk (covering [4,8)^2)
  // every ghost cell must mirror the neighbor's value.
  const Mapper& mapper = base.mapper();
  const ChunkId center = mapper.ChunkIdFromCoords({4, 4});
  auto recs = overlap.expanded_chunks().Lookup(center);
  ASSERT_EQ(recs.size(), 1u);
  const Chunk& chunk = recs[0];
  EXPECT_EQ(chunk.num_cells(), 36u);
  EXPECT_EQ(chunk.num_valid(), 36u) << "full interior: all ghosts present";
  // Expanded local (0,0) corresponds to global (3,3) = 3*12+3.
  EXPECT_DOUBLE_EQ(chunk.Value(0), 39.0);
  // Expanded local (5,5) -> global (8,8).
  EXPECT_DOUBLE_EQ(chunk.Value(35), 8.0 * 12 + 8);
}

TEST(OverlapTest, CornerChunkHasNoOutOfArrayGhosts) {
  Context ctx(2);
  auto base = Ramp(&ctx);
  auto overlap = OverlapArrayRdd::Build(base, 1);
  const ChunkId corner = base.mapper().ChunkIdFromCoords({0, 0});
  auto recs = overlap.expanded_chunks().Lookup(corner);
  ASSERT_EQ(recs.size(), 1u);
  // 6x6 expanded, but only the 5x5 region at [1..5]^2 exists.
  EXPECT_EQ(recs[0].num_valid(), 25u);
}

TEST(OverlapTest, WindowAverageMatchesBruteForce) {
  Context ctx(2);
  auto base = Ramp(&ctx);
  auto overlap = OverlapArrayRdd::Build(base, 1);
  auto blurred = overlap.WindowAggregate(AvgAgg());
  EXPECT_EQ(blurred.CountValid(), 144u);
  // Brute-force reference on a few positions.
  auto reference = [&](int64_t x, int64_t y) {
    double sum = 0;
    int n = 0;
    for (int64_t dx = -1; dx <= 1; ++dx) {
      for (int64_t dy = -1; dy <= 1; ++dy) {
        const int64_t nx = x + dx, ny = y + dy;
        if (nx >= 0 && nx < 12 && ny >= 0 && ny < 12) {
          sum += double(nx * 12 + ny);
          ++n;
        }
      }
    }
    return sum / n;
  };
  for (auto [x, y] : std::vector<std::pair<int64_t, int64_t>>{
           {0, 0}, {5, 5}, {3, 4}, {4, 3}, {11, 11}, {0, 11}, {7, 8}}) {
    EXPECT_DOUBLE_EQ(*blurred.GetCell({x, y}), reference(x, y))
        << "(" << x << "," << y << ")";
  }
}

TEST(OverlapTest, WindowAggregateShufflesNothing) {
  Context ctx(2);
  auto base = Ramp(&ctx);
  auto overlap = OverlapArrayRdd::Build(base, 1);
  overlap.Cache();
  overlap.expanded_chunks().Count();  // materialize the halo exchange
  ctx.metrics().Reset();
  overlap.WindowAggregate(AvgAgg()).CountValid();
  EXPECT_EQ(ctx.metrics().shuffles.load(), 0u)
      << "windowing over pre-built overlap must not exchange data";
}

TEST(OverlapTest, WindowSkipsNullCells) {
  Context ctx(2);
  std::vector<CellValue> cells = {{{5, 5}, 10.0}, {{5, 6}, 20.0}};
  auto base = *ArrayRdd::FromCells(&ctx, Meta2D(), cells);
  auto overlap = OverlapArrayRdd::Build(base, 1);
  auto blurred = overlap.WindowAggregate(AvgAgg());
  EXPECT_EQ(blurred.CountValid(), 2u) << "output only where input valid";
  EXPECT_DOUBLE_EQ(*blurred.GetCell({5, 5}), 15.0);
}

TEST(OverlapTest, RegridLocalMatchesShuffledRegrid) {
  Context ctx(2);
  auto base = Ramp(&ctx);
  auto arr = *SpangleArray::FromAttributes({{"v", base}});
  auto expected = *RegridAggregate(arr, "v", AvgAgg(), {3, 3});
  auto overlap = OverlapArrayRdd::Build(base, 2);  // straddle = 3-1 = 2
  auto local = *overlap.RegridAggregateLocal(AvgAgg(), {3, 3});
  ASSERT_EQ(local.CountValid(), expected.CountValid());
  for (const auto& cell : expected.CollectCells()) {
    EXPECT_DOUBLE_EQ(*local.GetCell(cell.pos), cell.value);
  }
}

TEST(OverlapTest, RegridLocalNeedsEnoughRadius) {
  Context ctx(2);
  auto base = Ramp(&ctx);
  auto overlap = OverlapArrayRdd::Build(base, 1);
  // 3x3 blocks over chunk size 4 straddle by up to 2 cells.
  EXPECT_TRUE(overlap.RegridAggregateLocal(AvgAgg(), {3, 3})
                  .status()
                  .code() == StatusCode::kFailedPrecondition);
  // Aligned blocks (2x2 divides 4) need no radius at all.
  EXPECT_TRUE(overlap.RegridAggregateLocal(AvgAgg(), {2, 2}).ok());
}

TEST(OverlapTest, RegridLocalAlignedBlocks) {
  Context ctx(2);
  auto base = Ramp(&ctx);
  auto overlap = OverlapArrayRdd::Build(base, 1);
  auto result = *overlap.RegridAggregateLocal(SumAgg(), {2, 2});
  EXPECT_EQ(result.metadata().dim(0).size, 6u);
  // Block (0,0): cells (0,0),(0,1),(1,0),(1,1) -> 0+1+12+13 = 26.
  EXPECT_DOUBLE_EQ(*result.GetCell({0, 0}), 26.0);
}

/// Cells of `meta` in shuffled order; chunk c gets density
/// densities[c % 3], so chunks of one array differ in mode.
std::vector<CellValue> MixedDensityCells(const ArrayMetadata& meta,
                                         uint64_t seed,
                                         const std::vector<double>& densities) {
  const Mapper mapper(meta);
  Rng rng(seed);
  std::vector<CellValue> cells;
  const size_t nd = meta.num_dims();
  Coords pos(nd);
  for (size_t d = 0; d < nd; ++d) pos[d] = meta.dim(d).start;
  for (uint64_t i = 0; i < meta.total_cells(); ++i) {
    if (rng.NextBool(densities[mapper.ChunkIdFromCoords(pos) % 3])) {
      cells.push_back({pos, rng.NextDouble(-4, 4)});
    }
    for (size_t d = nd; d-- > 0;) {
      if (++pos[d] <
          meta.dim(d).start + static_cast<int64_t>(meta.dim(d).size)) {
        break;
      }
      pos[d] = meta.dim(d).start;
    }
  }
  for (size_t i = cells.size(); i > 1; --i) {
    std::swap(cells[i - 1], cells[rng.NextBounded(i)]);
  }
  return cells;
}

/// FNV-1a over every expanded chunk, in collect order: its id, then its
/// binary encoding (mode, cell count, valid offsets and value bits).
void HashExpanded(const OverlapArrayRdd& overlap, uint64_t* h,
                  std::set<ChunkMode>* modes) {
  auto mix = [h](const std::string& bytes) {
    for (unsigned char c : bytes) {
      *h ^= c;
      *h *= 0x100000001b3ULL;
    }
  };
  for (const auto& [cid, chunk] : overlap.expanded_chunks().Collect()) {
    modes->insert(chunk.mode());
    mix(std::string(reinterpret_cast<const char*>(&cid), sizeof(cid)));
    std::string bytes;
    chunk.AppendTo(&bytes);
    mix(bytes);
  }
}

// Pins the halo exchange's output bit for bit, including the record
// order within each partition: ghost cells reach each expanded chunk in
// the same order whatever the shuffle carries.
TEST(OverlapTest, ExpandedChunksArePinnedBitForBit) {
  Context ctx(3);
  uint64_t h = 0xcbf29ce484222325ULL;
  std::set<ChunkMode> modes;
  auto meta2 = *ArrayMetadata::Make({{"x", -3, 37, 8, 0}, {"y", 5, 29, 6, 0}});
  auto base2 = *ArrayRdd::FromCells(
      &ctx, meta2, MixedDensityCells(meta2, 7, {0.9, 0.2, 0.01}),
      ModePolicy::Auto(), 4);
  HashExpanded(OverlapArrayRdd::Build(base2, 2), &h, &modes);
  // Clamped to the chunk size along y.
  HashExpanded(OverlapArrayRdd::Build(base2, 7), &h, &modes);
  auto meta3 = *ArrayMetadata::Make(
      {{"z", 1, 3, 1, 0}, {"x", 0, 20, 7, 0}, {"y", -2, 18, 5, 0}});
  auto base3 = *ArrayRdd::FromCells(
      &ctx, meta3, MixedDensityCells(meta3, 8, {1.0, 0.95, 0.05}),
      ModePolicy::Auto(), 5);
  HashExpanded(OverlapArrayRdd::Build(base3, 1), &h, &modes);
  auto sparse_meta =
      *ArrayMetadata::Make({{"x", 2, 90, 32, 0}, {"y", 0, 70, 32, 0}});
  auto sparse = *ArrayRdd::FromCells(
      &ctx, sparse_meta,
      MixedDensityCells(sparse_meta, 9, {0.004, 0.01, 0.002}),
      ModePolicy::Auto(), 3);
  HashExpanded(OverlapArrayRdd::Build(sparse, 3), &h, &modes);
  EXPECT_EQ(modes.size(), 3u)
      << "the pin must cover dense, sparse and super-sparse chunks";
  EXPECT_EQ(h, 0xe0a8552baa03c988ULL);
}

}  // namespace
}  // namespace spangle
