// Verifies the optimization claims the matrix/array layers make, using
// the scheduler's physical plans and per-stage metrics as evidence: which
// operations shuffle, how many stages they cut, and what the MaskRdd
// saves over the eager baseline.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "array/spangle_array.h"
#include "common/random.h"
#include "matrix/block_matrix.h"
#include "matrix/mask_matrix.h"
#include "ops/operators.h"
#include "ops/overlap.h"

namespace spangle {
namespace {

std::vector<MatrixEntry> RandomEntries(uint64_t rows, uint64_t cols,
                                       double density, uint64_t seed) {
  Rng rng(seed);
  std::vector<MatrixEntry> entries;
  for (uint64_t r = 0; r < rows; ++r) {
    for (uint64_t c = 0; c < cols; ++c) {
      if (rng.NextBool(density)) {
        entries.push_back({r, c, rng.NextDouble(-2, 2)});
      }
    }
  }
  return entries;
}

TEST(PlanClaimsTest, CoPartitionedAddPlansZeroShuffles) {
  Context ctx(2);
  auto a = *BlockMatrix::FromEntries(&ctx, 24, 24, 8,
                                     RandomEntries(24, 24, 0.3, 1));
  auto b = *BlockMatrix::FromEntries(&ctx, 24, 24, 8,
                                     RandomEntries(24, 24, 0.3, 2));
  auto sum = *a.Add(b);
  const std::string plan = sum.Explain();
  EXPECT_NE(plan.find("pending shuffle stages: 0"), std::string::npos)
      << plan;
  // And at run time: the whole evaluation shuffles nothing.
  const uint64_t shuffles_before = ctx.metrics().shuffles.load();
  sum.ToDense();
  EXPECT_EQ(ctx.metrics().shuffles.load(), shuffles_before);
}

TEST(PlanClaimsTest, ShuffleJoinMultiplyPlansTwoIndependentScatters) {
  Context ctx(2);
  auto a = *BlockMatrix::FromEntries(&ctx, 24, 16, 8,
                                     RandomEntries(24, 16, 0.3, 3));
  auto b = *BlockMatrix::FromEntries(&ctx, 16, 24, 8,
                                     RandomEntries(16, 24, 0.3, 4));
  auto c = *a.Multiply(b, {.force_shuffle_join = true});
  PhysicalPlan plan =
      ctx.BuildPlan(c.array().chunks().AsRdd().node(), "collect");
  // Scatter/gather: one partitionBy per operand plus the gather-side
  // reduceByKey. The two scatters are independent — overlap width 2.
  EXPECT_EQ(plan.NumPendingShuffleStages(), 3);
  EXPECT_EQ(plan.MaxOverlapWidth(), 2);
}

TEST(PlanClaimsTest, LocalJoinMultiplyPlansOnlyTheGatherShuffle) {
  Context ctx(2);
  const int parts = 4;
  auto a = *BlockMatrix::FromEntries(&ctx, 24, 16, 8,
                                     RandomEntries(24, 16, 0.3, 5),
                                     ModePolicy::Auto(),
                                     PartitionScheme::kByColBlock, parts);
  auto b = *BlockMatrix::FromEntries(&ctx, 16, 24, 8,
                                     RandomEntries(16, 24, 0.3, 6),
                                     ModePolicy::Auto(),
                                     PartitionScheme::kByRowBlock, parts);
  auto c = *a.Multiply(b);
  PhysicalPlan plan =
      ctx.BuildPlan(c.array().chunks().AsRdd().node(), "collect");
  // Operand placement makes the contraction join local: neither matrix
  // scatters, only the output gather shuffles (paper Sec. VI-A).
  EXPECT_EQ(plan.NumPendingShuffleStages(), 1);
  const std::string text = plan.ToString();
  EXPECT_EQ(text.find("partitionBy"), std::string::npos) << text;
  EXPECT_NE(text.find("reduceByKey"), std::string::npos) << text;
}

TEST(PlanClaimsTest, PageRankMatrixVectorShufflesOnlyTheRowBlockReduce) {
  Context ctx(2);
  const int parts = 4;
  const uint64_t n = 2048;
  const uint64_t block = 256;
  Rng rng(7);
  std::vector<std::pair<uint64_t, uint64_t>> edges;
  for (int i = 0; i < 20000; ++i) {
    edges.emplace_back(rng.NextBounded(n), rng.NextBounded(n));
  }
  // A' holds one bit per distinct edge.
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  // Built and cached as PageRank builds A'.
  auto a = *MaskMatrix::FromEdges(&ctx, n, block, edges, false, parts);
  a.Cache();
  const size_t a_bytes = a.MemoryBytes();
  std::vector<double> x(n);
  for (uint64_t i = 0; i < n; ++i) x[i] = 1.0 + 0.001 * static_cast<double>(i);
  std::vector<double> want(n, 0.0);
  for (const auto& [r, c] : edges) want[r] += x[c];

  auto y = *a.MultiplyVector(BlockVector::FromDense(&ctx, x, block, parts));
  PhysicalPlan plan = ctx.BuildPlan(y.blocks().AsRdd().node(), "collect");
  // The tiles sit next to the vector blocks they read: A' never moves,
  // only the row-block partial sums reduce.
  EXPECT_EQ(plan.NumPendingShuffleStages(), 1);
  const std::string text = plan.ToString();
  EXPECT_EQ(text.find("partitionBy"), std::string::npos) << text;
  EXPECT_NE(text.find("reduceByKey"), std::string::npos) << text;
  const uint64_t shuffles_before = ctx.metrics().shuffles.load();
  const uint64_t bytes_before = ctx.metrics().shuffle_bytes.load();
  auto got = y.ToDense();
  EXPECT_EQ(ctx.metrics().shuffles.load() - shuffles_before, 1u);
  EXPECT_LT(ctx.metrics().shuffle_bytes.load() - bytes_before, a_bytes);
  ASSERT_EQ(got.size(), n);
  for (uint64_t i = 0; i < n; ++i) EXPECT_NEAR(got[i], want[i], 1e-9);

  // A vector with another partition count re-places the tiles first and
  // still gets the right answer.
  auto other =
      *a.MultiplyVector(BlockVector::FromDense(&ctx, x, block, parts - 1));
  auto other_got = other.ToDense();
  ASSERT_EQ(other_got.size(), n);
  for (uint64_t i = 0; i < n; ++i) EXPECT_NEAR(other_got[i], want[i], 1e-9);
}

// The matrix placed by its contraction block sits next to the vector
// blocks it reads, so only the output partial sums shuffle: kByColBlock
// for M x v, kByRowBlock for vT x M.
TEST(PlanClaimsTest, CoPlacedMatrixVectorShufflesOnlyThePartialSums) {
  Context ctx(2);
  const int parts = 4;
  const uint64_t rows = 64, cols = 48, block = 8;
  const auto entries = RandomEntries(rows, cols, 0.3, 8);
  std::vector<double> x(cols), u(rows);
  for (uint64_t c = 0; c < cols; ++c) x[c] = 1.0 + 0.01 * c;
  for (uint64_t r = 0; r < rows; ++r) u[r] = 2.0 - 0.01 * r;
  struct Case {
    PartitionScheme scheme;
    bool left;
  };
  for (const Case& c : {Case{PartitionScheme::kByColBlock, false},
                        Case{PartitionScheme::kByRowBlock, true}}) {
    SCOPED_TRACE(c.left ? "vT x M" : "M x v");
    auto a = *BlockMatrix::FromEntries(&ctx, rows, cols, block, entries,
                                       ModePolicy::Auto(), c.scheme, parts);
    a.Cache();
    const size_t a_bytes = a.MemoryBytes();
    auto y = c.left ? *a.LeftMultiplyVector(
                          BlockVector::FromDense(&ctx, u, block, parts)
                              .TransposeMetadata())
                    : *a.MultiplyVector(
                          BlockVector::FromDense(&ctx, x, block, parts));
    PhysicalPlan plan = ctx.BuildPlan(y.blocks().AsRdd().node(), "collect");
    EXPECT_EQ(plan.NumPendingShuffleStages(), 1);
    const std::string text = plan.ToString();
    for (const char* op : {"partitionBy", "join", "cogroup"}) {
      EXPECT_EQ(text.find(op), std::string::npos) << op << "\n" << text;
    }
    const uint64_t bytes_before = ctx.metrics().shuffle_bytes.load();
    y.ToDense();
    EXPECT_LT(ctx.metrics().shuffle_bytes.load() - bytes_before, a_bytes);
  }
}

ArrayRdd Ramp(Context* ctx) {
  const ArrayMetadata meta =
      *ArrayMetadata::Make({{"x", 0, 16, 4, 0}, {"y", 0, 16, 4, 0}});
  std::vector<CellValue> cells;
  for (int64_t x = 0; x < 16; ++x) {
    for (int64_t y = 0; y < 16; ++y) {
      cells.push_back({{x, y}, static_cast<double>(16 * x + y)});
    }
  }
  return *ArrayRdd::FromCells(ctx, meta, cells);
}

TEST(PlanClaimsTest, MaskRddFilterIsLazyAndShuffleFree) {
  // MaskRdd mode: Filter only rewrites the hidden mask — no stage runs
  // until evaluation, and the plan for evaluating both attributes holds
  // zero shuffles.
  Context mask_ctx(2);
  auto mask_arr = *SpangleArray::FromAttributes(
      {{"a", Ramp(&mask_ctx)}, {"b", Ramp(&mask_ctx)}},
      /*use_mask_rdd=*/true);
  const uint64_t stages_before = mask_ctx.metrics().stages_run.load();
  auto mask_filtered =
      *Filter(mask_arr, "a", [](double v) { return v < 100; });
  EXPECT_EQ(mask_ctx.metrics().stages_run.load(), stages_before)
      << "MaskRdd-mode Filter must not execute anything";
  const std::string plan = mask_filtered.Explain();
  EXPECT_NE(plan.find("pending shuffle stages: 0"), std::string::npos)
      << plan;

  // Eager baseline (use_mask_rdd=false): the same Filter rewrites and
  // materializes every attribute on the spot — one job per attribute.
  Context eager_ctx(2);
  auto eager_arr = *SpangleArray::FromAttributes(
      {{"a", Ramp(&eager_ctx)}, {"b", Ramp(&eager_ctx)}},
      /*use_mask_rdd=*/false);
  const uint64_t eager_jobs_before = eager_ctx.metrics().jobs_run.load();
  auto eager_filtered =
      *Filter(eager_arr, "a", [](double v) { return v < 100; });
  EXPECT_GE(eager_ctx.metrics().jobs_run.load() - eager_jobs_before, 2u)
      << "eager mode pays one materialization job per attribute";

  // Both modes agree on the data.
  EXPECT_EQ(mask_filtered.CountValid(), eager_filtered.CountValid());
  EXPECT_EQ(mask_filtered.Attribute("b")->CountValid(),
            eager_filtered.Attribute("b")->CountValid());
}

// The overlap regrid never moves an input cell: its one shuffle places
// the finished output cells, one run per (map partition, output chunk) —
// far fewer records than output cells.
TEST(PlanClaimsTest, OverlapRegridShufflesOneRunPerOutputChunk) {
  Context ctx(2);
  const ArrayRdd base = Ramp(&ctx);
  auto overlap = OverlapArrayRdd::Build(base, 2);
  overlap.Cache();
  overlap.expanded_chunks().Count();  // the halo exchange, paid up front
  // 3x3 blocks straddle the 4x4 chunks: 36 output cells from 256 inputs.
  auto regridded = *overlap.RegridAggregateLocal(SumAgg(), {3, 3});
  PhysicalPlan plan =
      ctx.BuildPlan(regridded.chunks().AsRdd().node(), "collect");
  EXPECT_EQ(plan.NumPendingShuffleStages(), 1);
  const uint64_t shuffles_before = ctx.metrics().shuffles.load();
  const uint64_t records_before = ctx.metrics().shuffle_records.load();
  EXPECT_EQ(regridded.CountValid(), 36u);
  EXPECT_EQ(ctx.metrics().shuffles.load() - shuffles_before, 1u);
  // An output cell comes from the partition of the chunk holding its
  // block's origin.
  std::set<std::pair<int, ChunkId>> runs;
  for (const CellValue& cell : regridded.CollectCells()) {
    const ChunkId owner =
        base.mapper().ChunkIdFromCoords({3 * cell.pos[0], 3 * cell.pos[1]});
    runs.emplace(overlap.expanded_chunks().partitioner()->PartitionFor(owner),
                 regridded.mapper().ChunkIdFromCoords(cell.pos));
  }
  EXPECT_EQ(ctx.metrics().shuffle_records.load() - records_before,
            runs.size());
  EXPECT_LT(runs.size(), 36u);
}

// The halo exchange ships one run per (map partition, neighbor chunk)
// that receives a cell, not one record per (cell, neighbor), and builds no
// empty expanded chunk.
TEST(PlanClaimsTest, HaloExchangeShufflesRunsNotCells) {
  Context ctx(2, 3);
  const ArrayMetadata meta =
      *ArrayMetadata::Make({{"x", 0, 40, 10, 0}, {"y", 0, 40, 10, 0}});
  Rng rng(11);
  std::vector<CellValue> cells;
  for (int64_t x = 0; x < 40; ++x) {
    for (int64_t y = 0; y < 40; ++y) {
      // The last chunk row stays empty: it gets expanded chunks holding
      // only the ghosts its neighbors send.
      if (x < 30 && rng.NextBool(0.9)) cells.push_back({{x, y}, 1.0});
    }
  }
  const ArrayRdd base = *ArrayRdd::FromCells(&ctx, meta, cells);
  const int64_t r = 2;
  // Every (cell, neighbor whose expanded box holds it) pair, by brute force.
  const Mapper& mapper = base.mapper();
  std::set<std::pair<int, ChunkId>> runs;
  std::set<ChunkId> receivers;
  uint64_t cell_records = 0;
  for (const CellValue& cell : cells) {
    const int part = base.chunks().partitioner()->PartitionFor(
        mapper.ChunkIdFromCoords(cell.pos));
    for (int64_t dx = -1; dx <= 1; ++dx) {
      for (int64_t dy = -1; dy <= 1; ++dy) {
        const Coords n = {cell.pos[0] / 10 * 10 + 10 * dx,
                          cell.pos[1] / 10 * 10 + 10 * dy};
        if (!mapper.InBounds(n) || cell.pos[0] < n[0] - r ||
            cell.pos[0] >= n[0] + 10 + r || cell.pos[1] < n[1] - r ||
            cell.pos[1] >= n[1] + 10 + r) {
          continue;
        }
        runs.emplace(part, mapper.ChunkIdFromCoords(n));
        receivers.insert(mapper.ChunkIdFromCoords(n));
        ++cell_records;
      }
    }
  }
  const uint64_t records_before = ctx.metrics().shuffle_records.load();
  auto overlap = OverlapArrayRdd::Build(base, r);
  const auto expanded = overlap.expanded_chunks().Collect();
  EXPECT_EQ(ctx.metrics().shuffle_records.load() - records_before,
            runs.size());
  EXPECT_LT(runs.size() * 20, cell_records);
  EXPECT_EQ(expanded.size(), receivers.size());
  for (const auto& [cid, chunk] : expanded) {
    EXPECT_GT(chunk.num_valid(), 0u) << "chunk " << cid;
  }
}

}  // namespace
}  // namespace spangle
