#include <gtest/gtest.h>

#include <array>
#include <map>
#include <vector>

#include "array/array_rdd.h"
#include "array/spangle_array.h"
#include "ops/operators.h"

namespace spangle {
namespace {

/// 8x8 grid chunked 4x4 (4 chunks of 16 cells). Cell (r, c) carries
/// value r * 8 + c; `keep` selects which cells exist.
Result<SpangleArray> MakeGrid(
    Context* ctx, const std::function<bool(int64_t, int64_t)>& keep_u,
    const std::function<bool(int64_t, int64_t)>& keep_g) {
  ArrayMetadata meta =
      *ArrayMetadata::Make({{"r", 0, 8, 4, 0}, {"c", 0, 8, 4, 0}});
  std::vector<CellValue> u_cells, g_cells;
  for (int64_t r = 0; r < 8; ++r) {
    for (int64_t c = 0; c < 8; ++c) {
      const double v = static_cast<double>(r * 8 + c);
      if (keep_u(r, c)) u_cells.push_back({{r, c}, v});
      if (keep_g(r, c)) g_cells.push_back({{r, c}, v});
    }
  }
  SPANGLE_ASSIGN_OR_RETURN(ArrayRdd u,
                           ArrayRdd::FromCells(ctx, meta, u_cells));
  SPANGLE_ASSIGN_OR_RETURN(ArrayRdd g,
                           ArrayRdd::FromCells(ctx, meta, g_cells));
  return SpangleArray::FromAttributes({{"u", u}, {"g", g}});
}

auto All() {
  return [](int64_t, int64_t) { return true; };
}

TEST(ExplainAnalyzeTest, SubarrayActualsMatchCollectGroundTruth) {
  Context ctx(2);
  auto arr = MakeGrid(&ctx, All(), All());
  ASSERT_TRUE(arr.ok());
  auto sub = Subarray(*arr, {0, 0}, {3, 3});  // exactly chunk (0, 0)
  ASSERT_TRUE(sub.ok());
  auto attr = sub->Attribute("u");
  ASSERT_TRUE(attr.ok());

  // Ground truth via an independent execution.
  const auto cells = attr->CollectCells();
  ASSERT_EQ(cells.size(), 16u);
  ASSERT_EQ(attr->NumChunks(), 1u);

  AnalyzedPlan plan = attr->ExplainAnalyzePlan("collect");
  // The root filter (drops empty chunks) emits exactly the surviving
  // chunk records.
  ASSERT_FALSE(plan.nodes.empty());
  EXPECT_EQ(plan.nodes.front().actuals.rows_out, 1u);
  // The mask application rebuilt exactly the surviving chunks — all
  // dense (16/16 valid survives ChooseMode and ApplyMask keeps mode).
  EXPECT_EQ(plan.totals.TotalChunksBuilt(), 1u);
  EXPECT_EQ(plan.totals.chunks_built[0], 1u);  // dense
  // AndRange / Or recorded bitmask densities along the way.
  EXPECT_GT(plan.totals.TotalDensityObservations(), 0u);
  EXPECT_EQ(plan.totals.TotalModeTransitions(), 0u);
}

TEST(ExplainAnalyzeTest, FilterActualsMatchCollectGroundTruth) {
  Context ctx(2);
  auto arr = MakeGrid(&ctx, All(), All());
  ASSERT_TRUE(arr.ok());
  // v > 31 keeps rows 4..7: chunks (1,0) and (1,1) fully, others empty.
  auto filtered = Filter(*arr, "u", [](double v) { return v > 31.0; });
  ASSERT_TRUE(filtered.ok());
  auto attr = filtered->Attribute("u");
  ASSERT_TRUE(attr.ok());

  const auto cells = attr->CollectCells();
  ASSERT_EQ(cells.size(), 32u);
  for (const auto& cell : cells) EXPECT_GT(cell.value, 31.0);
  ASSERT_EQ(attr->NumChunks(), 2u);

  AnalyzedPlan plan = attr->ExplainAnalyzePlan("collect");
  EXPECT_EQ(plan.nodes.front().actuals.rows_out, 2u);
  EXPECT_EQ(plan.totals.TotalChunksBuilt(), 2u);
  EXPECT_EQ(plan.totals.chunks_built[0], 2u);  // both survivors dense
  EXPECT_GT(plan.totals.TotalDensityObservations(), 0u);
  EXPECT_GT(plan.totals.self_us + 1, 0u);  // accounting ran
}

TEST(ExplainAnalyzeTest, JoinActualsMatchCollectGroundTruth) {
  Context ctx(2);
  // Left covers rows 0..3, right covers cols 0..3; the and-join keeps
  // the 4x4 intersection (chunk (0,0) only).
  auto left = MakeGrid(
      &ctx, [](int64_t r, int64_t) { return r < 4; },
      [](int64_t r, int64_t) { return r < 4; });
  auto right = MakeGrid(
      &ctx, [](int64_t, int64_t c) { return c < 4; },
      [](int64_t, int64_t c) { return c < 4; });
  ASSERT_TRUE(left.ok());
  ASSERT_TRUE(right.ok());
  auto joined = Join(*left, *right, JoinKind::kAnd);
  ASSERT_TRUE(joined.ok());
  auto attr = joined->Attribute("u");
  ASSERT_TRUE(attr.ok());

  const auto cells = attr->CollectCells();
  ASSERT_EQ(cells.size(), 16u);
  ASSERT_EQ(attr->NumChunks(), 1u);

  AnalyzedPlan plan = attr->ExplainAnalyzePlan("collect");
  EXPECT_EQ(plan.nodes.front().actuals.rows_out, 1u);
  EXPECT_EQ(plan.totals.TotalChunksBuilt(), 1u);
  // The textual report carries the structure tests above checked.
  const std::string s = plan.ToString();
  EXPECT_NE(s.find("join"), std::string::npos);
  EXPECT_NE(s.find("chunk modes"), std::string::npos);
}

TEST(ExplainAnalyzeTest, DistributedIngestReportsChunkModeDistribution) {
  Context ctx(2);
  // 32x32 chunked 16x16: four 256-cell chunks with one density each —
  // full (dense), 20 cells (sparse), 2 cells (super-sparse), empty.
  ArrayMetadata meta =
      *ArrayMetadata::Make({{"r", 0, 32, 16, 0}, {"c", 0, 32, 16, 0}});
  std::vector<CellValue> cells;
  for (int64_t r = 0; r < 16; ++r) {
    for (int64_t c = 0; c < 16; ++c) cells.push_back({{r, c}, 1.0});
  }
  for (int64_t i = 0; i < 20; ++i) {
    cells.push_back({{i % 16, 16 + i / 16}, 2.0});  // 20 distinct cells
  }
  cells.push_back({{20, 3}, 3.0});
  cells.push_back({{25, 7}, 4.0});
  auto arr = ArrayRdd::FromCellsDistributed(&ctx, meta, cells);
  ASSERT_TRUE(arr.ok());

  // Ground truth: per-mode chunk counts from a plain Collect.
  std::map<ChunkMode, uint64_t> expected;
  for (const auto& [id, chunk] : arr->chunks().Collect()) {
    ++expected[chunk.mode()];
  }
  ASSERT_EQ(expected[ChunkMode::kDense], 1u);
  ASSERT_EQ(expected[ChunkMode::kSparse], 1u);
  ASSERT_EQ(expected[ChunkMode::kSuperSparse], 1u);

  // The ingest builds chunks above a shuffle; a profiled run re-executes
  // the build stage and must report the same mode distribution.
  AnalyzedPlan plan = arr->ExplainAnalyzePlan("collect");
  EXPECT_EQ(plan.totals.chunks_built[0], 1u);
  EXPECT_EQ(plan.totals.chunks_built[1], 1u);
  EXPECT_EQ(plan.totals.chunks_built[2], 1u);
  // The chunk-build MapValues is the plan root (implemented as a map
  // node above the groupByKey shuffle).
  const AnalyzedNode* build = &plan.nodes.front();
  EXPECT_EQ(build->actuals.TotalChunksBuilt(), 3u);
  // Densities land in the right buckets: 1.0 -> le=1.0 (bucket 7),
  // 20/256 -> le=0.1 (bucket 3), 2/256 -> le=0.01 (bucket 1).
  EXPECT_EQ(plan.totals.density_hist[7], 1u);
  EXPECT_EQ(plan.totals.density_hist[3], 1u);
  EXPECT_EQ(plan.totals.density_hist[1], 1u);
}

TEST(ExplainAnalyzeTest, ConvertModeReportsTransitions) {
  Context ctx(2);
  ArrayMetadata meta =
      *ArrayMetadata::Make({{"r", 0, 32, 16, 0}, {"c", 0, 32, 16, 0}});
  std::vector<CellValue> cells;
  for (int64_t r = 0; r < 16; ++r) {
    for (int64_t c = 0; c < 16; ++c) cells.push_back({{r, c}, 1.0});
  }
  for (int64_t i = 0; i < 20; ++i) {
    cells.push_back({{i % 16, 16 + i / 16}, 2.0});
  }
  cells.push_back({{20, 3}, 3.0});
  auto arr = ArrayRdd::FromCells(&ctx, meta, cells);
  ASSERT_TRUE(arr.ok());

  // Ground truth: chunks whose mode differs from the target convert.
  uint64_t expected_conversions = 0;
  for (const auto& [id, chunk] : arr->chunks().Collect()) {
    if (chunk.mode() != ChunkMode::kDense) ++expected_conversions;
  }
  ASSERT_EQ(expected_conversions, 2u);  // the sparse + super-sparse chunks

  ArrayRdd converted = arr->ConvertMode(ChunkMode::kDense);
  AnalyzedPlan plan = converted.ExplainAnalyzePlan("collect");
  EXPECT_EQ(plan.totals.TotalModeTransitions(), expected_conversions);
  // sparse(1) -> dense(0) and super-sparse(2) -> dense(0).
  EXPECT_EQ(plan.totals.mode_transitions[1 * kProfileChunkModes + 0], 1u);
  EXPECT_EQ(plan.totals.mode_transitions[2 * kProfileChunkModes + 0], 1u);
  // Each conversion rebuilt one dense chunk.
  EXPECT_EQ(plan.totals.chunks_built[0], expected_conversions);
  // The context-level histogram also saw the densities.
  EXPECT_GT(ctx.metrics().chunk_density.count(), 0u);
  EXPECT_EQ(ctx.metrics().mode_transitions.load(), expected_conversions);
}

TEST(ExplainAnalyzeTest, RunWindowReportsAnyRegisteredMetric) {
  // shuffle_bytes never had a field of its own on the plan: the run
  // window is a diff of the whole metric registry, so it reports every
  // registered metric, scoped to this run.
  Context ctx(2);
  std::vector<std::pair<int, int>> recs;
  for (int i = 0; i < 200; ++i) recs.emplace_back(i % 10, i);
  const auto sum = [](int a, int b) { return a + b; };
  ToPair<int, int>(ctx.Parallelize(recs, 4)).ReduceByKey(sum).AsRdd().Count();
  const uint64_t earlier = ctx.metrics().shuffle_bytes.load();
  ASSERT_GT(earlier, 0u);

  auto reduced = ToPair<int, int>(ctx.Parallelize(recs, 4)).ReduceByKey(sum);
  AnalyzedPlan plan = reduced.ExplainAnalyzePlan("collect");
  uint64_t stage_bytes = 0;
  for (const StageStat& s : plan.stages) stage_bytes += s.shuffle_bytes;
  EXPECT_GT(stage_bytes, 0u);
  EXPECT_EQ(plan.metrics.Value("shuffle_bytes"), stage_bytes);
  EXPECT_EQ(ctx.metrics().shuffle_bytes.load(), earlier + stage_bytes);
}

}  // namespace
}  // namespace spangle
