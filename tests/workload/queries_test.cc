#include "workload/queries.h"

#include <gtest/gtest.h>

#include <unordered_map>

#include "workload/raster_gen.h"

namespace spangle {
namespace {

RasterData TestData() {
  SkyOptions options;
  options.images = 3;
  options.width = 96;
  options.height = 96;
  options.bands = 2;
  options.chunk = 32;
  options.source_density = 0.01;
  return GenerateSky(options);
}

QueryParams TestParams(bool use_range) {
  QueryParams q;
  q.lo = {0, 10, 10};
  q.hi = {1, 70, 60};
  q.use_range = use_range;
  q.threshold = 0.4;
  q.threshold2 = 0.6;
  q.grid = {1, 8, 8};
  q.min_count = 2;
  return q;
}

/// Brute-force reference over the raw generated cells.
struct Reference {
  double q1 = 0;
  uint64_t q2 = 0;
  double q3 = 0;
  uint64_t q4 = 0;
  uint64_t q5 = 0;
};

Reference BruteForce(const RasterData& data, const QueryParams& q) {
  auto in_box = [&](const Coords& pos) {
    if (!q.use_range) return true;
    for (size_t d = 0; d < 3; ++d) {
      if (pos[d] < q.lo[d] || pos[d] > q.hi[d]) return false;
    }
    return true;
  };
  Reference ref;
  double sum1 = 0, sum3 = 0;
  uint64_t n1 = 0, n3 = 0;
  std::unordered_map<uint64_t, uint64_t> q2_blocks, q5_blocks;
  // Band "u" = cells[0], "g" = cells[1]. Index band g by position.
  std::unordered_map<int64_t, std::unordered_map<int64_t, std::unordered_map<int64_t, double>>> g_band;
  for (const auto& cell : data.cells[1]) {
    g_band[cell.pos[0]][cell.pos[1]][cell.pos[2]] = cell.value;
  }
  for (const auto& cell : data.cells[0]) {
    if (!in_box(cell.pos)) continue;
    sum1 += cell.value;
    ++n1;
    const uint64_t key =
        ((static_cast<uint64_t>(cell.pos[0]) / q.grid[0]) * 1000003 +
         static_cast<uint64_t>(cell.pos[1]) / q.grid[1]) *
            1000003 +
        static_cast<uint64_t>(cell.pos[2]) / q.grid[2];
    q2_blocks[key] += 1;
    q5_blocks[key] += 1;
    if (cell.value > q.threshold) {
      sum3 += cell.value;
      ++n3;
      auto img_it = g_band.find(cell.pos[0]);
      if (img_it != g_band.end()) {
        auto x_it = img_it->second.find(cell.pos[1]);
        if (x_it != img_it->second.end()) {
          auto y_it = x_it->second.find(cell.pos[2]);
          if (y_it != x_it->second.end() && y_it->second > q.threshold2) {
            ++ref.q4;
          }
        }
      }
    }
  }
  ref.q1 = n1 ? sum1 / n1 : 0;
  ref.q2 = q2_blocks.size();
  ref.q3 = n3 ? sum3 / n3 : 0;
  for (const auto& [key, count] : q5_blocks) {
    if (static_cast<double>(count) > q.min_count) ++ref.q5;
  }
  return ref;
}

class SpangleQueryTest : public ::testing::TestWithParam<bool> {};

TEST_P(SpangleQueryTest, MatchesBruteForce) {
  const bool use_range = GetParam();
  Context ctx(2);
  auto data = TestData();
  auto q = TestParams(use_range);
  auto ref = BruteForce(data, q);
  SpangleRasterEngine engine(*data.ToSpangle(&ctx));
  EXPECT_NEAR(*engine.Q1Average(q), ref.q1, 1e-9);
  EXPECT_EQ(*engine.Q2Regrid(q), ref.q2);
  EXPECT_NEAR(*engine.Q3FilteredAverage(q), ref.q3, 1e-9);
  EXPECT_EQ(*engine.Q4Polygons(q), ref.q4);
  EXPECT_EQ(*engine.Q5Density(q), ref.q5);
}

INSTANTIATE_TEST_SUITE_P(Ranges, SpangleQueryTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "WithRange" : "NoRange";
                         });

TEST(SpangleQueryTest, EagerModeAgreesWithMaskRddMode) {
  Context ctx(2);
  auto data = TestData();
  auto q = TestParams(true);
  SpangleRasterEngine lazy(*data.ToSpangle(&ctx, ModePolicy::Auto(), true));
  SpangleRasterEngine eager(*data.ToSpangle(&ctx, ModePolicy::Auto(), false));
  EXPECT_NEAR(*lazy.Q1Average(q), *eager.Q1Average(q), 1e-9);
  EXPECT_EQ(*lazy.Q4Polygons(q), *eager.Q4Polygons(q));
  EXPECT_EQ(*lazy.Q5Density(q), *eager.Q5Density(q));
}

TEST(SpangleQueryTest, OverlapRegridAgreesWithShufflePath) {
  Context ctx(2);
  auto data = TestData();
  auto q = TestParams(false);
  q.grid = {1, 8, 8};  // 8 divides chunk 32: aligned, radius-0 legal
  SpangleRasterEngine plain(*data.ToSpangle(&ctx), /*overlap_radius=*/0);
  SpangleRasterEngine with_overlap(*data.ToSpangle(&ctx),
                                   /*overlap_radius=*/7);
  EXPECT_EQ(*plain.Q2Regrid(q), *with_overlap.Q2Regrid(q));
}

TEST(CountCellsWhereTest, Counts) {
  Context ctx(2);
  auto meta = *ArrayMetadata::Make({{"x", 0, 10, 5, 0}});
  std::vector<CellValue> cells;
  for (int64_t x = 0; x < 10; ++x) cells.push_back({{x}, double(x)});
  auto arr = *ArrayRdd::FromCells(&ctx, meta, cells);
  EXPECT_EQ(CountCellsWhere(arr, [](double v) { return v >= 7; }), 3u);
}

}  // namespace
}  // namespace spangle
