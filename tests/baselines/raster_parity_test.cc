#include <gtest/gtest.h>

#include "baselines/dense_engine.h"
#include "baselines/diskdb.h"
#include "baselines/tile_engine.h"
#include "workload/queries.h"
#include "workload/raster_gen.h"

namespace spangle {
namespace {

RasterData TestData() {
  SkyOptions options;
  options.images = 2;
  options.width = 64;
  options.height = 64;
  options.bands = 2;
  options.chunk = 32;
  options.source_density = 0.01;
  options.seed = 99;
  return GenerateSky(options);
}

QueryParams TestParams(bool use_range) {
  QueryParams q;
  q.lo = {0, 5, 5};
  q.hi = {1, 50, 40};
  q.use_range = use_range;
  q.threshold = 0.4;
  q.threshold2 = 0.6;
  q.grid = {1, 8, 8};
  q.min_count = 2;
  return q;
}

/// Every system must return identical answers for every query ("the
/// results of the four systems were equal", paper Sec. VII-B).
class RasterParityTest : public ::testing::TestWithParam<bool> {};

TEST_P(RasterParityTest, AllEnginesAgree) {
  const bool use_range = GetParam();
  Context ctx(2);
  auto data = TestData();
  auto q = TestParams(use_range);

  SpangleRasterEngine spangle(*data.ToSpangle(&ctx));
  auto scispark = *SciSparkEngine::Load(&ctx, data);
  auto rasterframes = *RasterFramesEngine::Load(&ctx, data, 8);
  auto scidb = *SciDbEngine::Load(data, "/tmp");

  std::vector<RasterEngine*> engines = {&spangle, &scispark, &rasterframes,
                                        &scidb};
  const double q1 = *spangle.Q1Average(q);
  const uint64_t q2 = *spangle.Q2Regrid(q);
  const double q3 = *spangle.Q3FilteredAverage(q);
  const uint64_t q4 = *spangle.Q4Polygons(q);
  const uint64_t q5 = *spangle.Q5Density(q);
  for (RasterEngine* engine : engines) {
    EXPECT_NEAR(*engine->Q1Average(q), q1, 1e-9) << engine->name();
    EXPECT_EQ(*engine->Q2Regrid(q), q2) << engine->name();
    EXPECT_NEAR(*engine->Q3FilteredAverage(q), q3, 1e-9) << engine->name();
    EXPECT_EQ(*engine->Q4Polygons(q), q4) << engine->name();
    EXPECT_EQ(*engine->Q5Density(q), q5) << engine->name();
  }
}

INSTANTIATE_TEST_SUITE_P(Ranges, RasterParityTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "WithRange" : "NoRange";
                         });

TEST(SciSparkEngineTest, DenseLoadRespectsMemoryBudget) {
  Context ctx(2);
  auto data = TestData();
  // Dense planes: 2 images x 2 bands x 64x64 x 8B = 512 KiB.
  MemoryBudget tight(100 * 1024);
  EXPECT_TRUE(
      SciSparkEngine::Load(&ctx, data, tight).status().IsOutOfMemory());
  MemoryBudget enough(10 * 1024 * 1024);
  EXPECT_TRUE(SciSparkEngine::Load(&ctx, data, enough).ok());
}

TEST(RasterFramesEngineTest, RegridOnlyAtTileSize) {
  Context ctx(2);
  auto data = TestData();
  auto engine = *RasterFramesEngine::Load(&ctx, data, 8);
  auto q = TestParams(false);
  q.grid = {1, 16, 16};  // not the tile size
  EXPECT_EQ(engine.Q2Regrid(q).status().code(),
            StatusCode::kFailedPrecondition)
      << "RasterFrames' tiling is fixed at load (Sec. VII-B)";
}

TEST(SciDbEngineTest, UnknownAttributeFails) {
  auto data = TestData();
  auto engine = *SciDbEngine::Load(data, "/tmp");
  auto q = TestParams(true);
  q.attr = "zzz";
  EXPECT_TRUE(engine.Q1Average(q).status().IsNotFound());
}

}  // namespace
}  // namespace spangle
