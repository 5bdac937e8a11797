// End-to-end integration: ingest -> operators -> derived attributes ->
// aggregation -> export -> disk spill, crossing every module boundary.

#include <gtest/gtest.h>

#include <cmath>

#include <cstdio>

#include "array/ingest.h"
#include "ops/accumulator.h"
#include "ops/aggregator.h"
#include "ops/operators.h"
#include "ops/transform.h"
#include "workload/raster_gen.h"

namespace spangle {
namespace {

TEST(PipelineTest, SgridToQueryToCsvRoundTrip) {
  Context ctx(4);
  // 1. Generate CHL-like data, write it as an sgrid file.
  ChlOptions options;
  options.lon = 90;
  options.lat = 45;
  options.time = 2;
  options.chunk_lon = 32;
  options.chunk_lat = 32;
  auto data = GenerateChl(options);
  std::vector<double> plane(data.meta.total_cells(), std::nan(""));
  Mapper mapper(data.meta);
  for (const auto& cell : data.cells[0]) {
    // Row-major index, last dim fastest.
    uint64_t idx = 0;
    for (size_t d = 0; d < 3; ++d) {
      idx = idx * data.meta.dim(d).size +
            static_cast<uint64_t>(cell.pos[d]);
    }
    plane[idx] = cell.value;
  }
  const std::string sgrid_path = "/tmp/spangle_pipeline.sgrid";
  ASSERT_TRUE(
      WriteSgrid(sgrid_path, data.meta, {"chlorophyll"}, {plane}).ok());

  // 2. Ingest and verify the load matches the generator.
  auto arr = *ReadSgrid(&ctx, sgrid_path);
  EXPECT_EQ(arr.CountValid(), data.cells[0].size());

  // 3. Operators: region selection + bloom filter.
  auto region = *Subarray(arr, {10, 5, 0}, {69, 39, 1});
  auto blooms = *Filter(region, "chlorophyll",
                        [](double v) { return v > 0.5; });
  const uint64_t bloom_cells = blooms.CountValid();
  EXPECT_GT(bloom_cells, 0u);
  EXPECT_LT(bloom_cells, region.CountValid());

  // 4. Derived attribute + per-longitude aggregation.
  auto with_log = *Apply(blooms, "log_chl", {"chlorophyll"},
                         [](const std::vector<double>& v) {
                           return std::log(v[0]);
                         });
  auto per_lon =
      *AggregateAlongDims(with_log, "log_chl", AvgAgg(), {"lat", "time"});
  EXPECT_EQ(per_lon.metadata().num_dims(), 1u);
  EXPECT_GT(per_lon.CountValid(), 0u);

  // 5. Slice one time step, accumulate along longitude.
  auto t0 = *Slice(*blooms.Attribute("chlorophyll"), "time", 0);
  auto running = *AccumulateSum(t0, "lon", AccumulateMode::kAsynchronous);
  EXPECT_EQ(running.CountValid(), t0.CountValid());

  // 6. Export the filtered region and read it back.
  const std::string csv_path = "/tmp/spangle_pipeline.csv";
  auto evaluated = blooms.Evaluate();
  ASSERT_TRUE(WriteCsv(evaluated, csv_path).ok());
  auto back = *ReadCsv(&ctx, csv_path, data.meta);
  EXPECT_EQ(back.CountValid(), bloom_cells);

  // 7. Cache the reconciled attribute on disk and query the cached copy.
  auto spilled = *evaluated.Attribute("chlorophyll");
  spilled.Cache(StorageLevel::kDiskOnly);
  EXPECT_EQ(spilled.CountValid(), bloom_cells);

  std::remove(sgrid_path.c_str());
  std::remove(csv_path.c_str());
}

TEST(PipelineTest, ConcurrencyStressManyWorkersAgree) {
  // The same pipeline must give identical results under 1, 2 and 8
  // workers (thread-safety of the engine + determinism of the ops). The
  // partition count stays 8: a float sum over another partitioning adds
  // in another order, so only the worker count varies, and every
  // grouping's defined record order makes the sums equal bit for bit.
  std::vector<double> answers;
  for (int workers : {1, 2, 8}) {
    Context ctx(workers, /*default_parallelism=*/8);
    SkyOptions sky;
    sky.images = 2;
    sky.width = 128;
    sky.height = 128;
    sky.bands = 2;
    sky.chunk = 32;
    sky.source_density = 0.01;
    auto arr = *GenerateSky(sky).ToSpangle(&ctx);
    auto sub = *Subarray(arr, {0, 10, 10}, {1, 100, 100});
    auto bright = *Filter(sub, "u", [](double v) { return v > 0.3; });
    answers.push_back(*Aggregate(bright, "g", SumAgg()));
  }
  EXPECT_EQ(answers[0], answers[1]);
  EXPECT_EQ(answers[0], answers[2]);
}

TEST(PipelineTest, RepeatedActionsAreStable) {
  Context ctx(4);
  SkyOptions sky;
  sky.images = 2;
  sky.width = 64;
  sky.height = 64;
  sky.bands = 2;
  sky.chunk = 32;
  auto arr = *GenerateSky(sky).ToSpangle(&ctx);
  arr.Cache();
  auto filtered = *Filter(arr, "u", [](double v) { return v > 0.5; });
  const uint64_t first = filtered.CountValid();
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(filtered.CountValid(), first) << "run " << i;
  }
}

}  // namespace
}  // namespace spangle
