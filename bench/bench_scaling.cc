// Data-volume scaling sweep — the axis between Fig. 7a (100 images) and
// Fig. 7b (1000 images) as a curve: query time vs image count for
// Spangle vs the dense SciSpark baseline. Spangle's cost tracks the
// *valid* cells; the dense engine's tracks the raster extent, so the gap
// widens linearly with volume. Also sweeps the worker count to show the
// engine's intra-query parallel speedup on multi-core hosts.

#include <cstdio>

#include "baselines/dense_engine.h"
#include "bench/bench_util.h"
#include "workload/queries.h"
#include "workload/raster_gen.h"

namespace spangle {
namespace {

using bench::PrintCell;
using bench::PrintEnd;
using bench::PrintHeader;
using bench::TimeSeconds;

QueryParams Params(uint64_t images) {
  QueryParams q;
  q.lo = {0, 32, 32};
  q.hi = {static_cast<int64_t>(images) - 1, 448, 448};
  q.use_range = true;
  q.threshold = 0.5;
  q.threshold2 = 0.8;
  q.grid = {1, 8, 8};
  q.min_count = 2;
  return q;
}

}  // namespace
}  // namespace spangle

int main() {
  using namespace spangle;
  std::printf("Scaling sweep — Q1+Q4 time vs data volume and workers\n");

  PrintHeader("Query time vs image count (Q1 + Q4)",
              {"images", "valid cells", "Spangle", "SciSpark"});
  for (uint64_t images : {4, 8, 16, 32}) {
    Context ctx(4);
    SkyOptions options;
    options.images = images;
    options.width = 512;
    options.height = 512;
    options.bands = 2;
    options.chunk = 128;
    options.source_density = 0.004;
    options.seed = 40 + images;
    auto data = GenerateSky(options);
    auto q = Params(images);

    SpangleRasterEngine spangle(*data.ToSpangle(&ctx));
    auto scispark = *SciSparkEngine::Load(&ctx, data);
    const double spangle_secs = TimeSeconds([&] {
      (void)*spangle.Q1Average(q);
      (void)*spangle.Q4Polygons(q);
    });
    const double scispark_secs = TimeSeconds([&] {
      (void)*scispark.Q1Average(q);
      (void)*scispark.Q4Polygons(q);
    });
    PrintCell(std::to_string(images));
    PrintCell(std::to_string(data.TotalValid()));
    PrintCell(spangle_secs);
    PrintCell(scispark_secs);
    PrintEnd();
  }

  PrintHeader("Spangle Q1+Q4 time vs simulated workers (16 images)",
              {"workers", "time"});
  SkyOptions options;
  options.images = 16;
  options.width = 512;
  options.height = 512;
  options.bands = 2;
  options.chunk = 128;
  options.source_density = 0.004;
  auto data = GenerateSky(options);
  for (int workers : {1, 2, 4, 8}) {
    Context ctx(workers);
    SpangleRasterEngine spangle(*data.ToSpangle(&ctx));
    auto q = Params(16);
    const double secs = TimeSeconds([&] {
      (void)*spangle.Q1Average(q);
      (void)*spangle.Q4Polygons(q);
    });
    PrintCell(std::to_string(workers));
    PrintCell(secs);
    PrintEnd();
  }
  return 0;
}
