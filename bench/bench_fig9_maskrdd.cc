// Reproduces Fig. 9:
//   9a — in-memory data size of the CHL raster in dense vs sparse chunk
//        modes as the chunk size grows (sparse stays flat; dense grows
//        because edge/empty regions must be stored).
//   9b — Q5 processing time against the number of attributes (bands),
//        with and without the MaskRdd. With it, operators update one
//        mask; without it, every operator eagerly rewrites all K
//        attributes, so time grows much faster with K.

#include <cstdio>

#include "bench/bench_util.h"
#include "common/bytes.h"
#include "workload/queries.h"
#include "workload/raster_gen.h"

namespace spangle {
namespace {

using bench::PrintCell;
using bench::PrintEnd;
using bench::PrintHeader;
using bench::TimeSeconds;

}  // namespace
}  // namespace spangle

int main() {
  using namespace spangle;
  Context ctx(4);

  std::printf("Fig. 9a — memory footprint: dense vs sparse mode\n");
  PrintHeader("Fig. 9a: in-memory size vs chunk size",
              {"chunk w", "dense", "sparse", "super-sparse"});
  ChlOptions base;
  base.lon = 720;
  base.lat = 360;
  base.time = 2;
  base.land_fraction = 0.7;  // sparse ocean data sharpens the mode gap
  for (uint64_t w : {16, 32, 64, 128, 256}) {
    ChlOptions options = base;
    options.chunk_lon = w;
    options.chunk_lat = w;
    RasterData data = GenerateChl(options);
    auto dense = *ArrayRdd::FromCells(&ctx, data.meta, data.cells[0],
                                      ModePolicy::Fixed(ChunkMode::kDense));
    auto sparse = *ArrayRdd::FromCells(&ctx, data.meta, data.cells[0],
                                       ModePolicy::Fixed(ChunkMode::kSparse));
    auto super_sparse =
        *ArrayRdd::FromCells(&ctx, data.meta, data.cells[0],
                             ModePolicy::Fixed(ChunkMode::kSuperSparse));
    PrintCell(std::to_string(w) + "x" + std::to_string(w));
    PrintCell(HumanBytes(dense.MemoryBytes()));
    PrintCell(HumanBytes(sparse.MemoryBytes()));
    PrintCell(HumanBytes(super_sparse.MemoryBytes()));
    PrintEnd();
  }

  std::printf("\nFig. 9b — MaskRdd effect on Q5 vs attribute count\n");
  PrintHeader("Fig. 9b: Q5 time vs #attributes",
              {"#attrs", "with MaskRdd", "without"});
  for (uint64_t bands : {1, 2, 3, 4, 5}) {
    SkyOptions options;
    options.images = 8;
    options.width = 512;
    options.height = 512;
    options.bands = bands;
    options.chunk = 128;
    options.source_density = 0.01;
    RasterData data = GenerateSky(options);

    QueryParams q;
    q.lo = {0, 32, 32};
    q.hi = {7, 448, 448};
    q.use_range = true;
    if (bands == 1) q.attr2 = q.attr;
    q.grid = {1, 8, 8};
    q.min_count = 2;

    // The MaskRdd path chains Subarray -> Filter(s) lazily, then runs
    // Q5; the eager path rewrites every attribute per operator.
    auto run = [&](bool use_mask_rdd) {
      SpangleRasterEngine engine(
          *data.ToSpangle(&ctx, ModePolicy::Auto(), use_mask_rdd));
      return TimeSeconds([&] {
        // Touch several operators so the K-attribute rewrite cost of the
        // eager mode accumulates, as in the paper's Q5 pipeline.
        (void)*engine.Q4Polygons(q);
        (void)*engine.Q5Density(q);
      });
    };
    PrintCell(std::to_string(bands));
    PrintCell(run(true));
    PrintCell(run(false));
    PrintEnd();
  }
  return 0;
}
