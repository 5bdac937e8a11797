// Ablations of the paper's design choices (DESIGN.md):
//   1. Local join (Sec. VI-A): block matmul with co-partitioned operands
//      vs the forced shuffle join — time and shuffle bytes.
//   2. Overlap (Sec. III-A): windowed aggregation over pre-built ghost
//      cells vs the shuffle-based regrid path.
//   3. MaskRdd laziness (Sec. III-B1): an operator chain evaluated
//      lazily once vs eagerly per operator.

#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "common/bytes.h"
#include "engine/engine.h"
#include "matrix/block_matrix.h"
#include "ops/aggregator.h"
#include "ops/operators.h"
#include "ops/overlap.h"
#include "workload/matrix_gen.h"
#include "workload/raster_gen.h"

namespace spangle {
namespace {

using bench::PrintCell;
using bench::PrintEnd;
using bench::PrintHeader;
using bench::TimeSeconds;

void LocalJoinAblation() {
  Context ctx(4);
  const uint64_t n = 4096, block = 256;
  auto ma = GenerateUniformMatrix("a", n, n, 0.002, 31);
  auto mb = GenerateUniformMatrix("b", n, n, 0.002, 32);
  auto a = *BlockMatrix::FromEntries(&ctx, n, n, block, ma.entries,
                                     ModePolicy::Auto(),
                                     PartitionScheme::kByColBlock, 8);
  auto b = *BlockMatrix::FromEntries(&ctx, n, n, block, mb.entries,
                                     ModePolicy::Auto(),
                                     PartitionScheme::kByRowBlock, 8);
  a.Cache();
  b.Cache();
  a.NumNonZero();
  b.NumNonZero();

  PrintHeader("Ablation 1: matmul local join (Sec. VI-A)",
              {"variant", "time", "shuffles", "shuffled"});
  ctx.metrics().Reset();
  const double local_time = TimeSeconds([&] { a.Multiply(b)->NumNonZero(); });
  const uint64_t local_bytes = ctx.metrics().shuffle_bytes.load();
  const uint64_t local_shuffles = ctx.metrics().shuffles.load();
  PrintCell(std::string("local join"));
  PrintCell(local_time);
  PrintCell(std::to_string(local_shuffles));
  PrintCell(HumanBytes(local_bytes));
  PrintEnd();

  ctx.metrics().Reset();
  MatMulOptions forced;
  forced.force_shuffle_join = true;
  const double shuffle_time =
      TimeSeconds([&] { a.Multiply(b, forced)->NumNonZero(); });
  const uint64_t shuffle_bytes = ctx.metrics().shuffle_bytes.load();
  const uint64_t forced_shuffles = ctx.metrics().shuffles.load();
  PrintCell(std::string("shuffle join"));
  PrintCell(shuffle_time);
  PrintCell(std::to_string(forced_shuffles));
  PrintCell(HumanBytes(shuffle_bytes));
  PrintEnd();
}

void OverlapAblation() {
  Context ctx(4);
  ChlOptions options;
  options.lon = 720;
  options.lat = 360;
  options.time = 2;
  options.chunk_lon = 90;
  options.chunk_lat = 90;
  auto data = GenerateChl(options);
  auto attr = *ArrayRdd::FromCells(&ctx, data.meta, data.cells[0]);
  attr.Cache();
  attr.CountValid();
  auto arr = *SpangleArray::FromAttributes({{"chl", attr}});

  PrintHeader("Ablation 2: overlap for regrid (Sec. III-A)",
              {"variant", "time", "shuffled"});
  // Build cost is one-time; the paper amortizes it over many queries.
  auto overlap = OverlapArrayRdd::Build(attr, 2);
  overlap.Cache();
  overlap.expanded_chunks().Count();
  ctx.metrics().Reset();
  const double local_time = TimeSeconds([&] {
    (void)overlap.RegridAggregateLocal(AvgAgg(), {3, 3, 1})->CountValid();
  });
  const uint64_t local_bytes = ctx.metrics().shuffle_bytes.load();
  PrintCell(std::string("with overlap"));
  PrintCell(local_time);
  PrintCell(HumanBytes(local_bytes));
  PrintEnd();

  ctx.metrics().Reset();
  const double shuffle_time = TimeSeconds([&] {
    (void)RegridAggregate(arr, "chl", AvgAgg(), {3, 3, 1})->CountValid();
  });
  const uint64_t shuffle_bytes = ctx.metrics().shuffle_bytes.load();
  PrintCell(std::string("without"));
  PrintCell(shuffle_time);
  PrintCell(HumanBytes(shuffle_bytes));
  PrintEnd();
}

void MaskRddAblation() {
  Context ctx(4);
  SkyOptions options;
  options.images = 4;
  options.width = 384;
  options.height = 384;
  options.bands = 5;
  options.chunk = 128;
  options.source_density = 0.004;
  auto data = GenerateSky(options);

  PrintHeader("Ablation 3: MaskRdd lazy evaluation (Sec. III-B1)",
              {"variant", "time"});
  for (bool use_mask : {true, false}) {
    auto arr = *data.ToSpangle(&ctx, ModePolicy::Auto(), use_mask);
    arr.Cache();
    arr.CountValid();
    const double secs = TimeSeconds([&] {
      auto sub = *Subarray(arr, {0, 16, 16}, {3, 350, 350});
      auto f1 = *Filter(sub, "u", [](double v) { return v > 0.3; });
      auto f2 = *Filter(f1, "g", [](double v) { return v > 0.3; });
      (void)*Aggregate(f2, "r", AvgAgg());
    });
    PrintCell(std::string(use_mask ? "with MaskRdd" : "eager"));
    PrintCell(secs);
    PrintEnd();
  }
}
}  // namespace
}  // namespace spangle

int main() {
  std::printf("Design-choice ablations\n");
  spangle::LocalJoinAblation();
  spangle::OverlapAblation();
  spangle::MaskRddAblation();
  return 0;
}
