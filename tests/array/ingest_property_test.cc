// Property tests for the parallel ingest (ArrayRdd::FromCells and
// FromDenseBuffer): whatever the slicing, the chunks and their record
// order per partition (chunks in the order their first cell appears in
// the input) must equal a naive serial ingest's bit for bit, and
// a bad input must report the first bad cell in input order.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <map>
#include <utility>
#include <vector>

#include "array/array_rdd.h"
#include "common/random.h"

namespace spangle {
namespace {

using Partitions = std::vector<std::vector<std::pair<ChunkId, std::string>>>;

std::string Bytes(const Chunk& chunk) {
  std::string out;
  chunk.AppendTo(&out);
  return out;
}

/// Serial reference: group the cells in input order, one chunk per id in
/// the order its first cell appears, and place the records by hash.
/// Chunks are compared by their encoding.
Partitions SerialIngest(const ArrayMetadata& meta,
                        const std::vector<CellValue>& cells,
                        ModePolicy policy, int num_partitions) {
  const Mapper mapper(meta);
  std::map<ChunkId, size_t> slot;
  using Cells = std::vector<std::pair<uint32_t, double>>;
  std::vector<std::pair<ChunkId, Cells>> grouped;
  for (const CellValue& cell : cells) {
    const ChunkId id = mapper.ChunkIdFromCoords(cell.pos);
    const auto [it, fresh] = slot.try_emplace(id, grouped.size());
    if (fresh) grouped.emplace_back(id, Cells{});
    grouped[it->second].second.emplace_back(mapper.LocalOffset(cell.pos),
                                            cell.value);
  }
  const uint32_t cpc = mapper.cells_per_chunk();
  HashPartitioner<ChunkId> partitioner(num_partitions);
  Partitions out(static_cast<size_t>(num_partitions));
  for (auto& [id, chunk_cells] : grouped) {
    const ChunkMode mode = policy.fixed.has_value()
                               ? *policy.fixed
                               : Chunk::ChooseMode(cpc, chunk_cells.size());
    out[static_cast<size_t>(partitioner.PartitionFor(id))].emplace_back(
        id, Bytes(Chunk::FromCells(cpc, std::move(chunk_cells), mode)));
  }
  return out;
}

Partitions PartitionsOf(const ArrayRdd& array) {
  using Tagged = std::pair<int, std::pair<ChunkId, std::string>>;
  const auto tagged =
      array.chunks()
          .AsRdd()
          .MapPartitionsWithIndex<Tagged>(
              [](int p, const std::vector<std::pair<ChunkId, Chunk>>& recs) {
                std::vector<Tagged> out;
                for (const auto& [id, chunk] : recs) {
                  out.push_back({p, {id, Bytes(chunk)}});
                }
                return out;
              },
              "tag")
          .Collect();
  Partitions out(static_cast<size_t>(array.chunks().num_partitions()));
  for (const auto& [p, rec] : tagged) {
    out[static_cast<size_t>(p)].push_back(rec);
  }
  return out;
}

void ExpectSamePartitions(const Partitions& got, const Partitions& want,
                          const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t p = 0; p < got.size(); ++p) {
    ASSERT_EQ(got[p].size(), want[p].size()) << label << " partition " << p;
    for (size_t i = 0; i < got[p].size(); ++i) {
      EXPECT_EQ(got[p][i].first, want[p][i].first)
          << label << " partition " << p << " record " << i;
      EXPECT_TRUE(got[p][i].second == want[p][i].second)
          << label << " partition " << p << " chunk " << got[p][i].first;
    }
  }
}

std::vector<ArrayMetadata> Shapes() {
  // Non-zero starts and ragged last chunks along every dimension.
  return {
      *ArrayMetadata::Make({{"x", -5, 37, 8, 0}}),
      *ArrayMetadata::Make({{"x", 3, 21, 4, 0}, {"y", -7, 30, 7, 0}}),
      *ArrayMetadata::Make(
          {{"z", -1, 5, 2, 0}, {"x", 0, 13, 5, 0}, {"y", 10, 9, 4, 0}}),
  };
}

std::vector<ModePolicy> Policies() {
  return {ModePolicy::Auto(), ModePolicy::Fixed(ChunkMode::kDense),
          ModePolicy::Fixed(ChunkMode::kSparse),
          ModePolicy::Fixed(ChunkMode::kSuperSparse)};
}

/// A random position inside `meta`.
Coords RandomPos(const ArrayMetadata& meta, Rng* rng) {
  Coords pos(meta.num_dims());
  for (size_t d = 0; d < meta.num_dims(); ++d) {
    pos[d] = meta.dim(d).start +
             static_cast<int64_t>(rng->NextBounded(meta.dim(d).size));
  }
  return pos;
}

/// `n` cells in random order with repeated positions: about one in eight
/// cells lands on a position an earlier cell already holds.
std::vector<CellValue> RandomCells(const ArrayMetadata& meta, size_t n,
                                   Rng* rng) {
  std::vector<CellValue> cells;
  for (size_t i = 0; i < n; ++i) {
    if (!cells.empty() && rng->NextBool(0.125)) {
      cells.push_back({cells[rng->NextBounded(cells.size())].pos,
                       rng->NextDouble(-9, 9)});
    } else {
      cells.push_back({RandomPos(meta, rng), rng->NextDouble(-9, 9)});
    }
  }
  return cells;
}

TEST(IngestPropertyTest, FromCellsMatchesSerialIngest) {
  Rng rng(2024);
  for (int workers : {1, 3, 4}) {
    Context ctx(workers);
    for (const ArrayMetadata& meta : Shapes()) {
      const uint64_t total = meta.total_cells();
      // Empty, fewer cells than slices, sparse and dense-ish inputs.
      for (size_t n : {size_t{0}, size_t{3}, size_t(total / 20),
                       size_t(total * 3 / 4)}) {
        const std::vector<CellValue> cells = RandomCells(meta, n, &rng);
        for (const ModePolicy& policy : Policies()) {
          for (int parts : {0, 5}) {
            const std::string label =
                std::to_string(workers) + " workers, " +
                std::to_string(meta.num_dims()) + "-d, " +
                std::to_string(n) + " cells, " + std::to_string(parts) +
                " partitions";
            auto got = ArrayRdd::FromCells(&ctx, meta, cells, policy, parts);
            ASSERT_TRUE(got.ok()) << label << ": " << got.status().ToString();
            ExpectSamePartitions(
                PartitionsOf(*got),
                SerialIngest(meta, cells, policy,
                             parts > 0 ? parts : ctx.default_parallelism()),
                label);
          }
        }
      }
    }
  }
}

TEST(IngestPropertyTest, FromDenseBufferMatchesSerialIngest) {
  Rng rng(77);
  for (int workers : {1, 4}) {
    Context ctx(workers);
    for (const ArrayMetadata& meta : Shapes()) {
      for (double valid : {0.0, 0.02, 0.5, 1.0}) {
        std::vector<double> data(meta.total_cells());
        std::vector<CellValue> cells;  // the valid cells in buffer order
        const size_t nd = meta.num_dims();
        Coords pos(nd);
        for (size_t d = 0; d < nd; ++d) pos[d] = meta.dim(d).start;
        for (double& v : data) {
          v = rng.NextBool(valid) ? rng.NextDouble(-3, 3) : std::nan("");
          if (!std::isnan(v)) cells.push_back({pos, v});
          for (size_t d = nd; d-- > 0;) {
            if (++pos[d] < meta.dim(d).start +
                               static_cast<int64_t>(meta.dim(d).size)) {
              break;
            }
            pos[d] = meta.dim(d).start;
          }
        }
        for (const ModePolicy& policy : Policies()) {
          const std::string label = std::to_string(workers) + " workers, " +
                                    std::to_string(nd) + "-d, density " +
                                    std::to_string(valid);
          auto got = ArrayRdd::FromDenseBuffer(
              &ctx, meta, data, [](double v) { return std::isnan(v); },
              policy, 3);
          ASSERT_TRUE(got.ok()) << label << ": " << got.status().ToString();
          ExpectSamePartitions(PartitionsOf(*got),
                               SerialIngest(meta, cells, policy, 3), label);
        }
      }
    }
  }
}

TEST(IngestPropertyTest, BadCellInTheLastSliceIsReported) {
  Context ctx(4);
  const ArrayMetadata meta = Shapes()[1];
  Rng rng(5);
  std::vector<CellValue> cells = RandomCells(meta, 400, &rng);
  cells.push_back({{meta.dim(0).start - 1, meta.dim(1).start}, 1.0});
  auto got = ArrayRdd::FromCells(&ctx, meta, cells);
  EXPECT_TRUE(got.status().IsOutOfRange()) << got.status().ToString();
  cells.back().pos = {meta.dim(0).start};
  got = ArrayRdd::FromCells(&ctx, meta, cells);
  EXPECT_TRUE(got.status().IsInvalidArgument()) << got.status().ToString();
}

TEST(IngestPropertyTest, FirstBadCellInInputOrderWins) {
  Context ctx(4);
  const ArrayMetadata meta = Shapes()[1];
  Rng rng(6);
  const std::vector<CellValue> good = RandomCells(meta, 800, &rng);
  const CellValue wrong_rank{{meta.dim(0).start}, 1.0};
  const CellValue out_of_bounds{
      {meta.dim(0).start, meta.dim(1).start + 1000}, 1.0};
  // The two bad cells sit in different slices (8 slices of 100 cells);
  // whichever comes first in input order decides the Status.
  std::vector<CellValue> cells = good;
  cells[150] = wrong_rank;
  cells[650] = out_of_bounds;
  EXPECT_TRUE(
      ArrayRdd::FromCells(&ctx, meta, cells).status().IsInvalidArgument());
  cells = good;
  cells[150] = out_of_bounds;
  cells[650] = wrong_rank;
  EXPECT_TRUE(ArrayRdd::FromCells(&ctx, meta, cells).status().IsOutOfRange());
}

// A slice task that fails is retried; one that exhausts its retries makes
// the ingest return Internal instead of throwing out of a Result API.
TEST(IngestPropertyTest, ExhaustedTaskRetriesReturnAStatus) {
  Context ctx(4);
  FaultToleranceOptions opts;
  opts.max_task_retries = 1;
  opts.retry_backoff_us = 0;
  ctx.set_fault_options(opts);
  const ArrayMetadata meta = Shapes()[1];
  Rng rng(7);
  const std::vector<CellValue> cells = RandomCells(meta, 400, &rng);
  for (const char* stage : {"ingest/group", "ingest/build"}) {
    auto policy = std::make_shared<ChaosPolicy>();
    policy->fail_task = [stage](const ChaosTaskInfo& t) {
      return t.stage == stage && t.task == 1 && t.attempt == 0;
    };
    ctx.set_chaos_policy(policy);
    auto got = ArrayRdd::FromCells(&ctx, meta, cells, ModePolicy::Auto(), 3);
    ASSERT_TRUE(got.ok()) << stage << ": " << got.status().ToString();
    ExpectSamePartitions(PartitionsOf(*got),
                         SerialIngest(meta, cells, ModePolicy::Auto(), 3),
                         stage);

    policy = std::make_shared<ChaosPolicy>();
    policy->fail_task = [stage](const ChaosTaskInfo& t) {
      return t.stage == stage && t.task == 1;
    };
    ctx.set_chaos_policy(policy);
    got = ArrayRdd::FromCells(&ctx, meta, cells);
    EXPECT_EQ(got.status().code(), StatusCode::kInternal)
        << stage << ": " << got.status().ToString();
    ctx.set_chaos_policy(nullptr);
  }
}

}  // namespace
}  // namespace spangle
