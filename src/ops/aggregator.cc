#include "ops/aggregator.h"

#include <limits>

#include "engine/first_seen_groups.h"
#include "ops/block_accumulate.h"

namespace spangle {

AggState MinAgg::Initialize() const {
  return {std::numeric_limits<double>::infinity(), 0};
}
void MinAgg::Accumulate(AggState* s, double v) const {
  if (v < s->v0) s->v0 = v;
}
void MinAgg::Merge(AggState* a, const AggState& b) const {
  if (b.v0 < a->v0) a->v0 = b.v0;
}

AggState MaxAgg::Initialize() const {
  return {-std::numeric_limits<double>::infinity(), 0};
}
void MaxAgg::Accumulate(AggState* s, double v) const {
  if (v > s->v0) s->v0 = v;
}
void MaxAgg::Merge(AggState* a, const AggState& b) const {
  if (b.v0 > a->v0) a->v0 = b.v0;
}

Result<double> Aggregate(const SpangleArray& in, const std::string& attr,
                         const AggregateFunction& fn) {
  SPANGLE_ASSIGN_OR_RETURN(ArrayRdd values, in.Attribute(attr));
  std::shared_ptr<const AggregateFunction> f = fn.Clone();
  AggState total = values.chunks().AsRdd().Aggregate<AggState>(
      f->Initialize(),
      [f](AggState acc, const std::pair<ChunkId, Chunk>& rec) {
        // Sequential access over the chunk: delta-count iteration.
        rec.second.ForEachValid(
            [&](uint32_t, double v) { f->Accumulate(&acc, v); });
        return acc;
      },
      [f](AggState a, const AggState& b) {
        f->Merge(&a, b);
        return a;
      });
  return fn.Evaluate(total);
}

namespace {

/// Block aggregation through one shuffle. Each partition walks its chunks
/// in record order and merges each chunk's block states into the
/// partition's, in first-seen block order; ReduceByKey merges partition
/// states and GroupIntoChunks builds the output chunks from runs of
/// evaluated cells.
ArrayRdd ShuffledBlockAggregate(const ArrayRdd& values,
                                const ArrayMetadata& out_meta,
                                std::vector<uint64_t> grid,
                                const AggregateFunction& fn,
                                const char* name) {
  auto in_mapper = values.mapper_ptr();
  auto out_mapper = std::make_shared<Mapper>(out_meta);
  const uint32_t cpc = out_mapper->cells_per_chunk();
  std::shared_ptr<const AggregateFunction> f = fn.Clone();
  const auto merge = [f](const AggState& a, const AggState& b) {
    AggState out = a;
    f->Merge(&out, b);
    return out;
  };
  auto states_rdd = values.chunks().AsRdd().MapPartitionsWithIndex<
      std::pair<uint64_t, AggState>>(
      [in_mapper, out_mapper, grid, f, merge](
          int, const std::vector<std::pair<ChunkId, Chunk>>& recs) {
        internal::BlockAccumulator acc(in_mapper->metadata(), grid,
                                       out_mapper, f);
        internal::FirstSeenGroups<uint64_t, AggState> states;
        for (const auto& [cid, chunk] : recs) {
          acc.Walk(chunk, ChunkBox::Core(*in_mapper, cid),
                   [&](uint64_t key, const AggState& state) {
                     states.Fold(key, state, merge);
                   });
        }
        return states.Take();
      },
      name);
  auto merged =
      ToPair<uint64_t, AggState>(std::move(states_rdd)).ReduceByKey(merge);
  auto runs = merged.AsRdd().MapPartitionsWithIndex<
      std::pair<ChunkId, CellRun>>(
      [cpc, f](int, const std::vector<std::pair<uint64_t, AggState>>& recs) {
        internal::ChunkRuns out;
        for (const auto& [key, state] : recs) {
          out.Add(key / cpc, static_cast<uint32_t>(key % cpc),
                  f->Evaluate(state));
        }
        return out.Take();
      },
      "blockCells");
  return ArrayRdd(out_meta, GroupIntoChunks(std::move(runs), cpc));
}

}  // namespace

Result<ArrayRdd> AggregateAlongDims(
    const SpangleArray& in, const std::string& attr,
    const AggregateFunction& fn, const std::vector<std::string>& collapse) {
  SPANGLE_ASSIGN_OR_RETURN(ArrayRdd values, in.Attribute(attr));
  const ArrayMetadata& meta = in.metadata();
  // A collapsed dimension is one block spanning its extent (grid 0);
  // the others keep every cell (grid 1).
  std::vector<uint64_t> grid(meta.num_dims(), 1);
  for (const auto& name : collapse) {
    SPANGLE_ASSIGN_OR_RETURN(size_t d, meta.DimIndex(name));
    grid[d] = 0;
  }
  std::vector<Dimension> kept;
  for (size_t d = 0; d < meta.num_dims(); ++d) {
    if (grid[d] != 0) kept.push_back(meta.dim(d));
  }
  if (kept.empty()) {
    return Status::InvalidArgument(
        "cannot collapse every dimension; use Aggregate() instead");
  }
  SPANGLE_ASSIGN_OR_RETURN(ArrayMetadata out_meta,
                           ArrayMetadata::Make(std::move(kept)));
  return ShuffledBlockAggregate(values, out_meta, std::move(grid), fn,
                                "aggregateAlongDims");
}

Result<ArrayRdd> RegridAggregate(const SpangleArray& in,
                                 const std::string& attr,
                                 const AggregateFunction& fn,
                                 const std::vector<uint64_t>& grid) {
  SPANGLE_ASSIGN_OR_RETURN(ArrayRdd values, in.Attribute(attr));
  SPANGLE_ASSIGN_OR_RETURN(ArrayMetadata out_meta,
                           internal::RegridMetadata(in.metadata(), grid));
  return ShuffledBlockAggregate(values, out_meta, grid, fn, "regrid");
}

}  // namespace spangle
