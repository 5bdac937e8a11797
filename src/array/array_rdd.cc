#include "array/array_rdd.h"

#include <unordered_map>

namespace spangle {

namespace {

ChunkMode ModeFor(const ModePolicy& policy, uint32_t cells, uint64_t valid) {
  return policy.fixed.has_value() ? *policy.fixed
                                  : Chunk::ChooseMode(cells, valid);
}

}  // namespace

ArrayRdd::ArrayRdd(ArrayMetadata meta, PairRdd<ChunkId, Chunk> chunks)
    : mapper_(std::make_shared<Mapper>(meta)), chunks_(std::move(chunks)) {}

Result<ArrayRdd> ArrayRdd::FromCells(Context* ctx, const ArrayMetadata& meta,
                                     const std::vector<CellValue>& cells,
                                     ModePolicy policy, int num_partitions) {
  Mapper mapper(meta);
  // Pipeline of Sec. III-A: assign a ChunkId to every cell, group by id,
  // build payload + bitmask per chunk. Chunks that would be empty are
  // simply never created.
  std::unordered_map<ChunkId, std::vector<std::pair<uint32_t, double>>>
      grouped;
  for (const auto& cell : cells) {
    if (cell.pos.size() != meta.num_dims()) {
      return Status::InvalidArgument("cell dimensionality mismatch");
    }
    if (!mapper.InBounds(cell.pos)) {
      return Status::OutOfRange("cell coordinates outside array bounds");
    }
    grouped[mapper.ChunkIdFromCoords(cell.pos)].emplace_back(
        mapper.LocalOffset(cell.pos), cell.value);
  }
  const uint32_t cpc = mapper.cells_per_chunk();
  std::vector<std::pair<ChunkId, Chunk>> records;
  records.reserve(grouped.size());
  for (auto& [id, chunk_cells] : grouped) {
    const ChunkMode mode = ModeFor(policy, cpc, chunk_cells.size());
    records.emplace_back(id,
                         Chunk::FromCells(cpc, std::move(chunk_cells), mode));
  }
  if (num_partitions <= 0) num_partitions = ctx->default_parallelism();
  auto partitioner = std::make_shared<HashPartitioner<ChunkId>>(num_partitions);
  auto pairs = ctx->ParallelizePairs<ChunkId, Chunk>(std::move(records),
                                                     std::move(partitioner));
  return ArrayRdd(meta, std::move(pairs));
}

Result<ArrayRdd> ArrayRdd::FromCellsDistributed(
    Context* ctx, const ArrayMetadata& meta,
    const std::vector<CellValue>& cells, ModePolicy policy,
    int num_partitions) {
  auto mapper = std::make_shared<Mapper>(meta);
  for (const auto& cell : cells) {
    if (cell.pos.size() != meta.num_dims()) {
      return Status::InvalidArgument("cell dimensionality mismatch");
    }
    if (!mapper->InBounds(cell.pos)) {
      return Status::OutOfRange("cell coordinates outside array bounds");
    }
  }
  if (num_partitions <= 0) num_partitions = ctx->default_parallelism();
  // Map: assign a ChunkId + offset to every cell (parallel); reduce: group
  // by ChunkId, build payload + bitmask per chunk.
  auto keyed = ctx->Parallelize(cells, num_partitions)
                   .Map([mapper](const CellValue& cell) {
                     return std::pair<ChunkId, std::pair<uint32_t, double>>(
                         mapper->ChunkIdFromCoords(cell.pos),
                         {mapper->LocalOffset(cell.pos), cell.value});
                   });
  return ArrayRdd(
      meta, GroupIntoChunks(
                std::move(keyed), mapper->cells_per_chunk(), policy,
                std::make_shared<HashPartitioner<ChunkId>>(num_partitions)));
}

PairRdd<ChunkId, Chunk> GroupIntoChunks(
    Rdd<std::pair<ChunkId, std::pair<uint32_t, double>>> cells,
    uint32_t num_cells, ModePolicy policy,
    std::shared_ptr<Partitioner<ChunkId>> p) {
  return ToPair<ChunkId, std::pair<uint32_t, double>>(std::move(cells))
      .GroupByKey(std::move(p))
      .MapValues([policy, num_cells](
                     const std::vector<std::pair<uint32_t, double>>& group) {
        auto copy = group;
        return Chunk::FromCells(num_cells, std::move(copy),
                                ModeFor(policy, num_cells, group.size()));
      });
}

Result<ArrayRdd> ArrayRdd::FromDenseBuffer(
    Context* ctx, const ArrayMetadata& meta, const std::vector<double>& data,
    const std::function<bool(double)>& is_null, ModePolicy policy,
    int num_partitions) {
  if (data.size() != meta.total_cells()) {
    return Status::InvalidArgument("dense buffer size != total cells");
  }
  Mapper mapper(meta);
  const size_t nd = meta.num_dims();
  std::unordered_map<ChunkId, std::vector<std::pair<uint32_t, double>>>
      grouped;
  Coords pos(nd);
  for (size_t d = 0; d < nd; ++d) pos[d] = meta.dim(d).start;
  for (size_t i = 0; i < data.size(); ++i) {
    if (!is_null(data[i])) {
      grouped[mapper.ChunkIdFromCoords(pos)].emplace_back(
          mapper.LocalOffset(pos), data[i]);
    }
    // Row-major advance, last dimension fastest.
    for (size_t d = nd; d-- > 0;) {
      if (++pos[d] <
          meta.dim(d).start + static_cast<int64_t>(meta.dim(d).size)) {
        break;
      }
      pos[d] = meta.dim(d).start;
    }
  }
  const uint32_t cpc = mapper.cells_per_chunk();
  std::vector<std::pair<ChunkId, Chunk>> records;
  records.reserve(grouped.size());
  for (auto& [id, chunk_cells] : grouped) {
    const ChunkMode mode = ModeFor(policy, cpc, chunk_cells.size());
    records.emplace_back(id,
                         Chunk::FromCells(cpc, std::move(chunk_cells), mode));
  }
  if (num_partitions <= 0) num_partitions = ctx->default_parallelism();
  auto partitioner = std::make_shared<HashPartitioner<ChunkId>>(num_partitions);
  auto pairs = ctx->ParallelizePairs<ChunkId, Chunk>(std::move(records),
                                                     std::move(partitioner));
  return ArrayRdd(meta, std::move(pairs));
}

AnalyzedPlan ArrayRdd::ExplainAnalyzePlan(const std::string& action) const {
  return chunks_.ExplainAnalyzePlan(action);
}

uint64_t ArrayRdd::CountValid() const {
  return chunks_.AsRdd().Aggregate<uint64_t>(
      0,
      [](uint64_t acc, const std::pair<ChunkId, Chunk>& rec) {
        return acc + rec.second.num_valid();
      },
      [](uint64_t a, uint64_t b) { return a + b; });
}

size_t ArrayRdd::MemoryBytes() const {
  return chunks_.AsRdd().Aggregate<size_t>(
      0,
      [](size_t acc, const std::pair<ChunkId, Chunk>& rec) {
        return acc + rec.second.MemoryBytes();
      },
      [](size_t a, size_t b) { return a + b; });
}

Result<double> ArrayRdd::GetCell(const Coords& pos) const {
  if (!mapper_->InBounds(pos)) {
    return Status::OutOfRange("coordinates outside array bounds");
  }
  const ChunkId id = mapper_->ChunkIdFromCoords(pos);
  const uint32_t offset = mapper_->LocalOffset(pos);
  auto found = chunks_.Lookup(id);
  if (found.empty()) {
    return Status::NotFound("cell is null (chunk not materialized)");
  }
  const Chunk& chunk = found.front();
  if (!chunk.Valid(offset)) return Status::NotFound("cell is null");
  return chunk.Value(offset);
}

ArrayRdd ArrayRdd::MapValues(std::function<double(double)> fn) const {
  auto mapped = chunks_.MapValues([fn = std::move(fn)](const Chunk& c) {
    return c.MapValues([&](uint32_t, double v) { return fn(v); });
  });
  ArrayRdd out;
  out.mapper_ = mapper_;
  out.chunks_ = std::move(mapped);
  return out;
}

ArrayRdd ArrayRdd::ConvertMode(ChunkMode mode) const {
  auto converted = chunks_.MapValues(
      [mode](const Chunk& c) { return c.ConvertTo(mode); });
  ArrayRdd out;
  out.mapper_ = mapper_;
  out.chunks_ = std::move(converted);
  return out;
}

std::vector<CellValue> ArrayRdd::CollectCells() const {
  std::vector<CellValue> out;
  const Mapper& mapper = *mapper_;
  for (const auto& [id, chunk] : chunks_.Collect()) {
    chunk.ForEachValid([&](uint32_t off, double v) {
      out.push_back(CellValue{mapper.CoordsFromChunkOffset(id, off), v});
    });
  }
  return out;
}

}  // namespace spangle
