#include "array/array_rdd.h"

#include <algorithm>
#include <utility>

namespace spangle {

namespace {

ChunkMode ModeFor(const ModePolicy& policy, uint32_t cells, uint64_t valid) {
  return policy.fixed.has_value() ? *policy.fixed
                                  : Chunk::ChooseMode(cells, valid);
}

Status CheckCell(const Mapper& mapper, const CellValue& cell) {
  if (cell.pos.size() != mapper.metadata().num_dims()) {
    return Status::InvalidArgument("cell dimensionality mismatch");
  }
  if (!mapper.InBounds(cell.pos)) {
    return Status::OutOfRange("cell coordinates outside array bounds");
  }
  return Status::OK();
}

/// Feeds input items [begin, end) to `runs` in order; returns the Status
/// of the first bad item, if any.
using SliceGrouper =
    std::function<Status(size_t begin, size_t end, internal::ChunkRuns* runs)>;

/// The eager ingest of Sec. III-A on the pool. Stage 1 splits the `n`
/// input items into contiguous slices and groups each into runs. The
/// driver groups the runs by chunk, slice after slice, so chunks come in
/// the order their first cell has in the input. Stage 2 builds every
/// chunk from its runs concatenated in slice order, so it sees its cells
/// in input order, and the records keep the chunks' first-seen order.
/// Tasks only read shared state and write their own slots, so a retried
/// task redoes the same work. A stage whose task exhausts its retries
/// returns Internal instead of throwing.
Result<ArrayRdd> BuildFromSlices(Context* ctx, const ArrayMetadata& meta,
                                 size_t n, ModePolicy policy,
                                 int num_partitions,
                                 const SliceGrouper& group) {
  const auto num_slices =
      static_cast<size_t>(std::max(1, ctx->default_parallelism()));
  const auto run_stage = [&](const char* name,
                             const std::function<void(int)>& fn) {
    try {
      ctx->RunStage(name, static_cast<int>(num_slices), fn);
    } catch (const JobFailedError& e) {
      return Status::Internal(e.what());
    }
    return Status::OK();
  };
  std::vector<std::vector<std::pair<ChunkId, CellRun>>> slices(num_slices);
  std::vector<Status> errors(num_slices);
  SPANGLE_RETURN_NOT_OK(run_stage("ingest/group", [&](int t) {
    const auto s = static_cast<size_t>(t);
    internal::ChunkRuns runs;
    errors[s] = group(n * s / num_slices, n * (s + 1) / num_slices, &runs);
    slices[s] = runs.Take();
  }));
  for (const Status& st : errors) SPANGLE_RETURN_NOT_OK(st);

  // Chunk g (in first-seen order) is built from its runs, slice by slice.
  internal::FirstSeenGroups<ChunkId, std::vector<const CellRun*>> grouped;
  for (const auto& slice : slices) {
    for (const auto& [id, run] : slice) grouped[id].push_back(&run);
  }
  const auto pieces = grouped.Take();
  const uint32_t cpc = Mapper(meta).cells_per_chunk();
  std::vector<std::pair<ChunkId, Chunk>> records(pieces.size());
  SPANGLE_RETURN_NOT_OK(run_stage("ingest/build", [&](int t) {
    const auto task = static_cast<size_t>(t);
    for (size_t g = records.size() * task / num_slices;
         g < records.size() * (task + 1) / num_slices; ++g) {
      CellRun cells;
      for (const CellRun* run : pieces[g].second) {
        cells.insert(cells.end(), run->begin(), run->end());
      }
      const ChunkMode mode = ModeFor(policy, cpc, cells.size());
      records[g] = {pieces[g].first,
                    Chunk::FromCells(cpc, std::move(cells), mode)};
    }
  }));
  if (num_partitions <= 0) num_partitions = ctx->default_parallelism();
  auto partitioner = std::make_shared<HashPartitioner<ChunkId>>(num_partitions);
  return ArrayRdd(meta, ctx->ParallelizePairs<ChunkId, Chunk>(
                            std::move(records), std::move(partitioner)));
}

}  // namespace

ArrayRdd::ArrayRdd(ArrayMetadata meta, PairRdd<ChunkId, Chunk> chunks)
    : mapper_(std::make_shared<Mapper>(meta)), chunks_(std::move(chunks)) {}

Result<ArrayRdd> ArrayRdd::FromCells(Context* ctx, const ArrayMetadata& meta,
                                     const std::vector<CellValue>& cells,
                                     ModePolicy policy, int num_partitions) {
  const Mapper mapper(meta);
  return BuildFromSlices(
      ctx, meta, cells.size(), policy, num_partitions,
      [&](size_t begin, size_t end, internal::ChunkRuns* runs) {
        for (size_t i = begin; i < end; ++i) {
          const CellValue& cell = cells[i];
          SPANGLE_RETURN_NOT_OK(CheckCell(mapper, cell));
          runs->Add(mapper.ChunkIdFromCoords(cell.pos),
                    mapper.LocalOffset(cell.pos), cell.value);
        }
        return Status::OK();
      });
}

Result<ArrayRdd> ArrayRdd::FromCellsDistributed(
    Context* ctx, const ArrayMetadata& meta,
    const std::vector<CellValue>& cells, ModePolicy policy,
    int num_partitions) {
  auto mapper = std::make_shared<Mapper>(meta);
  for (const auto& cell : cells) {
    SPANGLE_RETURN_NOT_OK(CheckCell(*mapper, cell));
  }
  if (num_partitions <= 0) num_partitions = ctx->default_parallelism();
  // Map: group each partition's cells into runs (parallel); reduce:
  // gather every chunk's runs, build payload + bitmask per chunk.
  auto runs = ctx->Parallelize(cells, num_partitions)
                  .MapPartitionsWithIndex<std::pair<ChunkId, CellRun>>(
                      [mapper](int, const std::vector<CellValue>& part) {
                        internal::ChunkRuns grouped;
                        for (const CellValue& cell : part) {
                          grouped.Add(mapper->ChunkIdFromCoords(cell.pos),
                                      mapper->LocalOffset(cell.pos),
                                      cell.value);
                        }
                        return grouped.Take();
                      },
                      "chunkRuns");
  return ArrayRdd(
      meta, GroupIntoChunks(
                std::move(runs), mapper->cells_per_chunk(), policy,
                std::make_shared<HashPartitioner<ChunkId>>(num_partitions)));
}

PairRdd<ChunkId, Chunk> GroupIntoChunks(
    Rdd<std::pair<ChunkId, CellRun>> runs, uint32_t num_cells,
    ModePolicy policy, std::shared_ptr<Partitioner<ChunkId>> p) {
  if (p == nullptr) {
    p = std::make_shared<HashPartitioner<ChunkId>>(
        std::max(runs.num_partitions(), 1));
  }
  auto placed = ToPair<ChunkId, CellRun>(std::move(runs)).PartitionBy(p);
  auto chunks = placed.AsRdd().MapPartitionsWithIndex<
      std::pair<ChunkId, Chunk>>(
      [policy, num_cells](int,
                          const std::vector<std::pair<ChunkId, CellRun>>& in) {
        internal::FirstSeenGroups<ChunkId, CellRun> groups;
        for (const auto& [id, run] : in) {
          CellRun& cells = groups[id];
          cells.insert(cells.end(), run.begin(), run.end());
        }
        std::vector<std::pair<ChunkId, Chunk>> out;
        for (auto& [id, cells] : groups.Take()) {
          const ChunkMode mode = ModeFor(policy, num_cells, cells.size());
          out.emplace_back(
              id, Chunk::FromCells(num_cells, std::move(cells), mode));
        }
        return out;
      },
      "groupIntoChunks");
  return PairRdd<ChunkId, Chunk>(std::move(chunks), std::move(p));
}

Result<ArrayRdd> ArrayRdd::FromDenseBuffer(
    Context* ctx, const ArrayMetadata& meta, const std::vector<double>& data,
    const std::function<bool(double)>& is_null, ModePolicy policy,
    int num_partitions) {
  if (data.size() != meta.total_cells()) {
    return Status::InvalidArgument("dense buffer size != total cells");
  }
  const Mapper mapper(meta);
  const size_t nd = meta.num_dims();
  return BuildFromSlices(
      ctx, meta, data.size(), policy, num_partitions,
      [&](size_t begin, size_t end, internal::ChunkRuns* runs) {
        // Coordinates of item `begin`, row-major, last dimension fastest.
        Coords pos(nd);
        for (size_t d = nd, rest = begin; d-- > 0;) {
          pos[d] = meta.dim(d).start +
                   static_cast<int64_t>(rest % meta.dim(d).size);
          rest /= meta.dim(d).size;
        }
        for (size_t i = begin; i < end; ++i) {
          if (!is_null(data[i])) {
            runs->Add(mapper.ChunkIdFromCoords(pos), mapper.LocalOffset(pos),
                      data[i]);
          }
          for (size_t d = nd; d-- > 0;) {
            if (++pos[d] <
                meta.dim(d).start + static_cast<int64_t>(meta.dim(d).size)) {
              break;
            }
            pos[d] = meta.dim(d).start;
          }
        }
        return Status::OK();
      });
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

namespace internal {

std::vector<std::pair<ChunkId, CellRun>> ChunkRuns::Take() {
  auto sizes = sizes_.Take();
  std::vector<std::pair<ChunkId, CellRun>> runs(sizes.size());
  for (size_t r = 0; r < runs.size(); ++r) {
    runs[r].first = sizes[r].first;
    runs[r].second.reserve(sizes[r].second);
  }
  for (const Logged& cell : log_) {
    runs[cell.run].second.emplace_back(cell.offset, cell.value);
  }
  log_.clear();
  return runs;
}

}  // namespace internal

}  // namespace spangle
