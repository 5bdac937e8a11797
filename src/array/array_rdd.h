#ifndef SPANGLE_ARRAY_ARRAY_RDD_H_
#define SPANGLE_ARRAY_ARRAY_RDD_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "array/chunk.h"
#include "array/mapper.h"
#include "array/metadata.h"
#include "common/result.h"
#include "engine/engine.h"

namespace spangle {

/// A logical cell: coordinates plus a value. Ingest-side record type.
struct CellValue {
  Coords pos;
  double value;
};

/// Chunk-mode policy at creation: a fixed mode, or per-chunk automatic
/// selection by density (Chunk::ChooseMode).
struct ModePolicy {
  static ModePolicy Auto() { return ModePolicy{}; }
  static ModePolicy Fixed(ChunkMode m) { return ModePolicy{m}; }
  std::optional<ChunkMode> fixed;
};

/// The distributed array (paper Sec. III-B): a PairRdd keyed by ChunkId
/// whose values are chunks, plus the metadata/mapper that give cells their
/// logical coordinates. Inherits the engine RDD properties: lazy
/// evaluation, lineage fault tolerance, caching, partitioning. Chunks with
/// zero valid cells are never materialized.
class ArrayRdd {
 public:
  ArrayRdd() = default;
  ArrayRdd(ArrayMetadata meta, PairRdd<ChunkId, Chunk> chunks);

  /// Builds from discrete cells (driver-side ingest). Cells outside the
  /// array bounds are rejected with InvalidArgument.
  static Result<ArrayRdd> FromCells(Context* ctx, const ArrayMetadata& meta,
                                    const std::vector<CellValue>& cells,
                                    ModePolicy policy = ModePolicy::Auto(),
                                    int num_partitions = 0);

  /// The paper's ingest pipeline run through the engine (Sec. III-A):
  /// cells are parallelized, each is mapped to its ChunkId + in-chunk
  /// offset, one shuffle groups them, and chunk construction happens in
  /// parallel on the workers. Same result as FromCells.
  static Result<ArrayRdd> FromCellsDistributed(
      Context* ctx, const ArrayMetadata& meta,
      const std::vector<CellValue>& cells,
      ModePolicy policy = ModePolicy::Auto(), int num_partitions = 0);

  /// Builds from a row-major dense buffer (last dimension fastest);
  /// cells where `is_null(value)` are treated as no-data.
  static Result<ArrayRdd> FromDenseBuffer(
      Context* ctx, const ArrayMetadata& meta, const std::vector<double>& data,
      const std::function<bool(double)>& is_null,
      ModePolicy policy = ModePolicy::Auto(), int num_partitions = 0);

  const ArrayMetadata& metadata() const { return mapper_->metadata(); }
  const Mapper& mapper() const { return *mapper_; }
  std::shared_ptr<const Mapper> mapper_ptr() const { return mapper_; }
  Context* ctx() const { return chunks_.ctx(); }

  PairRdd<ChunkId, Chunk>& chunks() { return chunks_; }
  const PairRdd<ChunkId, Chunk>& chunks() const { return chunks_; }

  /// Same chunks under different metadata (dims must multiply out to the
  /// same chunk grid); used by the metadata transpose (opt2).
  ArrayRdd WithMetadata(ArrayMetadata meta) const {
    return ArrayRdd(std::move(meta), chunks_);
  }

  ArrayRdd& Cache(StorageLevel level = StorageLevel::kMemoryOnly) {
    chunks_.Cache(level);
    return *this;
  }

  /// Staged physical plan for running `action` over the chunks (see
  /// Rdd::Explain). Does not execute.
  std::string Explain(const std::string& action = "collect") const {
    return chunks_.Explain(action);
  }

  /// EXECUTES `action` over the chunks and returns the plan annotated
  /// with per-node actuals — including the chunk modes, densities, and
  /// mode transitions the chunk builders reported (see Rdd::ExplainAnalyze).
  AnalyzedPlan ExplainAnalyzePlan(
      const std::string& action = "collect") const;
  std::string ExplainAnalyze(const std::string& action = "collect") const {
    return ExplainAnalyzePlan(action).ToString();
  }

  /// Number of materialized (non-empty) chunks.
  size_t NumChunks() const { return chunks_.Count(); }

  /// Total valid cells across all chunks.
  uint64_t CountValid() const;

  /// Total in-memory footprint of all chunks (Fig. 9a).
  size_t MemoryBytes() const;

  /// Point query: routes to the owning chunk's partition (no full scan
  /// when the RDD carries a partitioner), then ranks into the payload.
  Result<double> GetCell(const Coords& pos) const;

  /// New array with every valid value transformed by fn(value).
  ArrayRdd MapValues(std::function<double(double)> fn) const;

  /// All chunks re-encoded in `mode`.
  ArrayRdd ConvertMode(ChunkMode mode) const;

  /// All valid cells with logical coordinates (driver-side; test/debug).
  std::vector<CellValue> CollectCells() const;

 private:
  std::shared_ptr<const Mapper> mapper_;
  PairRdd<ChunkId, Chunk> chunks_;
};

/// Chunks of `num_cells` cells built from cells scattered as (ChunkId,
/// (offset, value)) records: one GroupByKey on `p` (default: hash), then
/// each chunk in the mode `policy` picks.
PairRdd<ChunkId, Chunk> GroupIntoChunks(
    Rdd<std::pair<ChunkId, std::pair<uint32_t, double>>> cells,
    uint32_t num_cells, ModePolicy policy = ModePolicy::Auto(),
    std::shared_ptr<Partitioner<ChunkId>> p = nullptr);

}  // namespace spangle

#endif  // SPANGLE_ARRAY_ARRAY_RDD_H_
