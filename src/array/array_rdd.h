#ifndef SPANGLE_ARRAY_ARRAY_RDD_H_
#define SPANGLE_ARRAY_ARRAY_RDD_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
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

/// A run of cells bound for one chunk: (in-chunk offset, value) in arrival
/// order. The unit every chunk build groups and shuffles.
using CellRun = std::vector<std::pair<uint32_t, double>>;

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

  /// Builds from discrete cells, eagerly, on the workers (paper Sec.
  /// III-A): contiguous slices of `cells` are validated and grouped into
  /// runs in parallel, then every chunk is built in parallel from its
  /// runs, in input order. A position given more than once keeps its last
  /// value in input order. A cell of the wrong dimensionality fails with
  /// InvalidArgument, one outside the array bounds with OutOfRange; with
  /// several bad cells the first in input order decides. The build runs
  /// two stages on the pool ("ingest/group", "ingest/build"), which count
  /// in the stage and task metrics and are subject to the fault options
  /// like an action's; a task that exhausts its retries returns Internal.
  static Result<ArrayRdd> FromCells(Context* ctx, const ArrayMetadata& meta,
                                    const std::vector<CellValue>& cells,
                                    ModePolicy policy = ModePolicy::Auto(),
                                    int num_partitions = 0);

  /// The same pipeline as lineage instead of an eager build: cells are
  /// parallelized, each partition groups its cells into runs, and one
  /// shuffle (GroupIntoChunks) gathers every chunk's runs. Nothing runs
  /// until an action, and a lost partition is recomputed from the cells.
  /// Same chunks as FromCells; validated on the driver.
  static Result<ArrayRdd> FromCellsDistributed(
      Context* ctx, const ArrayMetadata& meta,
      const std::vector<CellValue>& cells,
      ModePolicy policy = ModePolicy::Auto(), int num_partitions = 0);

  /// Builds from a row-major dense buffer (last dimension fastest), on the
  /// workers in the same two stages as FromCells (same failure rules);
  /// cells where `is_null(value)` are treated as no-data. `is_null` is
  /// called from several threads at once.
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

/// Chunks of `num_cells` cells built from runs: one shuffle on `p`
/// (default: hash) moves the runs, which callers group with ChunkRuns into
/// one per (map partition, target chunk); then each chunk is built from its
/// runs concatenated in arrival order, in the mode `policy` picks. A reduce partition lists its chunks in the
/// order a per-cell GroupByKey would, so the chunks and their record order
/// match a per-cell grouping bit for bit.
PairRdd<ChunkId, Chunk> GroupIntoChunks(
    Rdd<std::pair<ChunkId, CellRun>> runs, uint32_t num_cells,
    ModePolicy policy = ModePolicy::Auto(),
    std::shared_ptr<Partitioner<ChunkId>> p = nullptr);

namespace internal {

/// The one run builder: groups (ChunkId, offset, value) cells into one run
/// per target chunk. Runs come out in the order their chunk received its
/// first cell, each keeping its cells in Add order, so a run stream read
/// in order hands every chunk the same cell sequence as the cells did.
/// Cells are logged in one buffer and placed into exactly sized runs by
/// Take(), so a run costs one allocation however long it grows.
/// Consecutive cells for one chunk cost no hash lookup.
class ChunkRuns {
 public:
  void Add(ChunkId id, uint32_t offset, double value) {
    if (ids_.empty() || ids_[last_] != id) Switch(id);
    log_.push_back(Logged{last_, offset, value});
    ++sizes_[last_];
  }

  /// The runs, in first-seen order; leaves the builder empty. A chunk
  /// that received no cell has no run.
  std::vector<std::pair<ChunkId, CellRun>> Take();

 private:
  struct Logged {
    uint32_t run;
    uint32_t offset;
    double value;
  };

  void Switch(ChunkId id);

  std::unordered_map<ChunkId, uint32_t> index_;
  std::vector<ChunkId> ids_;     // per run, first-seen order
  std::vector<size_t> sizes_;    // cells per run
  std::vector<Logged> log_;      // every cell, in Add order
  uint32_t last_ = 0;
};

}  // namespace internal

}  // namespace spangle

#endif  // SPANGLE_ARRAY_ARRAY_RDD_H_
