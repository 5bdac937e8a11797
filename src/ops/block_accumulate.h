#ifndef SPANGLE_OPS_BLOCK_ACCUMULATE_H_
#define SPANGLE_OPS_BLOCK_ACCUMULATE_H_

#include <functional>
#include <memory>
#include <vector>

#include "array/chunk.h"
#include "array/mapper.h"
#include "ops/aggregator.h"

namespace spangle::internal {

/// Output schema of a block regrid: ceil(size / grid) cells per dimension,
/// starting at 0. Fails on a grid of the wrong rank or a block of 0.
Result<ArrayMetadata> RegridMetadata(const ArrayMetadata& in,
                                     const std::vector<uint64_t>& grid);

/// The one block-accumulate kernel of every regrid: the overlap regrid,
/// the shuffled regrid and AggregateAlongDims. Walk() visits a chunk's
/// valid cells in a box row by row, sharing one DeltaCounter (paper
/// Sec. IV-B), and folds each into its output block's state. States sit
/// in a flat per-chunk array: per dimension a table maps the local index
/// to a slot, so the array spans at most ceil(extent / grid) + 1 blocks
/// per dimension and a cell costs no div/mod and no hash lookup. Cells
/// reach each block in ascending offset order. One accumulator per task:
/// its buffers are reused across Walk calls.
class BlockAccumulator {
 public:
  /// Input coordinate p falls in output coordinate (p - start) / grid[d]
  /// (plus the output dimension's start). grid[d] == 0 collapses d: one
  /// block spans it and the output drops it. A block's key is
  /// `cid * cells_per_chunk + offset` in `out`.
  BlockAccumulator(const ArrayMetadata& in, std::vector<uint64_t> grid,
                   std::shared_ptr<const Mapper> out,
                   std::shared_ptr<const AggregateFunction> f);

  /// Folds the valid cells of `chunk` inside `box` into their blocks,
  /// each starting from Initialize(), and emits every touched block in
  /// first-touch order.
  void Walk(const Chunk& chunk, const ChunkBox& box,
            const std::function<void(uint64_t key, const AggState&)>& emit);

 private:
  uint64_t KeyOf(size_t slot);

  std::vector<uint64_t> grid_;
  std::shared_ptr<const Mapper> out_;
  std::shared_ptr<const AggregateFunction> f_;
  std::vector<int64_t> start_;
  // Per walk and dimension: local index -> slot table, first output
  // coordinate and slot stride.
  std::vector<std::vector<uint32_t>> slot_of_;
  std::vector<int64_t> first_;
  std::vector<size_t> slot_stride_;
  std::vector<AggState> states_;
  std::vector<uint8_t> touched_;
  std::vector<uint32_t> order_;  // touched slots, in first-touch order
  Coords out_pos_;
};

}  // namespace spangle::internal

#endif  // SPANGLE_OPS_BLOCK_ACCUMULATE_H_
