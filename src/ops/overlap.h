#ifndef SPANGLE_OPS_OVERLAP_H_
#define SPANGLE_OPS_OVERLAP_H_

#include <memory>

#include "array/array_rdd.h"
#include "ops/aggregator.h"

namespace spangle {

/// An array whose chunks carry `radius` ghost cells past every chunk
/// boundary (the *overlap* technique of paper Sec. III-A, after
/// ArrayStore [18]). Building the overlap costs one halo-exchange
/// shuffle, of one run of cells per (partition, neighbor chunk);
/// afterwards operators that need neighbor cells (windowing, regridding —
/// Q2 and Q5 in the evaluation) never exchange raw cells.
class OverlapArrayRdd {
 public:
  OverlapArrayRdd() = default;

  /// Materializes ghost cells around every chunk of `base`. The radius is
  /// clamped per dimension to that dimension's chunk size (a chunk can
  /// only see its immediate neighbors).
  static OverlapArrayRdd Build(const ArrayRdd& base, uint64_t radius);

  uint64_t radius() const { return radius_; }
  const std::vector<uint64_t>& radii() const { return radii_; }
  const Mapper& mapper() const { return *mapper_; }
  const PairRdd<ChunkId, Chunk>& expanded_chunks() const { return chunks_; }

  OverlapArrayRdd& Cache() {
    chunks_.Cache();
    return *this;
  }

  /// Stencil aggregation: output cell p = fn over the valid cells in the
  /// (2*radius+1)^d neighborhood of p. Output cells exist only where the
  /// input cell was valid. No shuffle — every neighborhood is resolved
  /// from ghost cells.
  ArrayRdd WindowAggregate(const AggregateFunction& fn) const;

  /// Block regrid computed locally per chunk: each chunk owns the output
  /// blocks whose origin falls inside it and walks only their cells,
  /// reading straddling cells from the ghost region. Requires a radius of
  /// grid-1 along every dimension whose chunks the blocks straddle. Same
  /// result as RegridAggregate, bit for bit per block, but no input cell
  /// moves: one shuffle places the finished output cells into output
  /// chunks, one run per (partition, output chunk).
  Result<ArrayRdd> RegridAggregateLocal(const AggregateFunction& fn,
                                        const std::vector<uint64_t>& grid)
      const;

 private:
  std::shared_ptr<const Mapper> mapper_;
  uint64_t radius_ = 0;
  std::vector<uint64_t> radii_;  // per-dim effective ghost depth
  // Keyed by the base ChunkId; values are expanded (core + ghost) chunks.
  PairRdd<ChunkId, Chunk> chunks_;
};

}  // namespace spangle

#endif  // SPANGLE_OPS_OVERLAP_H_
