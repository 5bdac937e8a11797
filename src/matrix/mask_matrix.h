#ifndef SPANGLE_MATRIX_MASK_MATRIX_H_
#define SPANGLE_MATRIX_MASK_MATRIX_H_

#include <utility>
#include <vector>

#include "array/mapper.h"
#include "bitmask/bitmask.h"
#include "bitmask/hierarchical_bitmask.h"
#include "matrix/block_vector.h"

namespace spangle {

/// One tile of a bitmask-only matrix: either a flat bitmask (sparse mode)
/// or a hierarchical one (super-sparse mode, paper Fig. 11's LiveJournal
/// configuration). No payload at all — a set bit *is* the value 1.
struct MaskTile {
  bool hierarchical = false;
  Bitmask flat;
  HierarchicalBitmask h;

  uint64_t CountAll() const {
    return hierarchical ? h.CountAll() : flat.CountAll();
  }
  template <typename Fn>
  void ForEachSetBit(Fn&& fn) const {
    if (hierarchical) {
      h.ForEachSetBit(std::forward<Fn>(fn));
    } else {
      flat.ForEachSetBit(std::forward<Fn>(fn));
    }
  }
  size_t MemoryBytes() const {
    return hierarchical ? h.SizeBytes() : flat.SizeBytes();
  }
  size_t SerializedBytes() const { return MemoryBytes(); }
};

/// An unweighted square matrix stored purely as bitmasks (paper Sec.
/// VI-B): the adjacency matrix A' in the PageRank decomposition
/// A = A' . diag(w). Each edge costs one bit instead of an eight-byte
/// value, which is what lets the matrix formulation of PageRank compete
/// with graph engines.
class MaskMatrix {
 public:
  MaskMatrix() = default;

  /// Builds an n x n matrix from (row, col) = (dst, src) pairs. The
  /// driver only buckets the edges into per-tile offset lists; each tile
  /// is built by a task from its sorted, de-duplicated offsets, so a lost
  /// tile rebuilds from its list. Mode: each tile independently picks
  /// flat vs hierarchical by density unless `force_hierarchical`. Tiles
  /// are placed by column block, so a vector with `num_partitions` hash-
  /// placed blocks sits next to the tiles that read it.
  static Result<MaskMatrix> FromEdges(
      Context* ctx, uint64_t n, uint64_t block,
      const std::vector<std::pair<uint64_t, uint64_t>>& edges,
      bool force_hierarchical = false, int num_partitions = 0);

  uint64_t n() const { return n_; }
  uint64_t block() const { return block_; }
  uint64_t num_blocks_1d() const { return (n_ + block_ - 1) / block_; }
  Context* ctx() const { return tiles_.ctx(); }
  const PairRdd<ChunkId, MaskTile>& tiles() const { return tiles_; }

  MaskMatrix& Cache(StorageLevel level = StorageLevel::kMemoryOnly) {
    tiles_.Cache(level);
    return *this;
  }

  uint64_t NumEdges() const;
  size_t MemoryBytes() const;

  /// A' . v — every set bit (r, c) contributes v[c] to out[r]. The inner
  /// loop is pure popcount-style bit iteration; no multiplies at all for
  /// the matrix side. Tiles are read in place against the co-placed
  /// vector blocks (a narrow zip); only the row-block partial sums
  /// shuffle. A vector with a different partition count re-places the
  /// tiles first. Same pipeline as BlockMatrix::MultiplyVector.
  Result<BlockVector> MultiplyVector(const BlockVector& v) const;

  /// Out-degree of every column (number of set bits per column), used to
  /// build the PageRank weight vector w.
  std::vector<uint64_t> ColumnDegrees() const;

 private:
  uint64_t n_ = 0;
  uint64_t block_ = 0;
  PairRdd<ChunkId, MaskTile> tiles_;
};

}  // namespace spangle

#endif  // SPANGLE_MATRIX_MASK_MATRIX_H_
