#ifndef SPANGLE_ARRAY_MAPPER_H_
#define SPANGLE_ARRAY_MAPPER_H_

#include <cstdint>
#include <vector>

#include "array/chunk.h"
#include "array/metadata.h"

namespace spangle {

/// Globally unique chunk identifier (paper Sec. III-B): a single value
/// standing in for multi-dimensional chunk-grid coordinates, so key length
/// and lookup cost are independent of dimensionality.
using ChunkId = uint64_t;

/// Logical cell coordinates, one entry per dimension.
using Coords = std::vector<int64_t>;

/// Translates between the logical layout (coordinates) and the physical
/// layout (ChunkId, in-chunk offset) using the array metadata — paper
/// Sec. III-C and Algorithm 1. Strides are precomputed once per array.
class Mapper {
 public:
  explicit Mapper(const ArrayMetadata& meta);

  const ArrayMetadata& metadata() const { return meta_; }

  /// Algorithm 1: ChunkId from cell coordinates.
  ChunkId ChunkIdFromCoords(const Coords& pos) const;

  /// Per-dimension chunk-grid index of a chunk.
  std::vector<uint64_t> ChunkGridCoords(ChunkId id) const;

  /// ChunkId from chunk-grid coordinates (inverse of ChunkGridCoords).
  ChunkId ChunkIdFromGrid(const std::vector<uint64_t>& grid) const;

  /// Row-major offset of a cell within its chunk.
  uint32_t LocalOffset(const Coords& pos) const;

  /// Cell coordinates from (chunk, in-chunk offset); inverse of the pair
  /// (ChunkIdFromCoords, LocalOffset).
  Coords CoordsFromChunkOffset(ChunkId id, uint32_t offset) const;

  /// Logical coordinate where `id`'s chunk begins along dimension d.
  int64_t ChunkStart(ChunkId id, size_t d) const;

  /// True when `pos` lies within the array's logical bounds.
  bool InBounds(const Coords& pos) const;

  /// In-chunk offsets can address cells past the array's edge (edge chunks
  /// are allocated full-size); true when (id, offset) maps to a real cell.
  bool OffsetInBounds(ChunkId id, uint32_t offset) const;

  /// All ChunkIds whose chunks intersect the closed box [lo, hi]
  /// (paper's Subarray uses this to prune chunks before masking).
  std::vector<ChunkId> ChunkIdsInRange(const Coords& lo,
                                       const Coords& hi) const;

  /// Number of cells a full chunk holds.
  uint32_t cells_per_chunk() const { return cells_per_chunk_; }

 private:
  ArrayMetadata meta_;
  std::vector<uint64_t> grid_;          // chunks along each dim
  std::vector<uint64_t> chunk_stride_;  // ChunkId stride per dim (Alg. 1)
  std::vector<uint32_t> local_stride_;  // in-chunk row-major stride per dim
  uint32_t cells_per_chunk_ = 0;
};

/// The global box [lo, hi) of a row-major chunk whose extents are `ext`
/// and whose local cell 0 sits at global `origin`. Rows run along the last
/// dimension; a row is named by its indices into the box along the others.
struct ChunkBox {
  std::vector<int64_t> origin;
  std::vector<uint64_t> ext;
  std::vector<int64_t> lo;
  std::vector<int64_t> hi;

  /// A base chunk's own cells, clipped to the array's edge.
  static ChunkBox Core(const Mapper& mapper, ChunkId cid);
  /// Chunk offset of the first cell of row `idx`.
  uint32_t RowStart(const std::vector<size_t>& idx) const;
  /// Steps `idx` to the next row in row-major order; false after the last.
  bool NextRow(std::vector<size_t>* idx) const;
  /// Cells per row.
  uint32_t width() const {
    return static_cast<uint32_t>(hi.back() - lo.back());
  }

  /// Visits the valid cells of `chunk` inside this box in offset order,
  /// row by row: on_row(idx, begin) ahead of a row's cells, on_cell(offset,
  /// value) per cell. The rows share one DeltaCounter (paper Sec. IV-B).
  /// A row of a super-sparse chunk inside an all-zero stretch of its upper
  /// mask is stepped over without a visit or a range walk.
  template <typename RowFn, typename CellFn>
  void ForEachValid(const Chunk& chunk, RowFn&& on_row,
                    CellFn&& on_cell) const {
    for (size_t d = 0; d < ext.size(); ++d) {
      if (hi[d] <= lo[d]) return;
    }
    std::vector<size_t> idx(ext.size(), 0);
    DeltaCounter counter = chunk.RangeCounter();
    bool more = true;
    do {
      const uint32_t begin = RowStart(idx);
      if (chunk.SkipInvalidWords(begin) >= begin + width()) {
        more = NextRow(&idx);
        continue;
      }
      on_row(idx, begin);
      chunk.ForEachValidInRange(begin, begin + width(), &counter, on_cell);
      more = NextRow(&idx);
    } while (more);
  }
};

}  // namespace spangle

#endif  // SPANGLE_ARRAY_MAPPER_H_
