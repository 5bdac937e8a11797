#ifndef SPANGLE_ARRAY_METADATA_H_
#define SPANGLE_ARRAY_METADATA_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace spangle {

/// One array dimension: a named, regularly discretized axis.
struct Dimension {
  std::string name;
  int64_t start = 0;       // logical coordinate of the first cell
  uint64_t size = 0;       // number of cells along this axis
  uint64_t chunk_size = 0; // cells per chunk along this axis
  uint64_t overlap = 0;    // ghost cells carried past each chunk boundary
};

/// Array specification (paper Sec. III-C): the driver-side description a
/// Mapper uses to translate between the logical layout (coordinates) and
/// the physical layout (ChunkId + in-chunk offset). Attribute payloads are
/// stored column-wise, one ArrayRdd per attribute.
class ArrayMetadata {
 public:
  ArrayMetadata() = default;
  explicit ArrayMetadata(std::vector<Dimension> dims)
      : dims_(std::move(dims)) {}

  /// Validates and constructs; fails on zero sizes or chunk >= 2^32 cells.
  static Result<ArrayMetadata> Make(std::vector<Dimension> dims);

  size_t num_dims() const { return dims_.size(); }
  const Dimension& dim(size_t i) const { return dims_[i]; }
  const std::vector<Dimension>& dims() const { return dims_; }

  /// Chunk count along dimension i: ceil(size / chunk_size).
  uint64_t chunks_along(size_t i) const {
    return (dims_[i].size + dims_[i].chunk_size - 1) / dims_[i].chunk_size;
  }

  /// Total number of chunk grid positions.
  uint64_t total_chunks() const;

  /// Cells per (full) chunk: product of chunk sizes.
  uint64_t cells_per_chunk() const;

  /// Total logical cells: product of dimension sizes.
  uint64_t total_cells() const;

  /// Index of the dimension named `name`, or error.
  Result<size_t> DimIndex(const std::string& name) const;

  /// Same dims with the chunk grid replaced.
  ArrayMetadata WithChunkSizes(const std::vector<uint64_t>& chunk_sizes) const;

  /// 2-D transpose of the metadata: dims reversed. This is the *metadata
  /// transpose* behind SGD's opt2 (paper Sec. VI-C): a 1xN vector becomes
  /// Nx1 by swapping the description only, never touching the payload.
  ArrayMetadata Transposed() const;

  std::string ToString() const;

  friend bool operator==(const ArrayMetadata& a, const ArrayMetadata& b);

 private:
  std::vector<Dimension> dims_;
};

}  // namespace spangle

#endif  // SPANGLE_ARRAY_METADATA_H_
