#include "array/metadata.h"

#include <sstream>

namespace spangle {

Result<ArrayMetadata> ArrayMetadata::Make(std::vector<Dimension> dims) {
  if (dims.empty()) {
    return Status::InvalidArgument("array needs at least one dimension");
  }
  // Chunk offsets are uint32_t, so a chunk must hold fewer than 2^32
  // cells. Both factors stay below 2^32, so the product cannot wrap.
  constexpr uint64_t kMaxCells = uint64_t{1} << 32;
  uint64_t chunk_cells = 1;
  for (const auto& d : dims) {
    if (d.size == 0) {
      return Status::InvalidArgument("dimension '" + d.name + "' has size 0");
    }
    if (d.chunk_size == 0) {
      return Status::InvalidArgument("dimension '" + d.name +
                                     "' has chunk size 0");
    }
    if (d.chunk_size >= kMaxCells || chunk_cells * d.chunk_size >= kMaxCells) {
      return Status::InvalidArgument("chunk has 2^32 or more cells");
    }
    chunk_cells *= d.chunk_size;
  }
  return ArrayMetadata(std::move(dims));
}

uint64_t ArrayMetadata::total_chunks() const {
  uint64_t total = 1;
  for (size_t i = 0; i < dims_.size(); ++i) total *= chunks_along(i);
  return total;
}

uint64_t ArrayMetadata::cells_per_chunk() const {
  uint64_t total = 1;
  for (const auto& d : dims_) total *= d.chunk_size;
  return total;
}

uint64_t ArrayMetadata::total_cells() const {
  uint64_t total = 1;
  for (const auto& d : dims_) total *= d.size;
  return total;
}

Result<size_t> ArrayMetadata::DimIndex(const std::string& name) const {
  for (size_t i = 0; i < dims_.size(); ++i) {
    if (dims_[i].name == name) return i;
  }
  return Status::NotFound("no dimension named '" + name + "'");
}

ArrayMetadata ArrayMetadata::WithChunkSizes(
    const std::vector<uint64_t>& chunk_sizes) const {
  SPANGLE_CHECK_EQ(chunk_sizes.size(), dims_.size());
  std::vector<Dimension> dims = dims_;
  for (size_t i = 0; i < dims.size(); ++i) dims[i].chunk_size = chunk_sizes[i];
  return ArrayMetadata(std::move(dims));
}

ArrayMetadata ArrayMetadata::Transposed() const {
  std::vector<Dimension> dims(dims_.rbegin(), dims_.rend());
  return ArrayMetadata(std::move(dims));
}

std::string ArrayMetadata::ToString() const {
  std::ostringstream os;
  os << "[";
  for (size_t i = 0; i < dims_.size(); ++i) {
    if (i) os << ", ";
    os << dims_[i].name << ":" << dims_[i].start << "+" << dims_[i].size
       << "/" << dims_[i].chunk_size;
    if (dims_[i].overlap) os << "(+" << dims_[i].overlap << ")";
  }
  os << "]";
  return os.str();
}

bool operator==(const ArrayMetadata& a, const ArrayMetadata& b) {
  if (a.dims_.size() != b.dims_.size()) return false;
  for (size_t i = 0; i < a.dims_.size(); ++i) {
    const Dimension& x = a.dims_[i];
    const Dimension& y = b.dims_[i];
    if (x.name != y.name || x.start != y.start || x.size != y.size ||
        x.chunk_size != y.chunk_size || x.overlap != y.overlap) {
      return false;
    }
  }
  return true;
}

}  // namespace spangle
