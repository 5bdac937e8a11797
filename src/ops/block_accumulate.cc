#include "ops/block_accumulate.h"

#include <algorithm>
#include <limits>

namespace spangle::internal {

Result<ArrayMetadata> RegridMetadata(const ArrayMetadata& in,
                                     const std::vector<uint64_t>& grid) {
  if (grid.size() != in.num_dims()) {
    return Status::InvalidArgument("regrid dimensionality mismatch");
  }
  std::vector<Dimension> out_dims;
  for (size_t d = 0; d < in.num_dims(); ++d) {
    if (grid[d] == 0) return Status::InvalidArgument("regrid block of 0");
    Dimension dim = in.dim(d);
    dim.start = 0;
    dim.size = (dim.size + grid[d] - 1) / grid[d];
    dim.chunk_size =
        std::max<uint64_t>(1, (dim.chunk_size + grid[d] - 1) / grid[d]);
    if (dim.chunk_size > dim.size) dim.chunk_size = dim.size;
    out_dims.push_back(dim);
  }
  return ArrayMetadata::Make(std::move(out_dims));
}

BlockAccumulator::BlockAccumulator(const ArrayMetadata& in,
                                   std::vector<uint64_t> grid,
                                   std::shared_ptr<const Mapper> out,
                                   std::shared_ptr<const AggregateFunction> f)
    : grid_(std::move(grid)),
      out_(std::move(out)),
      f_(std::move(f)),
      slot_of_(grid_.size()),
      first_(grid_.size()),
      slot_stride_(grid_.size()),
      out_pos_(out_->metadata().num_dims()) {
  for (const Dimension& dim : in.dims()) start_.push_back(dim.start);
}

void BlockAccumulator::Walk(
    const Chunk& chunk, const ChunkBox& box,
    const std::function<void(uint64_t key, const AggState&)>& emit) {
  const size_t nd = grid_.size();
  size_t slots = 1;
  for (size_t d = nd; d-- > 0;) {
    if (box.hi[d] <= box.lo[d]) return;
    const int64_t g = grid_[d] == 0 ? std::numeric_limits<int64_t>::max()
                                    : static_cast<int64_t>(grid_[d]);
    first_[d] = (box.lo[d] - start_[d]) / g;
    slot_of_[d].clear();
    for (int64_t p = box.lo[d]; p < box.hi[d]; ++p) {
      slot_of_[d].push_back(
          static_cast<uint32_t>((p - start_[d]) / g - first_[d]));
    }
    slot_stride_[d] = slots;
    slots *= slot_of_[d].back() + 1;
  }
  if (states_.size() < slots) {
    states_.resize(slots);
    touched_.resize(slots, 0);
  }
  const uint32_t* col = slot_of_[nd - 1].data();
  size_t row_slot = 0;
  uint32_t begin = 0;
  box.ForEachValid(
      chunk,
      [&](const std::vector<size_t>& idx, uint32_t row_begin) {
        row_slot = 0;
        for (size_t d = 0; d + 1 < nd; ++d) {
          row_slot += slot_of_[d][idx[d]] * slot_stride_[d];
        }
        begin = row_begin;
      },
      [&](uint32_t off, double v) {
        const size_t s = row_slot + col[off - begin];
        if (!touched_[s]) {
          touched_[s] = 1;
          order_.push_back(static_cast<uint32_t>(s));
          states_[s] = f_->Initialize();
        }
        f_->Accumulate(&states_[s], v);
      });
  for (uint32_t s : order_) {
    emit(KeyOf(s), states_[s]);
    touched_[s] = 0;
  }
  order_.clear();
}

uint64_t BlockAccumulator::KeyOf(size_t slot) {
  for (size_t d = 0, k = 0; d < grid_.size(); ++d) {
    if (grid_[d] == 0) continue;
    const size_t n = slot_of_[d].back() + 1;
    out_pos_[k] = out_->metadata().dim(k).start + first_[d] +
                  static_cast<int64_t>(slot / slot_stride_[d] % n);
    ++k;
  }
  return out_->ChunkIdFromCoords(out_pos_) * out_->cells_per_chunk() +
         out_->LocalOffset(out_pos_);
}

}  // namespace spangle::internal
