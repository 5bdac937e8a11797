#include "array/mapper.h"

#include <algorithm>

#include "common/logging.h"

namespace spangle {

Mapper::Mapper(const ArrayMetadata& meta) : meta_(meta) {
  const size_t nd = meta_.num_dims();
  grid_.resize(nd);
  chunk_stride_.resize(nd);
  local_stride_.resize(nd);
  // Algorithm 1 accumulates `length` across dimensions in ascending order:
  // chunkID += (pos_i / chunk_i) * length; length *= ceil(size_i / chunk_i).
  uint64_t length = 1;
  for (size_t i = 0; i < nd; ++i) {
    grid_[i] = meta_.chunks_along(i);
    chunk_stride_[i] = length;
    length *= grid_[i];
  }
  // In-chunk offsets are row-major with the *last* dimension fastest.
  uint64_t stride = 1;
  for (size_t i = nd; i-- > 0;) {
    local_stride_[i] = static_cast<uint32_t>(stride);
    stride *= meta_.dim(i).chunk_size;
  }
  cells_per_chunk_ = static_cast<uint32_t>(stride);
}

ChunkId Mapper::ChunkIdFromCoords(const Coords& pos) const {
  SPANGLE_DCHECK(pos.size() == meta_.num_dims());
  ChunkId id = 0;
  for (size_t i = 0; i < pos.size(); ++i) {
    const uint64_t rel =
        static_cast<uint64_t>(pos[i] - meta_.dim(i).start);
    id += (rel / meta_.dim(i).chunk_size) * chunk_stride_[i];
  }
  return id;
}

std::vector<uint64_t> Mapper::ChunkGridCoords(ChunkId id) const {
  std::vector<uint64_t> grid(meta_.num_dims());
  for (size_t i = 0; i < grid.size(); ++i) {
    grid[i] = (id / chunk_stride_[i]) % grid_[i];
  }
  return grid;
}

ChunkId Mapper::ChunkIdFromGrid(const std::vector<uint64_t>& grid) const {
  ChunkId id = 0;
  for (size_t i = 0; i < grid.size(); ++i) id += grid[i] * chunk_stride_[i];
  return id;
}

uint32_t Mapper::LocalOffset(const Coords& pos) const {
  uint32_t offset = 0;
  for (size_t i = 0; i < pos.size(); ++i) {
    const uint64_t rel = static_cast<uint64_t>(pos[i] - meta_.dim(i).start);
    offset += static_cast<uint32_t>(rel % meta_.dim(i).chunk_size) *
              local_stride_[i];
  }
  return offset;
}

Coords Mapper::CoordsFromChunkOffset(ChunkId id, uint32_t offset) const {
  const size_t nd = meta_.num_dims();
  Coords pos(nd);
  for (size_t i = 0; i < nd; ++i) {
    const uint64_t chunk_idx = (id / chunk_stride_[i]) % grid_[i];
    const uint64_t local =
        (offset / local_stride_[i]) % meta_.dim(i).chunk_size;
    pos[i] = meta_.dim(i).start +
             static_cast<int64_t>(chunk_idx * meta_.dim(i).chunk_size + local);
  }
  return pos;
}

int64_t Mapper::ChunkStart(ChunkId id, size_t d) const {
  const uint64_t chunk_idx = (id / chunk_stride_[d]) % grid_[d];
  return meta_.dim(d).start +
         static_cast<int64_t>(chunk_idx * meta_.dim(d).chunk_size);
}

bool Mapper::InBounds(const Coords& pos) const {
  for (size_t i = 0; i < pos.size(); ++i) {
    const int64_t rel = pos[i] - meta_.dim(i).start;
    if (rel < 0 || static_cast<uint64_t>(rel) >= meta_.dim(i).size) {
      return false;
    }
  }
  return true;
}

bool Mapper::OffsetInBounds(ChunkId id, uint32_t offset) const {
  for (size_t i = 0; i < meta_.num_dims(); ++i) {
    const uint64_t chunk_idx = (id / chunk_stride_[i]) % grid_[i];
    const uint64_t local =
        (offset / local_stride_[i]) % meta_.dim(i).chunk_size;
    if (chunk_idx * meta_.dim(i).chunk_size + local >= meta_.dim(i).size) {
      return false;
    }
  }
  return true;
}

std::vector<ChunkId> Mapper::ChunkIdsInRange(const Coords& lo,
                                             const Coords& hi) const {
  const size_t nd = meta_.num_dims();
  SPANGLE_DCHECK(lo.size() == nd && hi.size() == nd);
  // Per-dim chunk index ranges, clamped to the array bounds.
  std::vector<uint64_t> first(nd), last(nd);
  for (size_t i = 0; i < nd; ++i) {
    int64_t lo_rel = lo[i] - meta_.dim(i).start;
    int64_t hi_rel = hi[i] - meta_.dim(i).start;
    if (hi_rel < 0 || lo_rel >= static_cast<int64_t>(meta_.dim(i).size)) {
      return {};
    }
    if (lo_rel < 0) lo_rel = 0;
    if (hi_rel >= static_cast<int64_t>(meta_.dim(i).size)) {
      hi_rel = static_cast<int64_t>(meta_.dim(i).size) - 1;
    }
    first[i] = static_cast<uint64_t>(lo_rel) / meta_.dim(i).chunk_size;
    last[i] = static_cast<uint64_t>(hi_rel) / meta_.dim(i).chunk_size;
  }
  // Enumerate the Cartesian product of chunk-index ranges.
  std::vector<ChunkId> out;
  std::vector<uint64_t> cur = first;
  for (;;) {
    out.push_back(ChunkIdFromGrid(cur));
    size_t d = 0;
    while (d < nd) {
      if (cur[d] < last[d]) {
        ++cur[d];
        for (size_t j = 0; j < d; ++j) cur[j] = first[j];
        break;
      }
      ++d;
    }
    if (d == nd) break;
  }
  return out;
}

ChunkBox ChunkBox::Core(const Mapper& mapper, ChunkId cid) {
  ChunkBox box;
  for (size_t d = 0; d < mapper.metadata().num_dims(); ++d) {
    const Dimension& dim = mapper.metadata().dim(d);
    const int64_t start = mapper.ChunkStart(cid, d);
    box.origin.push_back(start);
    box.ext.push_back(dim.chunk_size);
    box.lo.push_back(start);
    box.hi.push_back(std::min(start + static_cast<int64_t>(dim.chunk_size),
                              dim.start + static_cast<int64_t>(dim.size)));
  }
  return box;
}

uint32_t ChunkBox::RowStart(const std::vector<size_t>& idx) const {
  uint64_t offset = static_cast<uint64_t>(lo.back() - origin.back());
  for (size_t d = ext.size() - 1, stride = 1; d-- > 0;) {
    stride *= ext[d + 1];
    offset += (static_cast<uint64_t>(lo[d] - origin[d]) + idx[d]) * stride;
  }
  return static_cast<uint32_t>(offset);
}

bool ChunkBox::NextRow(std::vector<size_t>* idx) const {
  for (size_t d = ext.size() - 1; d-- > 0;) {
    if (++(*idx)[d] < static_cast<size_t>(hi[d] - lo[d])) return true;
    (*idx)[d] = 0;
  }
  return false;
}

}  // namespace spangle
