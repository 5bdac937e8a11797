#include "array/chunk.h"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "engine/runtime_profile.h"

namespace spangle {

const char* ChunkModeName(ChunkMode mode) {
  switch (mode) {
    case ChunkMode::kDense:
      return "dense";
    case ChunkMode::kSparse:
      return "sparse";
    case ChunkMode::kSuperSparse:
      return "super-sparse";
  }
  return "?";
}

Chunk Chunk::MakeDense(uint32_t num_cells) {
  Chunk c;
  c.mode_ = ChunkMode::kDense;
  c.num_cells_ = num_cells;
  c.num_valid_ = 0;
  c.payload_.assign(num_cells, 0.0);
  c.mask_ = Bitmask(num_cells);
  return c;
}

Chunk Chunk::FromCells(uint32_t num_cells,
                       std::vector<std::pair<uint32_t, double>> cells,
                       ChunkMode mode) {
  const auto by_offset = [](const auto& a, const auto& b) {
    return a.first < b.first;
  };
  const auto not_before = [](const auto& a, const auto& b) {
    return a.first >= b.first;
  };
  // Strictly increasing offsets (the common case) need neither pass.
  if (std::adjacent_find(cells.begin(), cells.end(), not_before) !=
      cells.end()) {
    if (!std::is_sorted(cells.begin(), cells.end(), by_offset)) {
      std::stable_sort(cells.begin(), cells.end(), by_offset);
    }
    // One cell per offset: the last in input order wins.
    size_t kept = 0;
    for (const auto& cell : cells) {
      if (kept > 0 && cells[kept - 1].first == cell.first) {
        cells[kept - 1].second = cell.second;
      } else {
        cells[kept++] = cell;
      }
    }
    cells.resize(kept);
  }
  Chunk c;
  c.mode_ = mode;
  c.num_cells_ = num_cells;
  c.num_valid_ = cells.size();
  switch (mode) {
    case ChunkMode::kDense: {
      c.payload_.assign(num_cells, 0.0);
      c.mask_ = Bitmask(num_cells);
      for (const auto& [off, v] : cells) {
        SPANGLE_DCHECK(off < num_cells);
        c.payload_[off] = v;
        c.mask_.Set(off);
      }
      break;
    }
    case ChunkMode::kSparse: {
      c.payload_.reserve(cells.size());
      c.mask_ = Bitmask(num_cells);
      for (const auto& [off, v] : cells) {
        SPANGLE_DCHECK(off < num_cells);
        c.payload_.push_back(v);
        c.mask_.Set(off);
      }
      c.mask_.BuildMilestones();
      break;
    }
    case ChunkMode::kSuperSparse: {
      c.payload_.reserve(cells.size());
      for (const auto& [off, v] : cells) {
        SPANGLE_DCHECK(off < num_cells);
        c.payload_.push_back(v);
      }
      c.hmask_ = HierarchicalBitmask::FromSortedBits(
          num_cells, cells.size(),
          [&cells](size_t k) { return cells[k].first; });
      break;
    }
  }
  // RuntimeProfile hook: no-op unless the calling thread is a profiling
  // task (attributes the chunk's mode + density to the running operator).
  prof::RecordChunkBuilt(static_cast<int>(mode), num_cells, c.num_valid_);
  return c;
}

ChunkMode Chunk::ChooseMode(uint32_t num_cells, uint64_t num_valid) {
  if (num_valid * 2 >= num_cells) return ChunkMode::kDense;
  if (num_valid * 64 < num_cells) return ChunkMode::kSuperSparse;
  return ChunkMode::kSparse;
}

bool Chunk::Valid(uint32_t offset) const {
  SPANGLE_DCHECK(offset < num_cells_);
  return mode_ == ChunkMode::kSuperSparse ? hmask_.Test(offset)
                                          : mask_.Test(offset);
}

double Chunk::Value(uint32_t offset) const {
  SPANGLE_CHECK(Valid(offset)) << "cell " << offset << " is null";
  switch (mode_) {
    case ChunkMode::kDense:
      return payload_[offset];
    case ChunkMode::kSparse:
      return payload_[mask_.Rank(offset)];
    case ChunkMode::kSuperSparse:
      return payload_[hmask_.Rank(offset)];
  }
  return 0.0;
}

double Chunk::ValueOr(uint32_t offset, double def) const {
  return Valid(offset) ? Value(offset) : def;
}

double Chunk::ValueNaiveOr(uint32_t offset, double def) const {
  if (!Valid(offset)) return def;
  switch (mode_) {
    case ChunkMode::kDense:
      return payload_[offset];
    case ChunkMode::kSparse:
      return payload_[mask_.RankNaive(offset)];
    case ChunkMode::kSuperSparse:
      return payload_[hmask_.Rank(offset)];
  }
  return def;
}

void Chunk::Set(uint32_t offset, double value) {
  SPANGLE_CHECK(mode_ == ChunkMode::kDense)
      << "Set() requires a dense chunk; rebuild sparse chunks via FromCells";
  SPANGLE_DCHECK(offset < num_cells_);
  if (!mask_.Test(offset)) {
    mask_.Set(offset);
    ++num_valid_;
  }
  payload_[offset] = value;
}

void Chunk::SetInvalid(uint32_t offset) {
  SPANGLE_CHECK(mode_ == ChunkMode::kDense)
      << "SetInvalid() requires a dense chunk";
  if (mask_.Test(offset)) {
    mask_.Clear(offset);
    --num_valid_;
  }
}

std::vector<std::pair<uint32_t, double>> Chunk::ToCells() const {
  std::vector<std::pair<uint32_t, double>> out;
  out.reserve(num_valid_);
  ForEachValid([&](uint32_t off, double v) { out.emplace_back(off, v); });
  return out;
}

Chunk Chunk::ConvertTo(ChunkMode mode) const {
  if (mode == mode_) return *this;
  prof::RecordModeTransition(static_cast<int>(mode_),
                             static_cast<int>(mode));
  return FromCells(num_cells_, ToCells(), mode);
}

Bitmask Chunk::FlatMask() const {
  return mode_ == ChunkMode::kSuperSparse ? hmask_.ToBitmask() : mask_;
}

Chunk Chunk::ApplyMask(const Bitmask& keep) const {
  SPANGLE_CHECK_EQ(keep.num_bits(), num_cells_);
  std::vector<std::pair<uint32_t, double>> kept;
  ForEachValid([&](uint32_t off, double v) {
    if (keep.Test(off)) kept.emplace_back(off, v);
  });
  return FromCells(num_cells_, std::move(kept), mode_);
}

void Chunk::AppendTo(std::string* out) const {
  const uint8_t mode = static_cast<uint8_t>(mode_);
  out->append(reinterpret_cast<const char*>(&mode), 1);
  out->append(reinterpret_cast<const char*>(&num_cells_),
              sizeof(num_cells_));
  const uint64_t n = num_valid_;
  out->append(reinterpret_cast<const char*>(&n), sizeof(n));
  ForEachValid([out](uint32_t off, double v) {
    out->append(reinterpret_cast<const char*>(&off), sizeof(off));
    out->append(reinterpret_cast<const char*>(&v), sizeof(v));
  });
}

Result<Chunk> Chunk::FromBytes(const char* data, size_t size,
                               size_t* consumed) {
  constexpr size_t kHeader = 1 + sizeof(uint32_t) + sizeof(uint64_t);
  if (size < kHeader) return Status::InvalidArgument("truncated chunk");
  size_t pos = 0;
  uint8_t mode_byte;
  std::memcpy(&mode_byte, data + pos, 1);
  pos += 1;
  if (mode_byte > 2) return Status::InvalidArgument("bad chunk mode byte");
  uint32_t num_cells;
  std::memcpy(&num_cells, data + pos, sizeof(num_cells));
  pos += sizeof(num_cells);
  uint64_t n;
  std::memcpy(&n, data + pos, sizeof(n));
  pos += sizeof(n);
  constexpr size_t kCell = sizeof(uint32_t) + sizeof(double);
  if (size - pos < n * kCell) {
    return Status::InvalidArgument("truncated chunk cells");
  }
  std::vector<std::pair<uint32_t, double>> cells;
  cells.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    uint32_t off;
    double v;
    std::memcpy(&off, data + pos, sizeof(off));
    pos += sizeof(off);
    std::memcpy(&v, data + pos, sizeof(v));
    pos += sizeof(v);
    if (off >= num_cells) return Status::InvalidArgument("offset overflow");
    cells.emplace_back(off, v);
  }
  *consumed = pos;
  return FromCells(num_cells, std::move(cells),
                   static_cast<ChunkMode>(mode_byte));
}

size_t Chunk::SerializedBytes() const {
  size_t bytes = sizeof(uint32_t) * 2 + payload_.size() * sizeof(double);
  // The wire format keeps the cheaper validity encoding: the bitmask or a
  // one-dimensional offset array (COO with flattened coordinates), which
  // wins for very sparse chunks — paper Sec. V-A4.
  const size_t offsets_bytes = num_valid_ * sizeof(uint32_t);
  size_t mask_bytes;
  if (mode_ == ChunkMode::kSuperSparse) {
    mask_bytes = hmask_.SizeBytes();
  } else {
    mask_bytes = mask_.num_words() * sizeof(uint64_t);
  }
  return bytes + std::min(mask_bytes, offsets_bytes);
}

size_t Chunk::MemoryBytes() const {
  size_t bytes = sizeof(Chunk) + payload_.capacity() * sizeof(double);
  if (mode_ == ChunkMode::kSuperSparse) {
    bytes += hmask_.SizeBytes();
  } else {
    bytes += mask_.SizeBytes();
  }
  return bytes;
}

std::string Chunk::ToString() const {
  std::ostringstream os;
  os << "Chunk(" << ChunkModeName(mode_) << ", cells=" << num_cells_
     << ", valid=" << num_valid_ << ")";
  return os.str();
}

}  // namespace spangle
