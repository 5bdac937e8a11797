#ifndef SPANGLE_ARRAY_CHUNK_H_
#define SPANGLE_ARRAY_CHUNK_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "bitmask/bitmask.h"
#include "bitmask/hierarchical_bitmask.h"
#include "common/logging.h"
#include "common/result.h"

namespace spangle {

/// Chunk management modes (paper Sec. IV-A), chosen by cell density.
enum class ChunkMode {
  kDense,        // full payload, direct indexing
  kSparse,       // invalid cells dropped; bitmask rank locates values
  kSuperSparse,  // sparse payload + two-level hierarchical bitmask
};

const char* ChunkModeName(ChunkMode mode);

/// A non-overlapping block of an array: the unit of distribution. Pairs a
/// *payload* (one-dimensional value array) with a *bitmask* marking which
/// cells are valid (paper Fig. 2).
///
/// * Dense: payload has one slot per cell; payload[i] is cell i.
/// * Sparse: payload holds only valid cells; cell i lives at
///   payload[mask.Rank(i)]. Milestones are built so random access counts
///   at most one milestone gap (Sec. IV-B2).
/// * Super-sparse: like sparse, but the bitmask itself is hierarchical so
///   its all-zero words are physically removed (Sec. IV-A).
class Chunk {
 public:
  Chunk() = default;

  /// All-invalid dense chunk of `num_cells` cells (mutable via Set).
  static Chunk MakeDense(uint32_t num_cells);

  /// Builds a chunk in `mode` from (offset, value) cells. Order does not
  /// matter, but strictly offset-sorted input skips the sort. A repeated
  /// offset keeps its last value in input order, and num_valid() counts
  /// distinct offsets.
  /// Super-sparse chunks build their two-level mask straight from the
  /// sorted offsets, never allocating a num_cells-bit flat mask.
  static Chunk FromCells(uint32_t num_cells,
                         std::vector<std::pair<uint32_t, double>> cells,
                         ChunkMode mode);

  /// Density-driven mode policy: dense above 50% valid; super-sparse when
  /// the flat bitmask would outweigh the payload (valid < cells/64);
  /// sparse in between.
  static ChunkMode ChooseMode(uint32_t num_cells, uint64_t num_valid);

  ChunkMode mode() const { return mode_; }
  uint32_t num_cells() const { return num_cells_; }
  uint64_t num_valid() const { return num_valid_; }
  double density() const {
    return num_cells_ == 0
               ? 0.0
               : static_cast<double>(num_valid_) / num_cells_;
  }

  bool Valid(uint32_t offset) const;

  /// Value of a valid cell (CHECK-fails on invalid); random-access path.
  double Value(uint32_t offset) const;

  /// Value or `def` when the cell is invalid.
  double ValueOr(uint32_t offset, double def) const;

  /// Random access that re-counts the bitmask from the start every time —
  /// the "naive" series of Fig. 8. Sparse/super-sparse only distinction.
  double ValueNaiveOr(uint32_t offset, double def) const;

  /// Mutation; dense chunks only (sparse chunks are immutable, rebuild
  /// with FromCells).
  void Set(uint32_t offset, double value);
  void SetInvalid(uint32_t offset);

  /// Visits every valid cell in offset order: fn(offset, value). Uses the
  /// sequential (delta-count) access pattern — no per-cell rank.
  template <typename Fn>
  void ForEachValid(Fn&& fn) const {
    switch (mode_) {
      case ChunkMode::kDense:
        mask_.ForEachSetBit([&](size_t off) {
          fn(static_cast<uint32_t>(off), payload_[off]);
        });
        break;
      case ChunkMode::kSparse: {
        size_t idx = 0;
        mask_.ForEachSetBit([&](size_t off) {
          fn(static_cast<uint32_t>(off), payload_[idx++]);
        });
        break;
      }
      case ChunkMode::kSuperSparse: {
        size_t idx = 0;
        hmask_.ForEachSetBit([&](size_t off) {
          fn(static_cast<uint32_t>(off), payload_[idx++]);
        });
        break;
      }
    }
  }

  /// The rank cursor of ForEachValidInRange: a DeltaCounter over the
  /// validity mask (its upper level in super-sparse mode).
  DeltaCounter RangeCounter() const {
    return DeltaCounter(mode_ == ChunkMode::kSuperSparse ? hmask_.upper_mask()
                                                         : mask_);
  }

  /// Visits every valid cell in [begin, end) in offset order: fn(offset,
  /// value). Calls sharing one RangeCounter() with non-decreasing `begin`
  /// (the rows of a box) count the payload index by delta and never
  /// re-rank. Ranges are clamped to the chunk; a `begin` behind the cursor
  /// restarts it.
  template <typename Fn>
  void ForEachValidInRange(uint32_t begin, uint32_t end, DeltaCounter* counter,
                           Fn&& fn) const {
    switch (mode_) {
      case ChunkMode::kDense:
        mask_.ForEachSetBitInRange(begin, end, [&](size_t off) {
          fn(static_cast<uint32_t>(off), payload_[off]);
        });
        break;
      case ChunkMode::kSparse: {
        if (begin >= num_cells_) break;
        if (counter->position() > begin) *counter = RangeCounter();
        size_t idx = counter->AdvanceTo(begin);
        mask_.ForEachSetBitInRange(begin, end, [&](size_t off) {
          fn(static_cast<uint32_t>(off), payload_[idx++]);
        });
        break;
      }
      case ChunkMode::kSuperSparse:
        if (counter->position() > begin / Bitmask::kBitsPerWord) {
          *counter = RangeCounter();
        }
        hmask_.ForEachSetBitInRange(begin, end, counter,
                                    [&](size_t off, uint64_t rank) {
          fn(static_cast<uint32_t>(off), payload_[rank]);
        });
        break;
    }
  }

  /// No cell in [from, result) is valid. In super-sparse mode the upper
  /// mask skips whole all-zero words; the other modes return `from`.
  uint32_t SkipInvalidWords(uint32_t from) const {
    return mode_ == ChunkMode::kSuperSparse
               ? static_cast<uint32_t>(hmask_.SkipZeroWords(from))
               : from;
  }

  /// The valid cells as (offset, value) pairs, offset-ascending.
  std::vector<std::pair<uint32_t, double>> ToCells() const;

  /// Same cells re-encoded in `mode`.
  Chunk ConvertTo(ChunkMode mode) const;

  /// Flat copy of the validity mask (materializes the hierarchical mask
  /// in super-sparse mode).
  Bitmask FlatMask() const;

  /// New chunk keeping only cells valid in both this chunk and `keep`
  /// (bitwise-AND reconciliation used by Filter/Subarray/MaskRdd).
  Chunk ApplyMask(const Bitmask& keep) const;

  /// New chunk with every valid value transformed by fn(offset, value).
  template <typename Fn>
  Chunk MapValues(Fn&& fn) const {
    Chunk out = *this;
    if (mode_ == ChunkMode::kDense) {
      out.mask_.ForEachSetBit([&](size_t off) {
        out.payload_[off] =
            fn(static_cast<uint32_t>(off), out.payload_[off]);
      });
    } else {
      size_t idx = 0;
      auto update = [&](size_t off) {
        out.payload_[idx] = fn(static_cast<uint32_t>(off), out.payload_[idx]);
        ++idx;
      };
      if (mode_ == ChunkMode::kSparse) {
        mask_.ForEachSetBit(update);
      } else {
        hmask_.ForEachSetBit(update);
      }
    }
    return out;
  }

  /// Binary encoding (mode + cells) appended to `out`; decode with
  /// FromBytes. Used by disk persistence (Spark's MEMORY_AND_DISK).
  void AppendTo(std::string* out) const;

  /// Decodes one chunk from `data`; advances *consumed past it.
  static Result<Chunk> FromBytes(const char* data, size_t size,
                                 size_t* consumed);

  /// Wire size estimate used by the shuffle-byte accounting.
  size_t SerializedBytes() const;

  /// Total in-memory footprint (Fig. 9a accounting).
  size_t MemoryBytes() const;

  std::string ToString() const;

 private:
  ChunkMode mode_ = ChunkMode::kDense;
  uint32_t num_cells_ = 0;
  uint64_t num_valid_ = 0;
  std::vector<double> payload_;
  Bitmask mask_;                // dense & sparse
  HierarchicalBitmask hmask_;   // super-sparse
};

}  // namespace spangle

#endif  // SPANGLE_ARRAY_CHUNK_H_
