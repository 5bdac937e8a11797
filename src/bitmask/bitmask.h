#ifndef SPANGLE_BITMASK_BITMASK_H_
#define SPANGLE_BITMASK_BITMASK_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "bitmask/popcount.h"
#include "common/logging.h"
#include "common/result.h"

namespace spangle {

/// Validity bitmask for one chunk (paper Sec. II-B, IV). One bit per cell:
/// 1 = valid value, 0 = null/no-data. Independent of the cell's data type
/// and only one bit of overhead per cell, unlike NaN- or sentinel-based
/// null encodings.
///
/// Supports the two access patterns of Sec. IV-B:
///  * sequential scans use DeltaCounter (running rank, no re-counting), and
///  * random access uses Rank(), accelerated by per-64-word *milestones*
///    (prefix population counts) once BuildMilestones() has been called.
class Bitmask {
 public:
  static constexpr size_t kBitsPerWord = 64;
  /// Milestone granularity: the paper places milestones every 64 words
  /// (4096 bits), matching the block size of the AVX2 popcount kernel.
  static constexpr size_t kWordsPerMilestone = 64;

  Bitmask() = default;
  /// All-zero mask over `num_bits` cells.
  explicit Bitmask(size_t num_bits);
  /// Constant mask over `num_bits` cells.
  Bitmask(size_t num_bits, bool value);

  size_t num_bits() const { return num_bits_; }
  size_t num_words() const { return words_.size(); }
  const std::vector<uint64_t>& words() const { return words_; }
  uint64_t word(size_t i) const { return words_[i]; }

  bool Test(size_t i) const {
    SPANGLE_DCHECK(i < num_bits_);
    return (words_[i / kBitsPerWord] >> (i % kBitsPerWord)) & 1u;
  }
  void Set(size_t i) {
    SPANGLE_DCHECK(i < num_bits_);
    words_[i / kBitsPerWord] |= uint64_t{1} << (i % kBitsPerWord);
    milestones_.clear();
  }
  void Clear(size_t i) {
    SPANGLE_DCHECK(i < num_bits_);
    words_[i / kBitsPerWord] &= ~(uint64_t{1} << (i % kBitsPerWord));
    milestones_.clear();
  }

  /// Sets bits [begin, end).
  void SetRange(size_t begin, size_t end);
  /// Clears bits [begin, end).
  void ClearRange(size_t begin, size_t end);

  /// Total number of set bits (population count of the whole mask).
  uint64_t CountAll(PopcountKernel kernel = PopcountKernel::kAuto) const;

  /// Number of set bits in [0, i). This is the sparse-mode payload index of
  /// cell i (paper Sec. IV-A): valid cells are stored compacted, so the
  /// i-th cell's value lives at payload[Rank(i)]. Uses milestones when
  /// present, otherwise counts from the start ("naive" in Fig. 8).
  uint64_t Rank(size_t i, PopcountKernel kernel = PopcountKernel::kAuto) const;

  /// Naive rank: always counts from word 0 (Fig. 8 "naive" series).
  uint64_t RankNaive(size_t i) const;

  /// Precomputes prefix counts every kWordsPerMilestone words so Rank() is
  /// O(milestone gap) instead of O(i). Invalidated by any mutation.
  void BuildMilestones();
  bool has_milestones() const { return !milestones_.empty(); }

  /// True when no bit is set.
  bool AllZero() const;
  /// True when every bit is set.
  bool AllOne() const;

  /// Word-wise logical ops; both operands must have equal bit counts.
  void AndWith(const Bitmask& other);
  void OrWith(const Bitmask& other);
  void AndNotWith(const Bitmask& other);  // this &= ~other
  void Invert();

  /// Position of the k-th (0-based) set bit, or num_bits() if out of range.
  size_t SelectSetBit(uint64_t k) const;

  /// Calls fn(bit_index) for every set bit, in increasing order.
  template <typename Fn>
  void ForEachSetBit(Fn&& fn) const {
    for (size_t w = 0; w < words_.size(); ++w) {
      uint64_t bits = words_[w];
      while (bits != 0) {
        const int tz = __builtin_ctzll(bits);
        fn(w * kBitsPerWord + static_cast<size_t>(tz));
        bits &= bits - 1;
      }
    }
  }

  /// Calls fn(bit_index) for every set bit in [begin, end), in increasing
  /// order; `end` is clamped to num_bits().
  template <typename Fn>
  void ForEachSetBitInRange(size_t begin, size_t end, Fn&& fn) const {
    end = std::min(end, num_bits_);
    if (begin >= end) return;
    const size_t first = begin / kBitsPerWord;
    const size_t last = (end - 1) / kBitsPerWord;
    for (size_t w = first; w <= last; ++w) {
      uint64_t bits = words_[w];
      if (w == first) bits &= ~uint64_t{0} << (begin % kBitsPerWord);
      if (w == last) bits &= ~uint64_t{0} >> (63 - (end - 1) % kBitsPerWord);
      while (bits != 0) {
        fn(w * kBitsPerWord + static_cast<size_t>(__builtin_ctzll(bits)));
        bits &= bits - 1;
      }
    }
  }

  /// Binary encoding (bit count + raw words) appended to `out`; decode
  /// with FromBytes. Used by the engine's spill codec (MEMORY_AND_DISK
  /// storage for MaskRdd partitions).
  void AppendTo(std::string* out) const;

  /// Decodes one mask from `data`; adds the bytes read to *consumed.
  static Result<Bitmask> FromBytes(const char* data, size_t size,
                                   size_t* consumed);

  /// Wire size estimate (engine shuffle accounting).
  size_t SerializedBytes() const {
    return words_.size() * sizeof(uint64_t);
  }

  /// In-memory footprint (words + milestones), for Fig. 9a accounting.
  size_t SizeBytes() const {
    return words_.size() * sizeof(uint64_t) +
           milestones_.size() * sizeof(uint32_t);
  }

  /// Debug rendering, e.g. "10110...".
  std::string ToString(size_t max_bits = 64) const;

  friend bool operator==(const Bitmask& a, const Bitmask& b) {
    return a.num_bits_ == b.num_bits_ && a.words_ == b.words_;
  }

 private:
  void MaskTailBits();

  size_t num_bits_ = 0;
  std::vector<uint64_t> words_;
  // milestones_[m] = popcount of words [0, m * kWordsPerMilestone).
  std::vector<uint32_t> milestones_;
};

/// Sequential-access rank tracker (paper Sec. IV-B1, "delta count").
/// Operators that scan a chunk in order (Filter, Aggregator) advance this
/// counter monotonically; each step counts only the bits between the
/// previous and current position instead of re-counting from zero.
class DeltaCounter {
 public:
  explicit DeltaCounter(const Bitmask& mask) : mask_(&mask) {}

  /// Rank of `i` (set bits in [0, i)); `i` must be >= the previous call's
  /// position. Also returns whether bit i itself is set via Test().
  uint64_t AdvanceTo(size_t i);

  /// Current position (next unprocessed bit).
  size_t position() const { return pos_; }
  uint64_t rank() const { return rank_; }

 private:
  const Bitmask* mask_;
  size_t pos_ = 0;       // bits [0, pos_) already counted
  uint64_t rank_ = 0;    // set bits in [0, pos_)
};

}  // namespace spangle

#endif  // SPANGLE_BITMASK_BITMASK_H_
