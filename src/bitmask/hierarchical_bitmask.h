#ifndef SPANGLE_BITMASK_HIERARCHICAL_BITMASK_H_
#define SPANGLE_BITMASK_HIERARCHICAL_BITMASK_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "bitmask/bitmask.h"

namespace spangle {

/// Two-level bitmask for the *Super-Sparse* chunk mode (paper Sec. IV-A).
/// When a chunk holds only a handful of valid cells the flat bitmask itself
/// dominates the chunk size, so the mask is compressed: the upper level has
/// one bit per 64-bit lower word, and all-zero lower words are physically
/// removed. An unset upper bit implies a lower word of all zeros.
class HierarchicalBitmask {
 public:
  HierarchicalBitmask() = default;

  /// Builds the two-level representation from a flat mask.
  static HierarchicalBitmask FromBitmask(const Bitmask& flat);

  /// Builds the structure FromBitmask would produce for the mask whose set
  /// bits are bit_at(0) < bit_at(1) < ... < bit_at(n - 1), all below
  /// `num_bits`, without materializing the flat mask: the cost follows n,
  /// not num_bits.
  template <typename BitAt>
  static HierarchicalBitmask FromSortedBits(size_t num_bits, size_t n,
                                            BitAt&& bit_at) {
    constexpr size_t kBits = Bitmask::kBitsPerWord;
    HierarchicalBitmask out;
    out.num_bits_ = num_bits;
    const size_t words = (num_bits + kBits - 1) / kBits;
    out.upper_ = Bitmask(words);
    out.lower_.reserve(std::min(n, words));
    out.lower_prefix_.reserve(std::min(n, words));
    uint32_t running = 0;
    size_t k = 0;
    while (k < n) {
      const size_t w = static_cast<size_t>(bit_at(k)) / kBits;
      uint64_t word = 0;
      for (; k < n && static_cast<size_t>(bit_at(k)) / kBits == w; ++k) {
        word |= uint64_t{1} << (static_cast<size_t>(bit_at(k)) % kBits);
      }
      out.upper_.Set(w);
      out.lower_.push_back(word);
      out.lower_prefix_.push_back(running);
      running += static_cast<uint32_t>(CountWord(word));
    }
    out.upper_.BuildMilestones();
    return out;
  }

  /// Expands back into a flat mask.
  Bitmask ToBitmask() const;

  size_t num_bits() const { return num_bits_; }

  bool Test(size_t i) const;

  /// Number of set bits in [0, i) — the payload index of cell i.
  uint64_t Rank(size_t i) const;

  /// Total set bits.
  uint64_t CountAll() const;

  /// Position of the k-th (0-based) set bit, or num_bits() if out of range.
  size_t SelectSetBit(uint64_t k) const;

  /// Calls fn(bit_index) for every set bit, in increasing order.
  template <typename Fn>
  void ForEachSetBit(Fn&& fn) const {
    size_t stored = 0;
    upper_.ForEachSetBit([&](size_t upper_idx) {
      const uint64_t base = upper_idx * Bitmask::kBitsPerWord;
      uint64_t bits = lower_[stored++];
      while (bits != 0) {
        const int tz = __builtin_ctzll(bits);
        fn(base + static_cast<size_t>(tz));
        bits &= bits - 1;
      }
    });
  }

  /// Calls fn(bit_index, rank) for every set bit in [begin, end), in
  /// increasing order; rank is the bit's payload index. `upper` is a
  /// DeltaCounter over upper_mask(): calls with non-decreasing `begin` share
  /// it, so the stored-word index comes from the delta count. All-zero
  /// lower words are skipped through the upper mask.
  template <typename Fn>
  void ForEachSetBitInRange(size_t begin, size_t end, DeltaCounter* upper,
                            Fn&& fn) const {
    constexpr size_t kBits = Bitmask::kBitsPerWord;
    size_t stored = SIZE_MAX;  // index in lower_ of upper word w
    upper_.ForEachSetBitInRange(begin / kBits, (end + kBits - 1) / kBits,
                                [&](size_t w) {
      stored = stored == SIZE_MAX ? upper->AdvanceTo(w) : stored + 1;
      const size_t base = w * kBits;
      uint64_t rank = lower_prefix_[stored];
      for (uint64_t bits = lower_[stored]; bits != 0; bits &= bits - 1) {
        const size_t bit = base + static_cast<size_t>(__builtin_ctzll(bits));
        if (bit >= end) break;
        if (bit >= begin) fn(bit, rank);
        ++rank;
      }
    });
  }

  /// The start of the first non-zero lower word at or after bit `from`
  /// (`from` itself when its own word is non-zero), or num_bits(): no bit
  /// in [from, result) is set. Reads only the upper mask.
  size_t SkipZeroWords(size_t from) const {
    constexpr size_t kBits = Bitmask::kBitsPerWord;
    if (from >= num_bits_) return num_bits_;
    const size_t w = from / kBits;
    size_t u = w / kBits;
    uint64_t bits = upper_.word(u) & (~uint64_t{0} << (w % kBits));
    while (bits == 0) {
      if (++u == upper_.num_words()) return num_bits_;
      bits = upper_.word(u);
    }
    const size_t next = u * kBits + static_cast<size_t>(__builtin_ctzll(bits));
    return next == w ? from : next * kBits;
  }

  /// One bit per 64-bit lower word; set where that word has a set bit.
  const Bitmask& upper_mask() const { return upper_; }

  /// In-memory footprint: upper mask + surviving lower words + prefix ranks.
  size_t SizeBytes() const {
    return upper_.SizeBytes() + lower_.size() * sizeof(uint64_t) +
           lower_prefix_.size() * sizeof(uint32_t);
  }

  size_t num_lower_words() const { return lower_.size(); }

 private:
  size_t num_bits_ = 0;
  Bitmask upper_;                       // one bit per lower word
  std::vector<uint64_t> lower_;         // only non-zero words, in order
  std::vector<uint32_t> lower_prefix_;  // prefix popcounts of lower_
};

}  // namespace spangle

#endif  // SPANGLE_BITMASK_HIERARCHICAL_BITMASK_H_
