#include "bitmask/bitmask.h"

#include <algorithm>
#include <cstring>

namespace spangle {

namespace {
constexpr size_t kBits = Bitmask::kBitsPerWord;
inline size_t WordsFor(size_t bits) { return (bits + kBits - 1) / kBits; }
}  // namespace

Bitmask::Bitmask(size_t num_bits)
    : num_bits_(num_bits), words_(WordsFor(num_bits), 0) {}

Bitmask::Bitmask(size_t num_bits, bool value)
    : num_bits_(num_bits),
      words_(WordsFor(num_bits), value ? ~uint64_t{0} : 0) {
  if (value) MaskTailBits();
}

void Bitmask::MaskTailBits() {
  const size_t tail = num_bits_ % kBits;
  if (tail != 0 && !words_.empty()) {
    words_.back() &= (uint64_t{1} << tail) - 1;
  }
}

void Bitmask::SetRange(size_t begin, size_t end) {
  SPANGLE_DCHECK(begin <= end && end <= num_bits_);
  if (begin >= end) return;
  const size_t first_word = begin / kBits;
  const size_t last_word = (end - 1) / kBits;
  const uint64_t first_mask = ~uint64_t{0} << (begin % kBits);
  const uint64_t last_mask =
      (end % kBits == 0) ? ~uint64_t{0} : ((uint64_t{1} << (end % kBits)) - 1);
  if (first_word == last_word) {
    words_[first_word] |= first_mask & last_mask;
  } else {
    words_[first_word] |= first_mask;
    for (size_t w = first_word + 1; w < last_word; ++w) words_[w] = ~uint64_t{0};
    words_[last_word] |= last_mask;
  }
  milestones_.clear();
}

void Bitmask::ClearRange(size_t begin, size_t end) {
  SPANGLE_DCHECK(begin <= end && end <= num_bits_);
  if (begin >= end) return;
  const size_t first_word = begin / kBits;
  const size_t last_word = (end - 1) / kBits;
  const uint64_t first_mask = ~uint64_t{0} << (begin % kBits);
  const uint64_t last_mask =
      (end % kBits == 0) ? ~uint64_t{0} : ((uint64_t{1} << (end % kBits)) - 1);
  if (first_word == last_word) {
    words_[first_word] &= ~(first_mask & last_mask);
  } else {
    words_[first_word] &= ~first_mask;
    for (size_t w = first_word + 1; w < last_word; ++w) words_[w] = 0;
    words_[last_word] &= ~last_mask;
  }
  milestones_.clear();
}

uint64_t Bitmask::CountAll(PopcountKernel kernel) const {
  return CountWords(words_.data(), words_.size(), kernel);
}

uint64_t Bitmask::RankNaive(size_t i) const {
  SPANGLE_DCHECK(i <= num_bits_);
  uint64_t count = 0;
  const size_t full_words = i / kBits;
  for (size_t w = 0; w < full_words; ++w) count += CountWord(words_[w]);
  const size_t tail = i % kBits;
  if (tail != 0) {
    count += CountWord(words_[full_words] & ((uint64_t{1} << tail) - 1));
  }
  return count;
}

uint64_t Bitmask::Rank(size_t i, PopcountKernel kernel) const {
  SPANGLE_DCHECK(i <= num_bits_);
  const size_t full_words = i / kBits;
  uint64_t count = 0;
  size_t start_word = 0;
  if (!milestones_.empty()) {
    const size_t m = full_words / kWordsPerMilestone;
    count = milestones_[m];
    start_word = m * kWordsPerMilestone;
  }
  count += CountWords(words_.data() + start_word, full_words - start_word,
                      kernel);
  const size_t tail = i % kBits;
  if (tail != 0) {
    count += CountWord(words_[full_words] & ((uint64_t{1} << tail) - 1));
  }
  return count;
}

void Bitmask::BuildMilestones() {
  milestones_.clear();
  const size_t n_milestones = words_.size() / kWordsPerMilestone + 1;
  milestones_.reserve(n_milestones);
  uint64_t running = 0;
  for (size_t m = 0; m < n_milestones; ++m) {
    milestones_.push_back(static_cast<uint32_t>(running));
    const size_t begin = m * kWordsPerMilestone;
    const size_t end = std::min(begin + kWordsPerMilestone, words_.size());
    running += CountWords(words_.data() + begin, end - begin);
  }
}

bool Bitmask::AllZero() const {
  for (uint64_t w : words_) {
    if (w != 0) return false;
  }
  return true;
}

bool Bitmask::AllOne() const { return CountAll() == num_bits_; }

void Bitmask::AndWith(const Bitmask& other) {
  SPANGLE_CHECK_EQ(num_bits_, other.num_bits_);
  for (size_t w = 0; w < words_.size(); ++w) words_[w] &= other.words_[w];
  milestones_.clear();
}

void Bitmask::OrWith(const Bitmask& other) {
  SPANGLE_CHECK_EQ(num_bits_, other.num_bits_);
  for (size_t w = 0; w < words_.size(); ++w) words_[w] |= other.words_[w];
  milestones_.clear();
}

void Bitmask::AndNotWith(const Bitmask& other) {
  SPANGLE_CHECK_EQ(num_bits_, other.num_bits_);
  for (size_t w = 0; w < words_.size(); ++w) words_[w] &= ~other.words_[w];
  milestones_.clear();
}

void Bitmask::Invert() {
  for (auto& w : words_) w = ~w;
  MaskTailBits();
  milestones_.clear();
}

size_t Bitmask::SelectSetBit(uint64_t k) const {
  uint64_t remaining = k;
  for (size_t w = 0; w < words_.size(); ++w) {
    const uint64_t c = static_cast<uint64_t>(CountWord(words_[w]));
    if (remaining < c) {
      uint64_t bits = words_[w];
      for (uint64_t j = 0; j < remaining; ++j) bits &= bits - 1;
      return w * kBits + static_cast<size_t>(__builtin_ctzll(bits));
    }
    remaining -= c;
  }
  return num_bits_;
}

std::string Bitmask::ToString(size_t max_bits) const {
  std::string out;
  const size_t n = std::min(max_bits, num_bits_);
  out.reserve(n + 3);
  for (size_t i = 0; i < n; ++i) out.push_back(Test(i) ? '1' : '0');
  if (n < num_bits_) out += "...";
  return out;
}

void Bitmask::AppendTo(std::string* out) const {
  const uint64_t n = num_bits_;
  out->append(reinterpret_cast<const char*>(&n), sizeof(n));
  out->append(reinterpret_cast<const char*>(words_.data()),
              words_.size() * sizeof(uint64_t));
}

Result<Bitmask> Bitmask::FromBytes(const char* data, size_t size,
                                   size_t* consumed) {
  uint64_t n = 0;
  if (size < sizeof(n)) return Status::InvalidArgument("truncated bitmask");
  std::memcpy(&n, data, sizeof(n));
  Bitmask mask(static_cast<size_t>(n));
  const size_t word_bytes = mask.words_.size() * sizeof(uint64_t);
  if (size - sizeof(n) < word_bytes) {
    return Status::InvalidArgument("truncated bitmask words");
  }
  std::memcpy(mask.words_.data(), data + sizeof(n), word_bytes);
  *consumed += sizeof(n) + word_bytes;
  return mask;
}

uint64_t DeltaCounter::AdvanceTo(size_t i) {
  SPANGLE_DCHECK(i >= pos_);
  SPANGLE_DCHECK(i <= mask_->num_bits());
  // Count only the delta [pos_, i): finish the current word, then whole
  // words, then the tail of the target word.
  while (pos_ < i) {
    const size_t word_idx = pos_ / Bitmask::kBitsPerWord;
    const size_t word_begin = word_idx * Bitmask::kBitsPerWord;
    const size_t word_end = word_begin + Bitmask::kBitsPerWord;
    const size_t upto = std::min(i, word_end);
    uint64_t w = mask_->word(word_idx);
    // Keep bits in [pos_ - word_begin, upto - word_begin).
    const size_t lo = pos_ - word_begin;
    const size_t hi = upto - word_begin;
    w >>= lo;
    if (hi - lo < Bitmask::kBitsPerWord) {
      w &= (uint64_t{1} << (hi - lo)) - 1;
    }
    rank_ += static_cast<uint64_t>(CountWord(w));
    pos_ = upto;
  }
  return rank_;
}

}  // namespace spangle
