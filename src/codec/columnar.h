#ifndef SPANGLE_CODEC_COLUMNAR_H_
#define SPANGLE_CODEC_COLUMNAR_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "codec/chunk_frame.h"
#include "codec/record_codec.h"
#include "codec/varint.h"
#include "common/logging.h"
#include "common/result.h"

namespace spangle {
namespace codec {

/// Columnar partition codec: encodes a std::vector<T> partition as one
/// chunk frame (chunk_frame.h) of contiguous slabs instead of the old
/// record-at-a-time stream. The split per record type:
///
///   pair<K integral, V>   keys section (zigzag-delta varints, or raw
///                         when the data defeats the compression) plus
///                         a value slab for the V column
///   integral T            one varint-delta (or raw) column
///   trivially-copyable T  value slab: zero-suppressed — a bitpacked
///                         presence bitmask plus only the not-all-zero
///                         elements — or raw when the data is dense
///                         enough that suppression would grow it
///   everything else       kRecords fallback: record codec back to back
///
/// Every encoding choice is made per partition from the actual bytes, so
/// the frame is never larger than (slab overhead aside) the raw slab,
/// and decode is driven by the self-describing section table. Roundtrips
/// are bit-exact for all kSpillable types: zero-suppression compares raw
/// bytes (so -0.0, denormals, and padding survive), and key deltas use
/// wraparound arithmetic (any signed/unsigned key pattern survives).

/// One encoded partition. `content_hash` is the frame's content address
/// (see chunk_frame.h); `raw_bytes` is what a uint32 record count plus
/// the records in the record codec back to back would occupy, for
/// compression accounting (codec_bytes_raw vs codec_bytes_encoded).
struct EncodedFrame {
  std::string bytes;
  uint64_t content_hash = 0;
  uint64_t raw_bytes = 0;
};

namespace columnar_detail {

template <typename K>
inline constexpr bool kVarintKey =
    std::is_integral_v<K> && !std::is_same_v<K, bool> && sizeof(K) <= 8;

template <typename T>
struct KeyColumnTrait : std::false_type {};
template <typename K, typename V>
struct KeyColumnTrait<std::pair<K, V>>
    : std::bool_constant<kVarintKey<K>> {};

/// Pairs whose key gets its own varint column; the value column is
/// encoded by the element rules below.
template <typename T>
inline constexpr bool kHasKeyColumn = KeyColumnTrait<T>::value;

template <typename K>
uint64_t WidenKey(K k) {
  // Sign-extend signed keys so small negatives stay small after zigzag;
  // decoders re-widen the truncated key the same way, keeping encoder
  // and decoder delta baselines identical for every bit pattern.
  if constexpr (std::is_signed_v<K>) {
    return static_cast<uint64_t>(static_cast<int64_t>(k));
  } else {
    return static_cast<uint64_t>(k);
  }
}

template <typename E>
bool IsAllZeroBytes(const E& e) {
  // memcmp against a zeroed image: compilers lower the fixed-size compare
  // to a couple of wide loads, which the per-byte loop this replaces
  // defeated (the encoder scans every element with this predicate).
  static constexpr unsigned char kZeros[sizeof(E)] = {};
  return std::memcmp(&e, kZeros, sizeof(E)) == 0;
}

/// Whether the key column is written as zigzag-delta varints: only when
/// they come out strictly smaller than the raw column (raw wins ties; an
/// empty column counts as varint). Decided by counting varint sizes, no
/// byte written, and the count stops as soon as the answer is certain —
/// once it reaches the raw size, or once even maximal varints for every
/// remaining key would stay below it — so the chosen encoding is then
/// written once, straight into the frame.
template <typename K, typename GetKey>
bool KeysFitVarint(size_t n, const GetKey& get) {
  const size_t raw_bytes = n * sizeof(K);
  size_t varint_bytes = 0;
  uint64_t prev = 0;
  for (size_t i = 0; i < n; ++i) {
    if (varint_bytes >= raw_bytes) return false;
    if (varint_bytes + (n - i) * kMaxVarintBytes < raw_bytes) return true;
    const uint64_t cur = WidenKey<K>(get(i));
    varint_bytes += VarintSize(ZigZag(static_cast<int64_t>(cur - prev)));
    prev = cur;
  }
  return n == 0 || varint_bytes < raw_bytes;
}

template <typename K, typename GetKey>
void WriteKeySection(FrameBuilder* b, size_t n, const GetKey& get,
                     bool varint) {
  b->BeginSection(SectionKind::kKeys, varint ? SectionEncoding::kVarintDelta
                                             : SectionEncoding::kRaw);
  std::string* out = b->buffer();
  const size_t at = out->size();
  // Varints were found to fit below the raw size, so raw bounds both.
  out->resize(at + n * sizeof(K));
  char* p = out->data() + at;
  if (varint) {
    uint64_t prev = 0;
    for (size_t i = 0; i < n; ++i) {
      const uint64_t cur = WidenKey<K>(get(i));
      uint64_t zz = ZigZag(static_cast<int64_t>(cur - prev));
      prev = cur;
      while (zz >= 0x80) {
        *p++ = static_cast<char>((zz & 0x7F) | 0x80);
        zz >>= 7;
      }
      *p++ = static_cast<char>(zz);
    }
    out->resize(static_cast<size_t>(p - out->data()));
  } else {
    for (size_t i = 0; i < n; ++i) {
      const K k = get(i);
      std::memcpy(p, &k, sizeof(K));
      p += sizeof(K);
    }
  }
  b->EndSection();
}

/// Whether a trivially-copyable column is zero-suppressed (a bitpacked
/// presence mask plus only the not-all-zero elements): only when that
/// beats the raw slab, i.e. when the all-zero elements outweigh the
/// mask. Decided by a read-only count that stops once enough zeros are
/// seen, so the mask and the compacted values are built only when
/// suppression wins.
template <typename E, typename GetVal>
bool ZeroSuppressionWins(size_t n, const GetVal& get) {
  const size_t mask_bytes = (n + 7) / 8;
  size_t zero_bytes = 0;
  for (size_t i = 0; i < n && zero_bytes <= mask_bytes; ++i) {
    zero_bytes += IsAllZeroBytes<E>(get(i)) ? sizeof(E) : 0;
  }
  return zero_bytes > mask_bytes;
}

/// Writes the column as chosen, straight into the frame. The
/// zero-suppressed build is ONE branchless scan: it sets the presence
/// bit and stores every element unconditionally, advancing the write
/// pointer only past the nonzero ones (a per-element branch would be
/// mispredicted ~2·density·n times at mid densities).
template <typename E, typename GetVal>
void WriteValueSections(FrameBuilder* b, size_t n, const GetVal& get,
                        bool zero_suppress) {
  std::string* out = b->buffer();
  if (!zero_suppress) {
    b->BeginSection(SectionKind::kValues, SectionEncoding::kRaw);
    const size_t at = out->size();
    out->resize(at + n * sizeof(E));
    char* p = out->data() + at;
    for (size_t i = 0; i < n; ++i) {
      const E& e = get(i);
      std::memcpy(p, &e, sizeof(E));
      p += sizeof(E);
    }
    b->EndSection();
    return;
  }
  b->BeginSection(SectionKind::kPresence, SectionEncoding::kBitpacked);
  const size_t mask_at = out->size();
  out->resize(mask_at + (n + 7) / 8);
  b->EndSection();
  b->BeginSection(SectionKind::kValues, SectionEncoding::kZeroSuppressed);
  const size_t values_at = out->size();
  // Room for every element plus one: the scan's last unconditional store
  // may land just past the compacted values.
  out->resize(values_at + (n + 1) * sizeof(E));
  char* m = out->data() + mask_at;
  char* v = out->data() + values_at;
  for (size_t i = 0; i < n; ++i) {
    const E& e = get(i);
    const unsigned nz = IsAllZeroBytes<E>(e) ? 0u : 1u;
    m[i / 8] |= static_cast<char>(nz << (i % 8));
    std::memcpy(v, &e, sizeof(E));
    v += nz * sizeof(E);
  }
  out->resize(static_cast<size_t>(v - out->data()));
  b->EndSection();
}

/// Records decoded per block. Columns are expanded a block at a time
/// and every record is then written whole, in one pass: writing the key
/// column into the records and then the value column would store to
/// each record twice. A multiple of 64, so a block is whole mask words.
inline constexpr size_t kDecodeBlock = 256;

/// Presence bits [base, base + 64) of a mask covering n records, as one
/// little-endian word with the bits at and past n cleared.
inline uint64_t MaskWord(const char* mask, size_t n, size_t base) {
  uint64_t word = 0;
  const size_t mask_bytes = (n + 7) / 8;
  std::memcpy(&word, mask + base / 8,
              std::min<size_t>(8, mask_bytes - base / 8));
  const size_t len = n - base;
  return len >= 64 ? word : word & ((uint64_t{1} << len) - 1);
}

/// Reads a key column block by block: Next() yields keys [begin, end)
/// as contiguous sizeof(K)-byte elements, in place for a raw column and
/// expanded into a block buffer for a varint one. Blocks must be asked
/// for in order.
template <typename K>
class KeyColumn {
 public:
  // spangle-lint: untrusted — validates a wire section before any read.
  Status Init(const SectionDesc& desc, const char* data, size_t n) {
    if (desc.kind != SectionKind::kKeys) {
      return Status::InvalidArgument("expected a keys section");
    }
    data_ = data;
    bytes_ = desc.bytes;
    varint_ = desc.encoding == SectionEncoding::kVarintDelta;
    if (varint_) {
      // Every key takes at least one byte: a record count the section
      // cannot hold is rejected before the records are allocated.
      if (n > desc.bytes) {
        return Status::InvalidArgument("truncated key varint");
      }
      block_.resize(std::min(n, kDecodeBlock) * sizeof(K));
      return Status::OK();
    }
    if (desc.encoding != SectionEncoding::kRaw ||
        desc.bytes != n * sizeof(K)) {
      return Status::InvalidArgument("malformed raw key section");
    }
    return Status::OK();
  }

  // spangle-lint: untrusted — decodes wire varints, bounds-checked.
  Status Next(size_t begin, size_t end, const char** out) {
    if (!varint_) {
      *out = data_ + begin * sizeof(K);
      return Status::OK();
    }
    char* dst = block_.data();
    for (size_t i = begin; i < end; ++i, dst += sizeof(K)) {
      uint64_t zz = 0;
      // Small deltas (the common case by construction) are one byte.
      if (used_ < bytes_ && static_cast<unsigned char>(data_[used_]) < 0x80) {
        zz = static_cast<unsigned char>(data_[used_]);
        ++used_;
      } else if (!GetVarint(data_ + used_, bytes_ - used_, &zz, &used_)) {
        return Status::InvalidArgument("truncated key varint");
      }
      prev_ += static_cast<uint64_t>(UnZigZag(zz));
      const K k = static_cast<K>(prev_);
      std::memcpy(dst, &k, sizeof(K));
      prev_ = WidenKey<K>(k);
    }
    *out = block_.data();
    return Status::OK();
  }

  /// After the last block: a varint column must be used up exactly.
  // spangle-lint: untrusted
  Status Finish() const {
    if (varint_ && used_ != bytes_) {
      return Status::InvalidArgument("trailing bytes in key section");
    }
    return Status::OK();
  }

 private:
  const char* data_ = nullptr;
  size_t bytes_ = 0;
  bool varint_ = false;
  size_t used_ = 0;
  uint64_t prev_ = 0;
  std::string block_;
};

/// Reads a trivially-copyable column block by block, like KeyColumn: in
/// place when raw; a zero-suppressed column is expanded a mask word (64
/// records) at a time. Init checks that the mask accounts for the values
/// exactly, so Next never fails.
template <typename E>
class ValueColumn {
 public:
  /// Takes the column starting at section *s of `view`; advances *s past
  /// its section(s).
  // spangle-lint: untrusted — validates wire sections before any read.
  Status Init(const FrameView& view, int* s, size_t n) {
    if (*s >= view.num_sections()) {
      return Status::InvalidArgument("missing value section");
    }
    const SectionDesc& first = view.section(*s);
    n_ = n;
    if (first.kind != SectionKind::kPresence) {
      if (first.kind != SectionKind::kValues ||
          first.encoding != SectionEncoding::kRaw ||
          first.bytes != n * sizeof(E)) {
        return Status::InvalidArgument("malformed raw value section");
      }
      data_ = view.section_data(*s);
      ++*s;
      return Status::OK();
    }
    if (first.encoding != SectionEncoding::kBitpacked ||
        first.bytes != (n + 7) / 8) {
      return Status::InvalidArgument("malformed presence section");
    }
    mask_ = view.section_data(*s);
    ++*s;
    if (*s >= view.num_sections()) {
      return Status::InvalidArgument("presence section without values");
    }
    const SectionDesc& vals = view.section(*s);
    if (vals.kind != SectionKind::kValues ||
        vals.encoding != SectionEncoding::kZeroSuppressed) {
      return Status::InvalidArgument("expected zero-suppressed values");
    }
    size_t present = 0;
    for (size_t base = 0; base < n; base += 64) {
      present += static_cast<size_t>(std::popcount(MaskWord(mask_, n, base)));
    }
    if (vals.bytes / sizeof(E) < present) {
      return Status::InvalidArgument("zero-suppressed values truncated");
    }
    if (vals.bytes != present * sizeof(E)) {
      return Status::InvalidArgument("trailing zero-suppressed values");
    }
    data_ = view.section_data(*s);
    ++*s;
    block_.resize(std::min(n, kDecodeBlock) * sizeof(E));
    return Status::OK();
  }

  /// Values [begin, end) as contiguous sizeof(E)-byte elements; `begin`
  /// is a multiple of 64.
  const char* Next(size_t begin, size_t end) {
    if (mask_ == nullptr) return data_ + begin * sizeof(E);
    // An absent value decodes to all-zero bytes, exactly what the
    // encoder's byte-level zero test saw; the present ones are then
    // copied over the zeros, a run for a full mask word, else one set
    // bit at a time.
    char* const block = block_.data();
    std::memset(block, 0, (end - begin) * sizeof(E));
    for (size_t base = begin; base < end; base += 64) {
      uint64_t word = MaskWord(mask_, n_, base);
      char* const dst = block + (base - begin) * sizeof(E);
      if (word == ~uint64_t{0}) {
        std::memcpy(dst, data_, 64 * sizeof(E));
        data_ += 64 * sizeof(E);
        continue;
      }
      for (; word != 0; word &= word - 1) {
        const int j = std::countr_zero(word);
        std::memcpy(dst + static_cast<size_t>(j) * sizeof(E), data_,
                    sizeof(E));
        data_ += sizeof(E);
      }
    }
    return block;
  }

 private:
  const char* data_ = nullptr;  // raw slab, or the next present value
  const char* mask_ = nullptr;  // null for a raw column
  size_t n_ = 0;
  std::string block_;
};

template <typename E, typename GetVal>
void WriteRecordSection(FrameBuilder* b, size_t n, const GetVal& get) {
  b->BeginSection(SectionKind::kRecords, SectionEncoding::kRaw);
  for (size_t i = 0; i < n; ++i) Encode(get(i), b->buffer());
  b->EndSection();
}

template <typename E, typename PutVal>
Status DecodeRecordSection(const FrameView& view, int* s, size_t n,
                           const PutVal& put) {
  if (*s >= view.num_sections()) {
    return Status::InvalidArgument("missing records section");
  }
  const SectionDesc& desc = view.section(*s);
  if (desc.kind != SectionKind::kRecords ||
      desc.encoding != SectionEncoding::kRaw) {
    return Status::InvalidArgument("expected a records section");
  }
  // The content hash was verified before any record is walked, so the
  // record codec's trusted CHECKs cannot fire on wire corruption — only
  // on a genuine encoder bug.
  const char* data = view.section_data(*s);
  size_t used = 0;
  for (size_t i = 0; i < n; ++i) {
    put(i, Decode<E>(data + used, desc.bytes - used, &used));
  }
  if (used != desc.bytes) {
    return Status::InvalidArgument("trailing bytes in records section");
  }
  ++*s;
  return Status::OK();
}

}  // namespace columnar_detail

/// Encodes one partition into a columnar chunk frame. Each column's
/// encoding is chosen by a read-only scan first, then written once,
/// straight into the frame.
template <typename T>
EncodedFrame EncodePartitionFrame(const std::vector<T>& records) {
  namespace cd = columnar_detail;
  static_assert(kSpillable<T>, "record type has no spill codec");
  SPANGLE_CHECK_LE(records.size(),
                   static_cast<size_t>(std::numeric_limits<uint32_t>::max()));
  const size_t n = records.size();
  const auto count = static_cast<uint32_t>(n);
  EncodedFrame out;
  if constexpr (cd::kHasKeyColumn<T>) {
    using K = typename T::first_type;
    using V = typename T::second_type;
    const auto key_at = [&](size_t i) { return records[i].first; };
    const auto val_at = [&](size_t i) -> const V& {
      return records[i].second;
    };
    const bool varint = cd::KeysFitVarint<K>(n, key_at);
    if constexpr (std::is_trivially_copyable_v<V>) {
      const bool zero_suppress = cd::ZeroSuppressionWins<V>(n, val_at);
      FrameBuilder b(count, zero_suppress ? 3 : 2);
      // The largest either column can take while being written.
      b.buffer()->reserve(b.buffer()->size() + n * sizeof(K) + (n + 7) / 8 +
                          (n + 1) * sizeof(V));
      cd::WriteKeySection<K>(&b, n, key_at, varint);
      cd::WriteValueSections<V>(&b, n, val_at, zero_suppress);
      out.bytes = b.Finish(&out.content_hash);
      // Legacy format: uint32 count + whole-pair memcpy per record.
      out.raw_bytes = sizeof(uint32_t) + n * sizeof(T);
    } else {
      FrameBuilder b(count, 2);
      cd::WriteKeySection<K>(&b, n, key_at, varint);
      const size_t before = b.buffer()->size();
      cd::WriteRecordSection<V>(&b, n, val_at);
      const size_t value_record_bytes = b.buffer()->size() - before;
      out.bytes = b.Finish(&out.content_hash);
      out.raw_bytes = sizeof(uint32_t) + n * sizeof(K) + value_record_bytes;
    }
  } else if constexpr (cd::kVarintKey<T>) {
    const auto key_at = [&](size_t i) { return records[i]; };
    FrameBuilder b(count, 1);
    cd::WriteKeySection<T>(&b, n, key_at, cd::KeysFitVarint<T>(n, key_at));
    out.bytes = b.Finish(&out.content_hash);
    out.raw_bytes = sizeof(uint32_t) + n * sizeof(T);
  } else if constexpr (std::is_trivially_copyable_v<T>) {
    const auto val_at = [&](size_t i) -> const T& { return records[i]; };
    const bool zero_suppress = cd::ZeroSuppressionWins<T>(n, val_at);
    FrameBuilder b(count, zero_suppress ? 2 : 1);
    b.buffer()->reserve(b.buffer()->size() + (n + 7) / 8 +
                        (n + 1) * sizeof(T));
    cd::WriteValueSections<T>(&b, n, val_at, zero_suppress);
    out.bytes = b.Finish(&out.content_hash);
    out.raw_bytes = sizeof(uint32_t) + n * sizeof(T);
  } else {
    const auto val_at = [&](size_t i) -> const T& { return records[i]; };
    FrameBuilder b(count, 1);
    const size_t before = b.buffer()->size();
    cd::WriteRecordSection<T>(&b, n, val_at);
    const size_t record_bytes = b.buffer()->size() - before;
    out.bytes = b.Finish(&out.content_hash);
    out.raw_bytes = sizeof(uint32_t) + record_bytes;
  }
  return out;
}

/// Decodes a partition from an already-parsed frame view, a block of
/// records at a time: each column yields the block's elements (read in
/// place when raw) and the records are then written whole.
template <typename T>
Result<std::vector<T>> DecodePartitionFrame(const FrameView& view) {
  namespace cd = columnar_detail;
  static_assert(kSpillable<T>, "record type has no spill codec");
  const size_t n = view.record_count();
  std::vector<T> records;
  int s = 0;
  if constexpr (cd::kHasKeyColumn<T>) {
    using K = typename T::first_type;
    using V = typename T::second_type;
    if (view.num_sections() < 2) {
      return Status::InvalidArgument("key-column frame needs >= 2 sections");
    }
    cd::KeyColumn<K> keys;
    SPANGLE_RETURN_NOT_OK(keys.Init(view.section(0), view.section_data(0), n));
    s = 1;
    if constexpr (std::is_trivially_copyable_v<V>) {
      cd::ValueColumn<V> values;
      SPANGLE_RETURN_NOT_OK(values.Init(view, &s, n));
      records.resize(n);
      for (size_t begin = 0; begin < n; begin += cd::kDecodeBlock) {
        const size_t end = std::min(n, begin + cd::kDecodeBlock);
        const char* k = nullptr;
        SPANGLE_RETURN_NOT_OK(keys.Next(begin, end, &k));
        const char* v = values.Next(begin, end);
        for (size_t i = begin; i < end; ++i) {
          std::memcpy(&records[i].first, k, sizeof(K));
          std::memcpy(&records[i].second, v, sizeof(V));
          k += sizeof(K);
          v += sizeof(V);
        }
      }
    } else {
      std::vector<K> key_column(n);
      for (size_t begin = 0; begin < n; begin += cd::kDecodeBlock) {
        const size_t end = std::min(n, begin + cd::kDecodeBlock);
        const char* k = nullptr;
        SPANGLE_RETURN_NOT_OK(keys.Next(begin, end, &k));
        std::memcpy(key_column.data() + begin, k, (end - begin) * sizeof(K));
      }
      // emplace in record order (the section is walked sequentially), so
      // V need not be default-constructible.
      records.reserve(n);
      const auto put = [&](size_t i, V v) {
        records.emplace_back(key_column[i], std::move(v));
      };
      SPANGLE_RETURN_NOT_OK(cd::DecodeRecordSection<V>(view, &s, n, put));
    }
    SPANGLE_RETURN_NOT_OK(keys.Finish());
  } else if constexpr (cd::kVarintKey<T>) {
    if (view.num_sections() != 1) {
      return Status::InvalidArgument("integral frame needs one section");
    }
    cd::KeyColumn<T> keys;
    SPANGLE_RETURN_NOT_OK(keys.Init(view.section(0), view.section_data(0), n));
    s = 1;
    records.resize(n);
    for (size_t begin = 0; begin < n; begin += cd::kDecodeBlock) {
      const size_t end = std::min(n, begin + cd::kDecodeBlock);
      const char* k = nullptr;
      SPANGLE_RETURN_NOT_OK(keys.Next(begin, end, &k));
      std::memcpy(records.data() + begin, k, (end - begin) * sizeof(T));
    }
    SPANGLE_RETURN_NOT_OK(keys.Finish());
  } else if constexpr (std::is_trivially_copyable_v<T>) {
    cd::ValueColumn<T> values;
    SPANGLE_RETURN_NOT_OK(values.Init(view, &s, n));
    records.resize(n);
    for (size_t begin = 0; begin < n; begin += cd::kDecodeBlock) {
      const size_t end = std::min(n, begin + cd::kDecodeBlock);
      std::memcpy(static_cast<void*>(records.data() + begin),
                  values.Next(begin, end), (end - begin) * sizeof(T));
    }
  } else {
    records.reserve(n);
    const auto put = [&](size_t i, T v) {
      (void)i;
      records.push_back(std::move(v));
    };
    SPANGLE_RETURN_NOT_OK(cd::DecodeRecordSection<T>(view, &s, n, put));
  }
  if (s != view.num_sections()) {
    return Status::InvalidArgument("unconsumed frame sections");
  }
  return records;
}

/// Parses + decodes in one step (the common path). Verifies the content
/// hash unless told not to.
template <typename T>
Result<std::vector<T>> DecodePartitionFrame(const char* data, size_t size,
                                            bool verify_hash = true) {
  auto view = FrameView::Parse(data, size, verify_hash);
  SPANGLE_RETURN_NOT_OK(view.status());
  return DecodePartitionFrame<T>(*view);
}

}  // namespace codec
}  // namespace spangle

#endif  // SPANGLE_CODEC_COLUMNAR_H_
