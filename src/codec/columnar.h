#ifndef SPANGLE_CODEC_COLUMNAR_H_
#define SPANGLE_CODEC_COLUMNAR_H_

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
/// (see chunk_frame.h); `raw_bytes` is what the legacy record-at-a-time
/// format would have occupied, for compression accounting
/// (codec_bytes_raw vs codec_bytes_encoded).
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

/// Encodes the whole key column as zigzag-delta varints into `scratch`
/// in ONE pass, bailing out as soon as the varint bytes reach the raw
/// column size (raw wins ties). Returns whether varint-delta won;
/// `scratch` holds the encoded column when it did. Fused choose+encode:
/// the separate size-counting pass costs as much as encoding, so the
/// optimistic encode is free when varint wins (the sparse-shuffle common
/// case) and bounded by the raw size when it loses.
template <typename K, typename GetKey>
bool EncodeKeysVarint(size_t n, const GetKey& get, std::string* scratch) {
  const size_t raw_bytes = n * sizeof(K);
  scratch->resize(raw_bytes + kMaxVarintBytes);
  char* const base = scratch->data();
  char* const limit = base + raw_bytes;
  char* p = base;
  uint64_t prev = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t cur = WidenKey<K>(get(i));
    uint64_t zz = ZigZag(static_cast<int64_t>(cur - prev));
    prev = cur;
    if (p >= limit) return false;  // already as big as raw; raw wins
    while (zz >= 0x80) {
      *p++ = static_cast<char>((zz & 0x7F) | 0x80);
      zz >>= 7;
    }
    *p++ = static_cast<char>(zz);
  }
  if (n > 0 && static_cast<size_t>(p - base) >= raw_bytes) return false;
  scratch->resize(static_cast<size_t>(p - base));
  return true;
}

template <typename K, typename GetKey>
void WriteKeySection(FrameBuilder* b, size_t n, const GetKey& get,
                     bool varint, const std::string& scratch) {
  b->BeginSection(SectionKind::kKeys, varint ? SectionEncoding::kVarintDelta
                                             : SectionEncoding::kRaw);
  std::string* out = b->buffer();
  if (varint) {
    out->append(scratch);
  } else {
    const size_t at = out->size();
    out->resize(at + n * sizeof(K));
    char* p = out->data() + at;
    for (size_t i = 0; i < n; ++i) {
      const K k = get(i);
      std::memcpy(p, &k, sizeof(K));
      p += sizeof(K);
    }
  }
  b->EndSection();
}

template <typename K>
Status DecodeKeySection(const SectionDesc& desc, const char* data, size_t n,
                        std::vector<K>* keys) {
  if (desc.kind != SectionKind::kKeys) {
    return Status::InvalidArgument("expected a keys section");
  }
  keys->resize(n);
  if (desc.encoding == SectionEncoding::kVarintDelta) {
    size_t used = 0;
    uint64_t prev = 0;
    for (size_t i = 0; i < n; ++i) {
      uint64_t zz = 0;
      // Small deltas (the common case by construction) are one byte.
      if (used < desc.bytes &&
          static_cast<unsigned char>(data[used]) < 0x80) {
        zz = static_cast<unsigned char>(data[used]);
        ++used;
      } else if (!GetVarint(data + used, desc.bytes - used, &zz, &used)) {
        return Status::InvalidArgument("truncated key varint");
      }
      prev += static_cast<uint64_t>(UnZigZag(zz));
      (*keys)[i] = static_cast<K>(prev);
      prev = WidenKey<K>((*keys)[i]);
    }
    if (used != desc.bytes) {
      return Status::InvalidArgument("trailing bytes in key section");
    }
    return Status::OK();
  }
  if (desc.encoding != SectionEncoding::kRaw ||
      desc.bytes != n * sizeof(K)) {
    return Status::InvalidArgument("malformed raw key section");
  }
  if (n > 0) std::memcpy(keys->data(), data, n * sizeof(K));
  return Status::OK();
}

/// ONE branchless scan over the value column: builds the bitpacked
/// presence mask into `mask`, compacts the not-all-zero elements into
/// `values`, and returns their count. Every element is stored
/// unconditionally and the write pointer advances by a conditional move
/// — at mid densities a per-element `if (nonzero)` branch is the
/// encoder's dominant cost (mispredicted ~2·density·n times), while the
/// extra unconditional stores are nearly free. The old choose/mask/write
/// trio scanned the column three times; this is the only pass.
template <typename E, typename GetVal>
size_t BuildPresenceAndValues(size_t n, const GetVal& get, std::string* mask,
                              std::string* values) {
  mask->assign((n + 7) / 8, '\0');
  values->resize(n * sizeof(E));
  char* m = mask->data();
  char* v = values->data();
  size_t nonzero = 0;
  for (size_t i = 0; i < n; ++i) {
    const E& e = get(i);
    const unsigned nz = IsAllZeroBytes<E>(e) ? 0u : 1u;
    m[i / 8] |= static_cast<char>(nz << (i % 8));
    std::memcpy(v, &e, sizeof(E));
    v += nz * sizeof(E);
    nonzero += nz;
  }
  values->resize(nonzero * sizeof(E));
  return nonzero;
}

/// Zero-suppression pays when the mask plus the surviving elements beat
/// the raw slab.
inline bool ZeroSuppressionWins(size_t mask_bytes, size_t nonzero,
                                size_t elem_size, size_t n) {
  return mask_bytes + nonzero * elem_size < n * elem_size;
}

template <typename E, typename GetVal>
void WriteValueSections(FrameBuilder* b, size_t n, const GetVal& get,
                        bool zero_suppress, const std::string& mask,
                        const std::string& values) {
  std::string* out = b->buffer();
  if (zero_suppress) {
    b->BeginSection(SectionKind::kPresence, SectionEncoding::kBitpacked);
    out->append(mask);
    b->EndSection();
    b->BeginSection(SectionKind::kValues, SectionEncoding::kZeroSuppressed);
    out->append(values);
    b->EndSection();
    return;
  }
  // Dense column: the raw slab needs the zero elements too, so it is
  // re-walked from the records (a straight strided copy).
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
}

/// Decodes the value column that starts at section `s` of `view`; calls
/// `put(i, E)` for each record. Advances *s past the consumed sections.
template <typename E, typename PutVal>
Status DecodeValueSections(const FrameView& view, int* s, size_t n,
                           const PutVal& put) {
  if (*s >= view.num_sections()) {
    return Status::InvalidArgument("missing value section");
  }
  const SectionDesc& first = view.section(*s);
  if (first.kind == SectionKind::kPresence) {
    if (first.encoding != SectionEncoding::kBitpacked ||
        first.bytes != (n + 7) / 8) {
      return Status::InvalidArgument("malformed presence section");
    }
    const char* mask = view.section_data(*s);
    ++*s;
    if (*s >= view.num_sections()) {
      return Status::InvalidArgument("presence section without values");
    }
    const SectionDesc& vals = view.section(*s);
    if (vals.kind != SectionKind::kValues ||
        vals.encoding != SectionEncoding::kZeroSuppressed) {
      return Status::InvalidArgument("expected zero-suppressed values");
    }
    const char* data = view.section_data(*s);
    // An absent value decodes to all-zero bytes, exactly what the
    // encoder's byte-level zero test saw (value-initialization would not
    // promise that for a type with non-zero member initializers).
    static constexpr char kZeroBytes[sizeof(E)] = {};
    size_t offset = 0;
    for (size_t i = 0; i < n; ++i) {
      const char* src = kZeroBytes;
      const bool present =
          (static_cast<unsigned char>(mask[i / 8]) >> (i % 8)) & 1u;
      if (present) {
        if (vals.bytes - offset < sizeof(E)) {
          return Status::InvalidArgument("zero-suppressed values truncated");
        }
        src = data + offset;
        offset += sizeof(E);
      }
      E e;
      std::memcpy(&e, src, sizeof(E));
      put(i, e);
    }
    if (offset != vals.bytes) {
      return Status::InvalidArgument("trailing zero-suppressed values");
    }
    ++*s;
    return Status::OK();
  }
  if (first.kind != SectionKind::kValues ||
      first.encoding != SectionEncoding::kRaw ||
      first.bytes != n * sizeof(E)) {
    return Status::InvalidArgument("malformed raw value section");
  }
  const char* data = view.section_data(*s);
  for (size_t i = 0; i < n; ++i) {
    E e{};
    std::memcpy(&e, data + i * sizeof(E), sizeof(E));
    put(i, e);
  }
  ++*s;
  return Status::OK();
}

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

/// Encodes one partition into a columnar chunk frame.
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
    std::string key_scratch;
    const bool key_varint = cd::EncodeKeysVarint<K>(n, key_at, &key_scratch);
    const size_t key_bytes = key_varint ? key_scratch.size() : n * sizeof(K);
    if constexpr (std::is_trivially_copyable_v<V>) {
      std::string mask, values;
      const size_t nonzero =
          cd::BuildPresenceAndValues<V>(n, val_at, &mask, &values);
      const bool zero_suppress =
          cd::ZeroSuppressionWins(mask.size(), nonzero, sizeof(V), n);
      FrameBuilder b(count, zero_suppress ? 3 : 2);
      b.buffer()->reserve(
          b.buffer()->size() + key_bytes +
          (zero_suppress ? mask.size() + values.size() : n * sizeof(V)));
      cd::WriteKeySection<K>(&b, n, key_at, key_varint, key_scratch);
      cd::WriteValueSections<V>(&b, n, val_at, zero_suppress, mask, values);
      out.bytes = b.Finish(&out.content_hash);
      // Legacy format: uint32 count + whole-pair memcpy per record.
      out.raw_bytes = sizeof(uint32_t) + n * sizeof(T);
    } else {
      FrameBuilder b(count, 2);
      cd::WriteKeySection<K>(&b, n, key_at, key_varint, key_scratch);
      const size_t before = b.buffer()->size();
      cd::WriteRecordSection<V>(&b, n, val_at);
      const size_t value_record_bytes = b.buffer()->size() - before;
      out.bytes = b.Finish(&out.content_hash);
      out.raw_bytes = sizeof(uint32_t) + n * sizeof(K) + value_record_bytes;
    }
  } else if constexpr (cd::kVarintKey<T>) {
    const auto key_at = [&](size_t i) { return records[i]; };
    std::string key_scratch;
    const bool key_varint = cd::EncodeKeysVarint<T>(n, key_at, &key_scratch);
    FrameBuilder b(count, 1);
    cd::WriteKeySection<T>(&b, n, key_at, key_varint, key_scratch);
    out.bytes = b.Finish(&out.content_hash);
    out.raw_bytes = sizeof(uint32_t) + n * sizeof(T);
  } else if constexpr (std::is_trivially_copyable_v<T>) {
    const auto val_at = [&](size_t i) -> const T& { return records[i]; };
    std::string mask, values;
    const size_t nonzero =
        cd::BuildPresenceAndValues<T>(n, val_at, &mask, &values);
    const bool zero_suppress =
        cd::ZeroSuppressionWins(mask.size(), nonzero, sizeof(T), n);
    FrameBuilder b(count, zero_suppress ? 2 : 1);
    cd::WriteValueSections<T>(&b, n, val_at, zero_suppress, mask, values);
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

/// Decodes a partition from an already-parsed frame view.
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
    std::vector<K> keys;
    SPANGLE_RETURN_NOT_OK(cd::DecodeKeySection<K>(
        view.section(0), view.section_data(0), n, &keys));
    s = 1;
    if constexpr (std::is_trivially_copyable_v<V>) {
      records.resize(n);
      const auto put = [&](size_t i, V v) { records[i] = T(keys[i], v); };
      SPANGLE_RETURN_NOT_OK(cd::DecodeValueSections<V>(view, &s, n, put));
    } else {
      // emplace in record order (the section is walked sequentially), so
      // V need not be default-constructible.
      records.reserve(n);
      const auto put = [&](size_t i, V v) {
        records.emplace_back(keys[i], std::move(v));
      };
      SPANGLE_RETURN_NOT_OK(cd::DecodeRecordSection<V>(view, &s, n, put));
    }
  } else if constexpr (cd::kVarintKey<T>) {
    if (view.num_sections() != 1) {
      return Status::InvalidArgument("integral frame needs one section");
    }
    SPANGLE_RETURN_NOT_OK(cd::DecodeKeySection<T>(
        view.section(0), view.section_data(0), n, &records));
    s = 1;
  } else if constexpr (std::is_trivially_copyable_v<T>) {
    records.resize(n);
    const auto put = [&](size_t i, T v) { records[i] = v; };
    SPANGLE_RETURN_NOT_OK(cd::DecodeValueSections<T>(view, &s, n, put));
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
