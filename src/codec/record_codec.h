#ifndef SPANGLE_CODEC_RECORD_CODEC_H_
#define SPANGLE_CODEC_RECORD_CODEC_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/logging.h"

namespace spangle {
namespace codec {

/// The record-at-a-time codec: one record's bytes, no framing. The
/// columnar chunk frame (columnar.h) uses it for the kRecords fallback
/// section (types with no columnar split). The engine asks kSpillable<T>
/// below whether a record type may be spilled to disk.

/// Types carrying their own binary codec: AppendTo(std::string*) plus a
/// static FromBytes(data, size, *consumed) returning a Result. Chunk,
/// Bitmask and VecBlock all satisfy this.
template <typename T>
concept HasByteCodec = requires(const T& t, std::string* out, const char* d,
                                size_t n, size_t* c) {
  { t.AppendTo(out) };
  { T::FromBytes(d, n, c).ok() } -> std::convertible_to<bool>;
};

template <typename T>
struct SpillableTrait
    : std::bool_constant<std::is_trivially_copyable_v<T> || HasByteCodec<T>> {
};
template <>
struct SpillableTrait<std::string> : std::true_type {};
template <typename A, typename B>
struct SpillableTrait<std::pair<A, B>>
    : std::bool_constant<SpillableTrait<A>::value && SpillableTrait<B>::value> {
};
template <typename E>
struct SpillableTrait<std::vector<E>> : SpillableTrait<E> {};

/// True when a std::vector<T> partition can be written to a spill file
/// and read back bit-exactly. Storage levels that touch disk require
/// this; for other types they degrade to MEMORY_ONLY (recompute).
template <typename T>
inline constexpr bool kSpillable = SpillableTrait<T>::value;

namespace detail {
template <typename T>
struct IsPair : std::false_type {};
template <typename A, typename B>
struct IsPair<std::pair<A, B>> : std::true_type {};
template <typename T>
struct IsVector : std::false_type {};
template <typename E>
struct IsVector<std::vector<E>> : std::true_type {};
}  // namespace detail

/// Appends one record's binary encoding to `out`. The inverse of
/// Decode<T>; record framing (length prefixes between records) is the
/// caller's job. The if-constexpr ladder must stay in sync with Decode.
template <typename T>
void Encode(const T& v, std::string* out) {
  static_assert(kSpillable<T>, "record type has no spill codec");
  if constexpr (std::is_same_v<T, std::string>) {
    const uint32_t n = static_cast<uint32_t>(v.size());
    out->append(reinterpret_cast<const char*>(&n), sizeof(n));
    out->append(v);
  } else if constexpr (detail::IsPair<T>::value) {
    Encode(v.first, out);
    Encode(v.second, out);
  } else if constexpr (detail::IsVector<T>::value) {
    const uint32_t n = static_cast<uint32_t>(v.size());
    out->append(reinterpret_cast<const char*>(&n), sizeof(n));
    for (const auto& e : v) Encode(e, out);
  } else if constexpr (std::is_trivially_copyable_v<T>) {
    out->append(reinterpret_cast<const char*>(&v), sizeof(T));
  } else {
    v.AppendTo(out);
  }
}

/// Decodes one record from data[0, size); adds the bytes read to
/// *consumed. CHECK-fails on malformed input — callers that handle
/// untrusted bytes (the frame decoder) validate section bounds and the
/// content hash before records are walked.
template <typename T>
T Decode(const char* data, size_t size, size_t* consumed) {
  static_assert(kSpillable<T>, "record type has no spill codec");
  if constexpr (std::is_same_v<T, std::string>) {
    uint32_t n = 0;
    SPANGLE_CHECK_GE(size, sizeof(n)) << "truncated spill record";
    std::memcpy(&n, data, sizeof(n));
    SPANGLE_CHECK_GE(size - sizeof(n), n) << "truncated spill record";
    *consumed += sizeof(n) + n;
    return std::string(data + sizeof(n), n);
  } else if constexpr (detail::IsPair<T>::value) {
    size_t used = 0;
    auto first = Decode<typename T::first_type>(data, size, &used);
    size_t used2 = 0;
    auto second =
        Decode<typename T::second_type>(data + used, size - used, &used2);
    *consumed += used + used2;
    return T(std::move(first), std::move(second));
  } else if constexpr (detail::IsVector<T>::value) {
    uint32_t n = 0;
    SPANGLE_CHECK_GE(size, sizeof(n)) << "truncated spill record";
    std::memcpy(&n, data, sizeof(n));
    size_t used = sizeof(n);
    T out;
    out.reserve(n);
    for (uint32_t i = 0; i < n; ++i) {
      out.push_back(
          Decode<typename T::value_type>(data + used, size - used, &used));
    }
    *consumed += used;
    return out;
  } else if constexpr (std::is_trivially_copyable_v<T>) {
    SPANGLE_CHECK_GE(size, sizeof(T)) << "truncated spill record";
    T v;
    std::memcpy(&v, data, sizeof(T));
    *consumed += sizeof(T);
    return v;
  } else {
    size_t used = 0;
    auto r = T::FromBytes(data, size, &used);
    SPANGLE_CHECK(r.ok()) << "corrupt spill record: " << r.status().ToString();
    *consumed += used;
    return std::move(*r);
  }
}

}  // namespace codec
}  // namespace spangle

#endif  // SPANGLE_CODEC_RECORD_CODEC_H_
