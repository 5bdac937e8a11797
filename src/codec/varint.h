#ifndef SPANGLE_CODEC_VARINT_H_
#define SPANGLE_CODEC_VARINT_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>

namespace spangle {
namespace codec {

/// LEB128 varints plus zigzag, the integer-key compression primitives of
/// the columnar chunk frame (see chunk_frame.h). Decode never reads past
/// `size` and rejects encodings longer than 10 bytes, so a truncated or
/// corrupt slab surfaces as a decode failure instead of a wild read.

inline constexpr size_t kMaxVarintBytes = 10;

inline void PutVarint(uint64_t v, std::string* out) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

/// Encoded size of `v` without materializing it (encoding-choice scans):
/// one byte per started group of 7 significant bits, branch-free.
inline size_t VarintSize(uint64_t v) {
  return 1 + static_cast<size_t>(63 - std::countl_zero(v | 1)) / 7;
}

/// Decodes one varint from data[0, size); advances *consumed past it.
/// False on truncation or an over-long (> 10 byte) encoding.
inline bool GetVarint(const char* data, size_t size, uint64_t* v,
                      size_t* consumed) {
  uint64_t result = 0;
  int shift = 0;
  for (size_t i = 0; i < size && i < kMaxVarintBytes; ++i) {
    const auto byte = static_cast<unsigned char>(data[i]);
    result |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      *v = result;
      *consumed += i + 1;
      return true;
    }
    shift += 7;
  }
  return false;
}

/// Zigzag: small-magnitude signed deltas (either sign) become small
/// unsigned varints.
inline uint64_t ZigZag(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}

inline int64_t UnZigZag(uint64_t v) {
  return static_cast<int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

}  // namespace codec
}  // namespace spangle

#endif  // SPANGLE_CODEC_VARINT_H_
