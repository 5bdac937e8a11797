#ifndef SPANGLE_NET_FRAME_H_
#define SPANGLE_NET_FRAME_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/result.h"
#include "net/message.h"

namespace spangle {
namespace net {

// The wire unit: every message travels as one frame with a fixed 12-byte
// header followed by the payload. All integers are little-endian.
//
//   offset | size | field
//   -------|------|------------------------------------------
//   0      | 4    | magic "SPN1"
//   4      | 1    | message type (net::MessageType)
//   5      | 3    | reserved, must be zero
//   8      | 4    | payload length (bytes)
//
// DESIGN.md §11 carries the full format rationale.

inline constexpr size_t kFrameHeaderBytes = 12;

/// Hard ceiling on one frame's payload. Bigger than any real shuffle
/// partition this engine moves, small enough that a corrupt length field
/// cannot make a receiver try to allocate the declared 4 GiB.
inline constexpr uint32_t kMaxFramePayload = 256u << 20;  // 256 MiB

/// Appends the 12-byte header for a payload of `payload_len` bytes.
/// The caller appends the payload itself (avoids copying large blocks).
void AppendFrameHeader(MessageType type, uint32_t payload_len,
                       std::string* out);

/// Appends header + payload (convenience for small messages and tests).
void EncodeFrame(MessageType type, const std::string& payload,
                 std::string* out);

/// Validates a 12-byte header; returns the (type, payload length) pair.
/// `data` must hold at least kFrameHeaderBytes.
struct FrameHeader {
  MessageType type = MessageType::kError;
  uint32_t payload_len = 0;
};
Result<FrameHeader> ParseFrameHeader(const char* data);

}  // namespace net
}  // namespace spangle

#endif  // SPANGLE_NET_FRAME_H_
