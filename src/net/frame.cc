#include "net/frame.h"

#include <cstring>

namespace spangle {
namespace net {

namespace {

constexpr char kMagic[4] = {'S', 'P', 'N', '1'};

}  // namespace

void AppendFrameHeader(MessageType type, uint32_t payload_len,
                       std::string* out) {
  out->append(kMagic, sizeof(kMagic));
  out->push_back(static_cast<char>(type));
  out->append(3, '\0');  // reserved
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((payload_len >> (8 * i)) & 0xff));
  }
}

void EncodeFrame(MessageType type, const std::string& payload,
                 std::string* out) {
  AppendFrameHeader(type, static_cast<uint32_t>(payload.size()), out);
  out->append(payload);
}

// spangle-lint: untrusted — `data` arrives straight off a socket; every
// rejection path must be a Status, never a CHECK.
Result<FrameHeader> ParseFrameHeader(const char* data) {
  if (std::memcmp(data, kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("frame: bad magic (not a Spangle peer?)");
  }
  const uint8_t raw_type = static_cast<uint8_t>(data[4]);
  if (!IsValidMessageType(raw_type)) {
    return Status::InvalidArgument("frame: unknown message type " +
                                   std::to_string(raw_type));
  }
  if (data[5] != 0 || data[6] != 0 || data[7] != 0) {
    return Status::InvalidArgument("frame: nonzero reserved bytes");
  }
  uint32_t len = 0;
  for (int i = 0; i < 4; ++i) {
    len |= static_cast<uint32_t>(static_cast<uint8_t>(data[8 + i]))
           << (8 * i);
  }
  if (len > kMaxFramePayload) {
    return Status::OutOfRange("frame: payload length " + std::to_string(len) +
                              " exceeds limit " +
                              std::to_string(kMaxFramePayload));
  }
  FrameHeader h;
  h.type = static_cast<MessageType>(raw_type);
  h.payload_len = len;
  return h;
}

}  // namespace net
}  // namespace spangle
