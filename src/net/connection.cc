#include "net/connection.h"

#include <sys/uio.h>

#include <vector>

namespace spangle {
namespace net {

Status Connection::Send(MessageType type,
                        std::initializer_list<std::string_view> parts) {
  size_t payload_len = 0;
  for (std::string_view part : parts) payload_len += part.size();
  if (payload_len > kMaxFramePayload) {
    return Status::OutOfRange("frame payload " + std::to_string(payload_len) +
                              " bytes exceeds limit");
  }
  std::string header;
  header.reserve(kFrameHeaderBytes);
  AppendFrameHeader(type, static_cast<uint32_t>(payload_len), &header);
  std::vector<iovec> iov;
  iov.reserve(1 + parts.size());
  iov.push_back({header.data(), header.size()});
  for (std::string_view part : parts) {
    // iovec is the kernel's read-only-in-practice view; sendmsg never
    // writes through it.
    iov.push_back({const_cast<char*>(part.data()), part.size()});
  }
  SPANGLE_RETURN_NOT_OK(socket_.SendAllv(iov.data(), iov.size()));
  if (counters_.sent != nullptr) {
    counters_.sent->fetch_add(kFrameHeaderBytes + payload_len,
                              std::memory_order_relaxed);
  }
  return Status::OK();
}

Status Connection::Recv(MessageType* type, std::string* payload) {
  char header[kFrameHeaderBytes];
  SPANGLE_RETURN_NOT_OK(socket_.RecvAll(header, sizeof(header)));
  auto parsed = ParseFrameHeader(header);
  SPANGLE_RETURN_NOT_OK(parsed.status());
  payload->resize(parsed->payload_len);
  if (parsed->payload_len > 0) {
    SPANGLE_RETURN_NOT_OK(socket_.RecvAll(payload->data(), payload->size()));
  }
  *type = parsed->type;
  if (counters_.received != nullptr) {
    counters_.received->fetch_add(kFrameHeaderBytes + parsed->payload_len,
                                  std::memory_order_relaxed);
  }
  return Status::OK();
}

}  // namespace net
}  // namespace spangle
