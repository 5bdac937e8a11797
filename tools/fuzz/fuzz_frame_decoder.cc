// libFuzzer harness for the RPC framing layer. The input is read as a
// byte stream from a remote peer, frame by frame, the way
// Connection::Recv reads a socket: ParseFrameHeader on the next 12
// bytes, then the declared payload length. Every input — however
// malformed — must end in a Status or a short stream, never a crash,
// hang, or overread.

#include <cstddef>
#include <cstdint>

#include "net/frame.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const char* p = reinterpret_cast<const char*>(data);
  size_t off = 0;
  while (size - off >= spangle::net::kFrameHeaderBytes) {
    auto header = spangle::net::ParseFrameHeader(p + off);
    if (!header.ok()) break;  // Recv fails the connection here
    off += spangle::net::kFrameHeaderBytes;
    // A payload longer than the rest of the stream is a peer that closed
    // mid-frame: Recv's read fails.
    if (header->payload_len > size - off) break;
    off += header->payload_len;
  }
  return 0;
}
