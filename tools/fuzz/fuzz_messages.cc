// libFuzzer harness for the typed RPC message decoders. The first input
// byte selects the message type (mod the valid range), the rest is the
// payload handed to that type's Parse(). Every decoder must reject
// malformed payloads — truncation, bad bools, trailing bytes, hostile
// element counts — with a Status; a parsed ErrorResponse additionally
// round-trips through ToStatus(), which must normalize out-of-range
// codes rather than trust them.
//
// Differential half: every payload, whatever its type byte, also goes
// through the in-place decoders (PutBlockRequestView,
// FetchBlockResponseView), which must accept exactly what the copying
// Parse accepts and locate the same bytes it copies; any disagreement
// traps (message_differential.h).

#include <cstddef>
#include <cstdint>
#include <string>

#include "message_differential.h"
#include "net/message.h"

namespace {

using spangle::net::MessageType;

template <typename M>
void ParseOne(const char* data, size_t size) {
  auto m = M::Parse(data, size);
  if (m.ok()) {
    // A successful parse must re-encode without tripping sanitizers:
    // decode and encode share the field layout, so this catches decoders
    // that accept payloads the encoder could never have produced.
    std::string out;
    m->AppendTo(&out);
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size == 0) return 0;
  const auto type = static_cast<MessageType>(data[0] % 16);
  const char* payload = reinterpret_cast<const char*>(data + 1);
  const size_t n = size - 1;
  if (!spangle::net::DiffInPlaceParsers(payload, n).empty()) {
    __builtin_trap();
  }

  switch (type) {
    case MessageType::kError: {
      auto m = spangle::net::ErrorResponse::Parse(payload, n);
      if (m.ok()) (void)m->ToStatus();
      break;
    }
    case MessageType::kPutBlockRequest:
      ParseOne<spangle::net::PutBlockRequest>(payload, n);
      break;
    case MessageType::kPutBlockResponse:
      ParseOne<spangle::net::PutBlockResponse>(payload, n);
      break;
    case MessageType::kFetchBlockRequest:
      ParseOne<spangle::net::FetchBlockRequest>(payload, n);
      break;
    case MessageType::kFetchBlockResponse:
      ParseOne<spangle::net::FetchBlockResponse>(payload, n);
      break;
    case MessageType::kProbeBlockRequest:
      ParseOne<spangle::net::ProbeBlockRequest>(payload, n);
      break;
    case MessageType::kProbeBlockResponse:
      ParseOne<spangle::net::ProbeBlockResponse>(payload, n);
      break;
    case MessageType::kHeartbeatRequest:
      ParseOne<spangle::net::HeartbeatRequest>(payload, n);
      break;
    case MessageType::kHeartbeatResponse:
      ParseOne<spangle::net::HeartbeatResponse>(payload, n);
      break;
    case MessageType::kShutdownRequest:
      ParseOne<spangle::net::ShutdownRequest>(payload, n);
      break;
    case MessageType::kShutdownResponse:
      ParseOne<spangle::net::ShutdownResponse>(payload, n);
      break;
    case MessageType::kStatsRequest:
      ParseOne<spangle::net::StatsRequest>(payload, n);
      break;
    case MessageType::kStatsResponse:
      ParseOne<spangle::net::StatsResponse>(payload, n);
      break;
    default:
      break;
  }
  return 0;
}
