#ifndef SPANGLE_NET_CONNECTION_H_
#define SPANGLE_NET_CONNECTION_H_

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <utility>

#include "common/status.h"
#include "net/frame.h"
#include "net/socket.h"

namespace spangle {
namespace net {

/// Wire-volume counters a connection credits as it moves frames. Plain
/// atomics (not EngineMetrics) keep the transport layer free of engine
/// dependencies; the driver points these at its metrics registry, the
/// daemon at its own.
struct ByteCounters {
  std::atomic<uint64_t>* sent = nullptr;
  std::atomic<uint64_t>* received = nullptr;
};

/// One framed-message connection: Send() writes header + payload, Recv()
/// reads and validates exactly one frame. Same thread contract as Socket;
/// ShutdownBoth() is the cross-thread unblock hook.
///
/// A payload is sent as parts written back to back (for a data-plane
/// message: the fields before its frame, the frame, the fields after
/// it), gathered by one sendmsg. The frame goes out from wherever it
/// lives — the encoder's string, the daemon's stored block — and is
/// never copied into a message buffer.
class Connection {
 public:
  explicit Connection(Socket socket, ByteCounters counters = {})
      : socket_(std::move(socket)), counters_(counters) {}

  Connection(Connection&&) noexcept = default;
  Connection& operator=(Connection&&) noexcept = default;
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Sends one frame whose payload is `parts` back to back; fails with
  /// OutOfRange, before writing anything, when they exceed
  /// kMaxFramePayload.
  Status Send(MessageType type, std::initializer_list<std::string_view> parts);

  /// Receives one frame; fails on short reads, bad headers, or payloads
  /// over kMaxFramePayload.
  Status Recv(MessageType* type, std::string* payload);

  void ShutdownBoth() { socket_.ShutdownBoth(); }

 private:
  Socket socket_;
  ByteCounters counters_;
};

}  // namespace net
}  // namespace spangle

#endif  // SPANGLE_NET_CONNECTION_H_
