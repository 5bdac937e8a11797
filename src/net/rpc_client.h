#ifndef SPANGLE_NET_RPC_CLIENT_H_
#define SPANGLE_NET_RPC_CLIENT_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "common/status.h"
#include "net/connection.h"
#include "net/message.h"
#include "net/socket.h"

namespace spangle {
namespace net {

/// Metric sinks the client credits per call; the driver points these at
/// its EngineMetrics atomics.
struct RpcClientCounters {
  std::atomic<uint64_t>* bytes_sent = nullptr;
  std::atomic<uint64_t>* bytes_received = nullptr;
  std::atomic<uint64_t>* roundtrips = nullptr;
};

/// Blocking RPC client for one executor daemon, callable from many
/// threads at once. It keeps a pool of connections: a call takes an idle
/// one (or opens a new one), does its I/O holding no lock, and puts the
/// connection back. The pool thus grows to the number of concurrent
/// callers and no further, and the daemon serves those calls in
/// parallel (one server thread per connection). mu_ (rank kNetClient —
/// callers may hold fleet rank kNetFleet above it) guards only the pool.
/// A transport error drops the connection it happened on; the next call
/// opens a fresh one, so a restarted daemon on the same port is picked
/// up transparently. Abort() unblocks every call in flight (used when a
/// daemon is killed under us).
class RpcClient {
 public:
  explicit RpcClient(uint16_t port, RpcClientCounters counters = {})
      : port_(port), counters_(counters) {}

  RpcClient(const RpcClient&) = delete;
  RpcClient& operator=(const RpcClient&) = delete;

  uint16_t port() const { return port_; }

  /// Eagerly opens one connection unless one is open (Call() also
  /// connects lazily).
  Status Connect() EXCLUDES(mu_);

  /// Open connections, idle or in a call.
  size_t num_connections() EXCLUDES(mu_) {
    MutexLock l(&mu_);
    return open_.size();
  }
  bool connected() EXCLUDES(mu_) { return num_connections() > 0; }

  /// One request/response roundtrip; the request payload is `parts`
  /// back to back (see Connection::Send). A kError reply parses into its
  /// carried Status; any other unexpected response type is an Internal
  /// error (and drops the connection — the stream may be desynced).
  Result<std::string> Call(MessageType request_type,
                           std::initializer_list<std::string_view> parts,
                           MessageType expected_response_type) EXCLUDES(mu_);
  Result<std::string> Call(MessageType request_type,
                           std::string_view request_payload,
                           MessageType expected_response_type) EXCLUDES(mu_) {
    return Call(request_type, {request_payload}, expected_response_type);
  }

  /// Typed wrapper: encodes `req`, calls, parses `Resp` from the reply.
  template <typename Req, typename Resp>
  Result<Resp> TypedCall(const Req& req) EXCLUDES(mu_) {
    std::string payload;
    req.AppendTo(&payload);
    auto reply = Call(Req::kType, payload, Resp::kType);
    SPANGLE_RETURN_NOT_OK(reply.status());
    return Resp::Parse(reply->data(), reply->size());
  }

  /// Shuts down every open connection's socket from any thread, failing
  /// each call blocked on one. An idle connection fails the next call
  /// that takes it, which drops it.
  void Abort() EXCLUDES(mu_);

 private:
  /// An idle connection, or a newly opened one (connected outside mu_).
  Result<std::shared_ptr<Connection>> Acquire() EXCLUDES(mu_);
  /// Returns a connection whose stream is intact to the idle pool.
  void Release(std::shared_ptr<Connection> conn) EXCLUDES(mu_);
  /// Forgets a connection after a transport error; it closes when the
  /// caller lets go of it.
  void Drop(const std::shared_ptr<Connection>& conn) EXCLUDES(mu_);

  const uint16_t port_;
  const RpcClientCounters counters_;

  Mutex mu_{LockRank::kNetClient, "RpcClient::mu_"};
  // Every open connection, idle or in a call, so Abort() reaches all of
  // them; a connection leaves only through Drop(), which is what keeps
  // Abort()'s shutdown off a closed (and possibly reused) fd.
  std::vector<std::shared_ptr<Connection>> open_ GUARDED_BY(mu_);
  std::vector<std::shared_ptr<Connection>> idle_ GUARDED_BY(mu_);
};

}  // namespace net
}  // namespace spangle

#endif  // SPANGLE_NET_RPC_CLIENT_H_
