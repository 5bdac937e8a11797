#ifndef SPANGLE_NET_RPC_SERVER_H_
#define SPANGLE_NET_RPC_SERVER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "net/connection.h"
#include "net/message.h"
#include "net/socket.h"

namespace spangle {
namespace net {

/// A handler's response. Its payload goes out as `head`, then `body`,
/// then `tail`, in one gathered write, so a stored block is sent from
/// where it lives; `pin` keeps `body`'s bytes alive until they are
/// written. Most replies use `head` alone.
struct RpcReply {
  MessageType type = MessageType::kError;
  std::string head;
  std::string_view body;
  std::shared_ptr<const void> pin;
  std::string tail;
};

/// Blocking request/response RPC server: one acceptor thread plus one
/// handler thread per connection. Connection counts are tiny (one driver
/// with a handful of clients per daemon), so thread-per-connection beats
/// an event loop on simplicity with no relevant cost.
///
/// The handler maps a request frame to a response frame. It owns the
/// request payload it is handed (a handler may keep it, as the daemon
/// keeps a PutBlock payload as the stored block). A non-OK return makes
/// the server reply with a kError frame carrying the status, so handler
/// failures surface at the caller as typed Status — the connection stays
/// usable.
class RpcServer {
 public:
  /// (request type, request payload, &reply).
  using Handler = std::function<Status(MessageType, std::string, RpcReply*)>;

  explicit RpcServer(ByteCounters counters = {});
  ~RpcServer();

  RpcServer(const RpcServer&) = delete;
  RpcServer& operator=(const RpcServer&) = delete;

  /// Binds 127.0.0.1:port (0 = ephemeral; see port()) and starts the
  /// acceptor thread. The handler may be called from many threads at
  /// once and must synchronize its own state.
  Status Start(uint16_t port, Handler handler);

  uint16_t port() const { return listener_.port(); }

  /// Unblocks the acceptor and all in-flight connection reads, then joins
  /// every server thread. Idempotent.
  void Stop();

 private:
  struct Conn {
    explicit Conn(Connection c) : connection(std::move(c)) {}
    Connection connection;
  };

  void AcceptLoop();
  void ServeConnection(std::shared_ptr<Conn> conn);

  Listener listener_;
  Handler handler_;
  ByteCounters counters_;

  Mutex mu_{LockRank::kNetServer, "RpcServer::mu_"};
  bool started_ GUARDED_BY(mu_) = false;
  bool stopping_ GUARDED_BY(mu_) = false;
  // Live connections, kept so Stop() can shut their sockets down and
  // unblock the per-connection reader threads.
  std::vector<std::shared_ptr<Conn>> conns_ GUARDED_BY(mu_);
  std::vector<std::thread> threads_ GUARDED_BY(mu_);
  std::thread acceptor_;
};

}  // namespace net
}  // namespace spangle

#endif  // SPANGLE_NET_RPC_SERVER_H_
