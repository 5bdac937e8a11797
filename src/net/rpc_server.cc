#include "net/rpc_server.h"

#include <utility>

namespace spangle {
namespace net {

RpcServer::RpcServer(ByteCounters counters) : counters_(counters) {}

RpcServer::~RpcServer() { Stop(); }

Status RpcServer::Start(uint16_t port, Handler handler) {
  {
    MutexLock l(&mu_);
    if (started_) return Status::FailedPrecondition("server already started");
    started_ = true;
    stopping_ = false;
  }
  auto listener = Listener::BindLoopback(port);
  SPANGLE_RETURN_NOT_OK(listener.status());
  listener_ = std::move(*listener);
  handler_ = std::move(handler);
  acceptor_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void RpcServer::Stop() {
  std::vector<std::shared_ptr<Conn>> conns;
  std::vector<std::thread> threads;
  {
    MutexLock l(&mu_);
    if (!started_ || stopping_) return;
    stopping_ = true;
    conns = conns_;
    threads = std::move(threads_);
    threads_.clear();
  }
  // Wake the acceptor, then every per-connection reader; only then join.
  listener_.ShutdownAccept();
  for (auto& c : conns) c->connection.ShutdownBoth();
  if (acceptor_.joinable()) acceptor_.join();
  for (auto& t : threads) {
    if (t.joinable()) t.join();
  }
  {
    MutexLock l(&mu_);
    conns_.clear();
    started_ = false;
  }
  listener_.Close();
}

void RpcServer::AcceptLoop() {
  while (true) {
    auto socket = listener_.Accept();
    if (!socket.ok()) return;  // ShutdownAccept or fatal listener error
    auto conn = std::make_shared<Conn>(
        Connection(std::move(*socket), counters_));
    {
      MutexLock l(&mu_);
      if (stopping_) return;  // raced with Stop(): drop the connection
      conns_.push_back(conn);
      threads_.emplace_back([this, conn] { ServeConnection(conn); });
    }
  }
}

void RpcServer::ServeConnection(std::shared_ptr<Conn> conn) {
  while (true) {
    MessageType req_type;
    std::string req_payload;
    Status st = conn->connection.Recv(&req_type, &req_payload);
    if (!st.ok()) break;  // peer closed, Stop() shutdown, or corrupt frame

    RpcReply reply;
    const Status handled =
        handler_(req_type, std::move(req_payload), &reply);
    if (!handled.ok()) {
      reply = RpcReply();
      ErrorResponse::FromStatus(handled).AppendTo(&reply.head);
    }
    const Status sent =
        conn->connection.Send(reply.type, {reply.head, reply.body, reply.tail});
    if (!sent.ok()) break;
  }
  MutexLock l(&mu_);
  for (auto it = conns_.begin(); it != conns_.end(); ++it) {
    if (it->get() == conn.get()) {
      conns_.erase(it);
      break;
    }
  }
}

}  // namespace net
}  // namespace spangle
