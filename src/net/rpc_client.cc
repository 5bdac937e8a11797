#include "net/rpc_client.h"

#include <algorithm>
#include <utility>

namespace spangle {
namespace net {

Status RpcClient::Connect() {
  {
    MutexLock l(&mu_);
    if (!open_.empty()) return Status::OK();
  }
  auto conn = Acquire();
  SPANGLE_RETURN_NOT_OK(conn.status());
  Release(*std::move(conn));
  return Status::OK();
}

Result<std::shared_ptr<Connection>> RpcClient::Acquire() {
  {
    MutexLock l(&mu_);
    if (!idle_.empty()) {
      std::shared_ptr<Connection> conn = std::move(idle_.back());
      idle_.pop_back();
      return conn;
    }
  }
  auto socket = Socket::ConnectLoopback(port_);
  SPANGLE_RETURN_NOT_OK(socket.status());
  auto conn = std::make_shared<Connection>(
      std::move(*socket),
      ByteCounters{counters_.bytes_sent, counters_.bytes_received});
  MutexLock l(&mu_);
  open_.push_back(conn);
  return conn;
}

void RpcClient::Release(std::shared_ptr<Connection> conn) {
  MutexLock l(&mu_);
  idle_.push_back(std::move(conn));
}

void RpcClient::Drop(const std::shared_ptr<Connection>& conn) {
  MutexLock l(&mu_);
  open_.erase(std::remove(open_.begin(), open_.end(), conn), open_.end());
}

Result<std::string> RpcClient::Call(
    MessageType request_type, std::initializer_list<std::string_view> parts,
    MessageType expected_response_type) {
  auto acquired = Acquire();
  SPANGLE_RETURN_NOT_OK(acquired.status());
  std::shared_ptr<Connection> conn = *std::move(acquired);
  MessageType resp_type = MessageType::kError;
  std::string resp_payload;
  Status st = conn->Send(request_type, parts);
  if (st.ok()) st = conn->Recv(&resp_type, &resp_payload);
  if (!st.ok()) {
    Drop(conn);
    return st;
  }
  if (resp_type == MessageType::kError) {
    // A typed error reply is an application failure, not a transport one:
    // the stream stays framed, keep the connection.
    Release(std::move(conn));
    auto err = ErrorResponse::Parse(resp_payload.data(), resp_payload.size());
    SPANGLE_RETURN_NOT_OK(err.status());
    return err->ToStatus();
  }
  if (resp_type != expected_response_type) {
    // Unexpected type means the request/response pairing is off; the
    // stream can no longer be trusted.
    Drop(conn);
    return Status::Internal(
        std::string("rpc: expected ") +
        MessageTypeName(expected_response_type) + " reply, got " +
        MessageTypeName(resp_type));
  }
  Release(std::move(conn));
  if (counters_.roundtrips != nullptr) {
    counters_.roundtrips->fetch_add(1, std::memory_order_relaxed);
  }
  return resp_payload;
}

void RpcClient::Abort() {
  MutexLock l(&mu_);
  for (const auto& conn : open_) conn->ShutdownBoth();
}

}  // namespace net
}  // namespace spangle
