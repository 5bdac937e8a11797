#ifndef SPANGLE_NET_SOCKET_H_
#define SPANGLE_NET_SOCKET_H_

#include <sys/uio.h>

#include <cstddef>
#include <cstdint>

#include "common/result.h"
#include "common/status.h"

namespace spangle {
namespace net {

/// Thin RAII wrapper over one blocking TCP socket fd. All traffic is
/// loopback (driver and executor daemons share a host), so the transport
/// keeps to the simple blocking read/write model; timeouts come from
/// SO_RCVTIMEO when a caller needs them. Writes use MSG_NOSIGNAL — a
/// dead peer surfaces as an IOError Status, never SIGPIPE.
///
/// Thread contract: SendAllv/RecvAll from one thread at a time (an
/// RpcClient connection belongs to one call at a time). ShutdownBoth()
/// is the exception — it may be called from another thread to unblock a
/// stuck read, which is how the fleet aborts in-flight RPCs against a
/// killed daemon.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { Close(); }

  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept {
    if (this != &other) {
      Close();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  /// Blocking connect to 127.0.0.1:port (TCP_NODELAY set: the RPCs are
  /// small request/response pairs, Nagle only adds latency).
  // spangle-lint: may-block
  static Result<Socket> ConnectLoopback(uint16_t port);

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Writes every byte of the `count` buffers in `iov`, in order, or
  /// returns an IOError. One sendmsg gathers them all, so a message's
  /// parts need not be copied into one buffer first. Consumes `iov`
  /// (entries are advanced past what was written).
  // spangle-lint: may-block
  Status SendAllv(struct iovec* iov, size_t count);

  /// Reads exactly n bytes. A clean EOF mid-read is an IOError too: the
  /// framing layer never expects a peer to close inside a frame.
  // spangle-lint: may-block
  Status RecvAll(char* data, size_t n);

  /// Receive timeout for subsequent reads; 0 disables. A timed-out read
  /// returns IOError mentioning the timeout.
  Status SetRecvTimeoutMs(int ms);

  /// Half-closes both directions, unblocking any reader/writer on this
  /// socket in other threads. The fd stays owned until Close().
  void ShutdownBoth();

  void Close();

 private:
  int fd_ = -1;
};

/// Listening socket bound to 127.0.0.1. Port 0 binds an ephemeral port;
/// port() reports the real one (the daemon announces it on stdout).
class Listener {
 public:
  Listener() = default;
  ~Listener() { Close(); }

  Listener(Listener&& other) noexcept
      : fd_(other.fd_), port_(other.port_) {
    other.fd_ = -1;
    other.port_ = 0;
  }
  Listener& operator=(Listener&& other) noexcept {
    if (this != &other) {
      Close();
      fd_ = other.fd_;
      port_ = other.port_;
      other.fd_ = -1;
      other.port_ = 0;
    }
    return *this;
  }
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  static Result<Listener> BindLoopback(uint16_t port);

  bool valid() const { return fd_ >= 0; }
  uint16_t port() const { return port_; }

  /// Blocks for one inbound connection. After ShutdownAccept() (from any
  /// thread), pending and future Accept calls return an error — the
  /// server's stop path.
  // spangle-lint: may-block
  Result<Socket> Accept();

  /// Unblocks Accept() from another thread (shutdown(2) on the listening
  /// fd; Linux wakes the blocked accept with an error).
  void ShutdownAccept();

  void Close();

 private:
  int fd_ = -1;
  uint16_t port_ = 0;
};

}  // namespace net
}  // namespace spangle

#endif  // SPANGLE_NET_SOCKET_H_
