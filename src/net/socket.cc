#include "net/socket.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string>

namespace spangle {
namespace net {

namespace {

Status Errno(const std::string& what) {
  return Status::IOError(what + ": " + std::strerror(errno));
}

sockaddr_in LoopbackAddr(uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return addr;
}

void SetNoDelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

Result<Socket> Socket::ConnectLoopback(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return Errno("socket");
  Socket s(fd);
  sockaddr_in addr = LoopbackAddr(port);
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    return Errno("connect to 127.0.0.1:" + std::to_string(port));
  }
  SetNoDelay(fd);
  return s;
}

Status Socket::SendAllv(struct iovec* iov, size_t count) {
  if (fd_ < 0) return Status::FailedPrecondition("send on closed socket");
  while (true) {
    // Skip the buffers already written (and empty ones).
    while (count > 0 && iov->iov_len == 0) {
      ++iov;
      --count;
    }
    if (count == 0) return Status::OK();
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = count;
    const ssize_t w = ::sendmsg(fd_, &msg, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return Errno("send");
    }
    if (w == 0) return Status::IOError("send: connection closed by peer");
    // A short write: advance past what the kernel took.
    auto left = static_cast<size_t>(w);
    for (; left > 0; ++iov, --count) {
      if (left < iov->iov_len) {
        iov->iov_base = static_cast<char*>(iov->iov_base) + left;
        iov->iov_len -= left;
        break;
      }
      left -= iov->iov_len;
      iov->iov_len = 0;
    }
  }
}

Status Socket::RecvAll(char* data, size_t n) {
  if (fd_ < 0) return Status::FailedPrecondition("recv on closed socket");
  size_t off = 0;
  while (off < n) {
    const ssize_t r = ::recv(fd_, data + off, n - off, 0);
    if (r < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return Status::IOError("recv: timed out");
      }
      return Errno("recv");
    }
    if (r == 0) {
      return Status::IOError("recv: connection closed by peer (got " +
                             std::to_string(off) + " of " +
                             std::to_string(n) + " bytes)");
    }
    off += static_cast<size_t>(r);
  }
  return Status::OK();
}

Status Socket::SetRecvTimeoutMs(int ms) {
  if (fd_ < 0) return Status::FailedPrecondition("closed socket");
  timeval tv{};
  tv.tv_sec = ms / 1000;
  tv.tv_usec = (ms % 1000) * 1000;
  if (::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) != 0) {
    return Errno("setsockopt(SO_RCVTIMEO)");
  }
  return Status::OK();
}

void Socket::ShutdownBoth() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void Socket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<Listener> Listener::BindLoopback(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return Errno("socket");
  Listener l;
  l.fd_ = fd;
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr = LoopbackAddr(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return Errno("bind 127.0.0.1:" + std::to_string(port));
  }
  if (::listen(fd, 64) != 0) return Errno("listen");
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return Errno("getsockname");
  }
  l.port_ = ntohs(addr.sin_port);
  return l;
}

Result<Socket> Listener::Accept() {
  if (fd_ < 0) return Status::FailedPrecondition("accept on closed listener");
  int conn;
  do {
    conn = ::accept4(fd_, nullptr, nullptr, SOCK_CLOEXEC);
  } while (conn < 0 && errno == EINTR);
  if (conn < 0) return Errno("accept");
  SetNoDelay(conn);
  return Socket(conn);
}

void Listener::ShutdownAccept() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void Listener::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
    port_ = 0;
  }
}

}  // namespace net
}  // namespace spangle
