#include "base/net_util.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <vector>

#include "base/string_util.h"

namespace thali {

namespace {

Status Errno(const char* what) {
  return Status::IOError(StrFormat("%s: %s", what, strerror(errno)));
}

}  // namespace

StatusOr<int> ListenLoopback(uint16_t port, int backlog) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  const int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    CloseFd(fd);
    return Errno("bind");
  }
  if (listen(fd, backlog) != 0) {
    CloseFd(fd);
    return Errno("listen");
  }
  Status nb = SetNonBlocking(fd, true);
  if (!nb.ok()) {
    CloseFd(fd);
    return nb;
  }
  return fd;
}

StatusOr<uint16_t> LocalPort(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return Errno("getsockname");
  }
  return ntohs(addr.sin_port);
}

StatusOr<int> ConnectLoopback(uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  int rc;
  do {
    rc = connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    CloseFd(fd);
    return Errno("connect");
  }
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

StatusOr<int> AcceptConnection(int listen_fd) {
  int fd;
  do {
    fd = accept(listen_fd, nullptr, nullptr);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return Status::Unavailable("no pending connection");
    }
    return Errno("accept");
  }
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  Status nb = SetNonBlocking(fd, true);
  if (!nb.ok()) {
    CloseFd(fd);
    return nb;
  }
  return fd;
}

Status SetNonBlocking(int fd, bool nonblocking) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0) return Errno("fcntl(F_GETFL)");
  const int want = nonblocking ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (want != flags && fcntl(fd, F_SETFL, want) != 0) {
    return Errno("fcntl(F_SETFL)");
  }
  return Status::OK();
}

Status SendAll(int fd, const void* data, size_t len) {
  const std::span<const uint8_t> part(static_cast<const uint8_t*>(data), len);
  return SendAllGather(fd, {&part, 1});
}

Status SendAllGather(int fd,
                     std::span<const std::span<const uint8_t>> parts) {
  std::vector<iovec> iov;
  iov.reserve(parts.size());
  for (std::span<const uint8_t> part : parts) {
    iov.push_back({const_cast<uint8_t*>(part.data()), part.size()});
  }
  size_t first = 0;  // first part with unsent bytes
  while (first < iov.size()) {
    msghdr msg{};
    msg.msg_iov = iov.data() + first;
    msg.msg_iovlen = iov.size() - first;
    const ssize_t n = sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("sendmsg");
    }
    // Skip the parts this call finished; resume inside a partial one.
    size_t sent = static_cast<size_t>(n);
    while (first < iov.size() && sent >= iov[first].iov_len) {
      sent -= iov[first].iov_len;
      ++first;
    }
    if (first < iov.size()) {
      iov[first].iov_base = static_cast<uint8_t*>(iov[first].iov_base) + sent;
      iov[first].iov_len -= sent;
    }
  }
  return Status::OK();
}

Status RecvAll(int fd, void* data, size_t len) {
  char* p = static_cast<char*>(data);
  while (len > 0) {
    const ssize_t n = recv(fd, p, len, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("recv");
    }
    if (n == 0) return Status::Unavailable("connection closed by peer");
    p += n;
    len -= static_cast<size_t>(n);
  }
  return Status::OK();
}

void CloseFd(int fd) {
  if (fd < 0) return;
  int rc;
  do {
    rc = close(fd);
  } while (rc != 0 && errno == EINTR);
}

}  // namespace thali
