#ifndef THALI_BASE_NET_UTIL_H_
#define THALI_BASE_NET_UTIL_H_

#include <cstddef>
#include <cstdint>
#include <span>

#include "base/statusor.h"

namespace thali {

// Thin Status-returning wrappers over the POSIX socket calls the network
// front-end (src/net) uses. Loopback-only by design: the server binds
// 127.0.0.1, never a routable interface — the front-end is an in-host
// edge (a reverse proxy terminates the real network), so these helpers
// refuse to listen anywhere else.

// Creates a non-blocking TCP listen socket bound to 127.0.0.1:`port`
// (port 0 picks an ephemeral port; read it back with LocalPort). Returns
// the fd.
StatusOr<int> ListenLoopback(uint16_t port, int backlog = 64);

// The port a bound socket actually listens on.
StatusOr<uint16_t> LocalPort(int fd);

// Blocking connect to 127.0.0.1:`port`. Returns the connected fd (in
// blocking mode — clients use blocking I/O, only the server event loop
// is non-blocking).
StatusOr<int> ConnectLoopback(uint16_t port);

// Accepts one pending connection on non-blocking `listen_fd` and puts it
// in non-blocking mode. Returns the fd, or kUnavailable when no
// connection is pending (EAGAIN) — the event-loop retry signal.
StatusOr<int> AcceptConnection(int listen_fd);

// Switches O_NONBLOCK on `fd`.
Status SetNonBlocking(int fd, bool nonblocking);

// Blocking loop until all `len` bytes are sent (client-side helper).
Status SendAll(int fd, const void* data, size_t len);

// Blocking gather send of `parts`, in order, as one byte stream: each
// sendmsg takes every unsent part over an iovec, so the parts are never
// joined into one buffer (client-side helper).
Status SendAllGather(int fd, std::span<const std::span<const uint8_t>> parts);

// Blocking loop until all `len` bytes are received. kUnavailable on a
// clean peer close mid-message.
Status RecvAll(int fd, void* data, size_t len);

// close(fd), ignoring EINTR; no-op for fd < 0.
void CloseFd(int fd);

}  // namespace thali

#endif  // THALI_BASE_NET_UTIL_H_
