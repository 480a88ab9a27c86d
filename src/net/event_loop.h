#ifndef THALI_NET_EVENT_LOOP_H_
#define THALI_NET_EVENT_LOOP_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "base/statusor.h"

namespace thali {
namespace net {

// Readiness multiplexer over the server's fds: epoll(7) where available,
// with a portable poll(2) backend selected when epoll is unavailable or
// THALI_NET_POLL=1 (the fallback path stays continuously tested that
// way). Level-triggered in both backends — the connection state machines
// set read and write interest explicitly (a connection that may not
// receive drops read interest, so its unread bytes do not wake the loop
// on every wait), so edge semantics buy nothing here. Hang-ups and
// errors are reported whatever the interest.
class EventLoop {
 public:
  struct Event {
    int fd = -1;
    bool readable = false;
    bool writable = false;
    bool error = false;  // HUP / ERR: close the connection
  };

  enum class Backend { kEpoll, kPoll };

  // Picks the backend (env override first, then epoll, then poll).
  static StatusOr<EventLoop> Create();

  EventLoop(EventLoop&& other) noexcept;
  EventLoop& operator=(EventLoop&&) = delete;
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  Backend backend() const { return backend_; }

  // Registers `fd` for readability.
  Status Add(int fd);
  // Sets the read and write interest of a registered fd.
  Status SetInterest(int fd, bool read, bool write);
  // Deregisters; call before closing the fd.
  void Remove(int fd);

  // Blocks up to `timeout_ms` (-1 = forever) and appends ready events to
  // *out (cleared first). Returns the number of events.
  StatusOr<int> Wait(std::vector<Event>* out, int timeout_ms);

 private:
  struct Interest {
    bool read = true;
    bool write = false;
  };

  explicit EventLoop(Backend backend, int epoll_fd)
      : backend_(backend), epoll_fd_(epoll_fd) {}

  // epoll_ctl(op) with `interest` (kEpoll only).
  Status Control(int op, int fd, Interest interest);

  Backend backend_;
  int epoll_fd_ = -1;                            // kEpoll only
  std::unordered_map<int, Interest> interest_;  // registered fds
};

// Wakes an EventLoop from other threads through a non-blocking self-pipe
// whose read end the loop watches. Shared ownership is the point: every
// notifier holds a reference, so a notification that lands after the
// loop is gone still writes to this open pipe, never to a closed or
// reused fd. The pipe closes with the last reference.
class Waker {
 public:
  static StatusOr<std::shared_ptr<Waker>> Create();
  ~Waker();

  Waker(const Waker&) = delete;
  Waker& operator=(const Waker&) = delete;

  // The fd to register with the loop (readable while a wake is pending).
  int read_fd() const { return rx_; }

  // Thread-safe and never blocks: a full pipe already holds a wake.
  void Notify();
  // Consumes pending wakes; call from the loop thread before it re-checks
  // the state the notifiers changed.
  void Drain();

 private:
  Waker(int rx, int tx) : rx_(rx), tx_(tx) {}

  const int rx_;
  const int tx_;
};

}  // namespace net
}  // namespace thali

#endif  // THALI_NET_EVENT_LOOP_H_
