#include "net/event_loop.h"

#include <errno.h>
#include <poll.h>
#include <string.h>
#include <unistd.h>

#include <cstdlib>

#ifdef __linux__
#include <sys/epoll.h>
#endif

#include "base/net_util.h"
#include "base/string_util.h"

namespace thali {
namespace net {

namespace {

Status Errno(const char* what) {
  return Status::IOError(StrFormat("%s: %s", what, strerror(errno)));
}

bool ForcePollBackend() {
  const char* env = std::getenv("THALI_NET_POLL");
  return env != nullptr && env[0] == '1';
}

}  // namespace

StatusOr<EventLoop> EventLoop::Create() {
#ifdef __linux__
  if (!ForcePollBackend()) {
    const int efd = epoll_create1(0);
    if (efd >= 0) return EventLoop(Backend::kEpoll, efd);
    // Fall through to poll on any epoll failure.
  }
#endif
  return EventLoop(Backend::kPoll, -1);
}

EventLoop::EventLoop(EventLoop&& other) noexcept
    : backend_(other.backend_),
      epoll_fd_(other.epoll_fd_),
      interest_(std::move(other.interest_)) {
  other.epoll_fd_ = -1;
}

EventLoop::~EventLoop() {
  if (epoll_fd_ >= 0) CloseFd(epoll_fd_);
}

Status EventLoop::Control(int op, int fd, Interest interest) {
#ifdef __linux__
  epoll_event ev{};
  ev.events = (interest.read ? EPOLLIN : 0u) | (interest.write ? EPOLLOUT : 0u);
  ev.data.fd = fd;
  if (epoll_ctl(epoll_fd_, op, fd, &ev) != 0) return Errno("epoll_ctl");
#else
  (void)op;
  (void)fd;
  (void)interest;
#endif
  return Status::OK();
}

Status EventLoop::Add(int fd) {
#ifdef __linux__
  if (backend_ == Backend::kEpoll) {
    THALI_RETURN_IF_ERROR(Control(EPOLL_CTL_ADD, fd, Interest{}));
  }
#endif
  interest_[fd] = Interest{};
  return Status::OK();
}

Status EventLoop::SetInterest(int fd, bool read, bool write) {
  auto it = interest_.find(fd);
  if (it == interest_.end()) {
    return Status::NotFound("fd not registered");
  }
  if (it->second.read == read && it->second.write == write) {
    return Status::OK();
  }
  it->second = Interest{read, write};
#ifdef __linux__
  if (backend_ == Backend::kEpoll) {
    return Control(EPOLL_CTL_MOD, fd, it->second);
  }
#endif
  return Status::OK();
}

void EventLoop::Remove(int fd) {
  if (interest_.erase(fd) == 0) return;
#ifdef __linux__
  if (backend_ == Backend::kEpoll) {
    epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  }
#endif
}

StatusOr<int> EventLoop::Wait(std::vector<Event>* out, int timeout_ms) {
  out->clear();
#ifdef __linux__
  if (backend_ == Backend::kEpoll) {
    epoll_event events[64];
    int n;
    do {
      n = epoll_wait(epoll_fd_, events, 64, timeout_ms);
    } while (n < 0 && errno == EINTR);
    if (n < 0) return Errno("epoll_wait");
    out->reserve(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      Event e;
      e.fd = events[i].data.fd;
      e.readable = (events[i].events & EPOLLIN) != 0;
      e.writable = (events[i].events & EPOLLOUT) != 0;
      e.error = (events[i].events & (EPOLLERR | EPOLLHUP)) != 0;
      out->push_back(e);
    }
    return n;
  }
#endif
  std::vector<pollfd> pfds;
  pfds.reserve(interest_.size());
  for (const auto& [fd, interest] : interest_) {
    pollfd p{};
    p.fd = fd;
    p.events = static_cast<short>((interest.read ? POLLIN : 0) |
                                  (interest.write ? POLLOUT : 0));
    pfds.push_back(p);
  }
  int n;
  do {
    n = poll(pfds.data(), pfds.size(), timeout_ms);
  } while (n < 0 && errno == EINTR);
  if (n < 0) return Errno("poll");
  for (const pollfd& p : pfds) {
    if (p.revents == 0) continue;
    Event e;
    e.fd = p.fd;
    e.readable = (p.revents & POLLIN) != 0;
    e.writable = (p.revents & POLLOUT) != 0;
    e.error = (p.revents & (POLLERR | POLLHUP | POLLNVAL)) != 0;
    out->push_back(e);
  }
  return static_cast<int>(out->size());
}

StatusOr<std::shared_ptr<Waker>> Waker::Create() {
  int fds[2];
  if (pipe(fds) != 0) return Errno("pipe");
  for (int fd : fds) {
    Status nb = SetNonBlocking(fd, true);
    if (!nb.ok()) {
      CloseFd(fds[0]);
      CloseFd(fds[1]);
      return nb;
    }
  }
  return std::shared_ptr<Waker>(new Waker(fds[0], fds[1]));
}

Waker::~Waker() {
  CloseFd(rx_);
  CloseFd(tx_);
}

void Waker::Notify() {
  const char byte = 'w';
  // EAGAIN means the pipe is full of unread wakes, which is as good.
  (void)!write(tx_, &byte, 1);
}

void Waker::Drain() {
  char drain[64];
  while (read(rx_, drain, sizeof(drain)) > 0) {
  }
}

}  // namespace net
}  // namespace thali
