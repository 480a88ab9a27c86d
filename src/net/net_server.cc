#include "net/net_server.h"

#include <errno.h>
#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <utility>

#include "base/logging.h"
#include "base/net_util.h"
#include "base/string_util.h"
#include "image/image_prepost.h"
#include "tensor/act_kernels.h"
#include "tensor/gemm.h"
#include "tensor/gemm_int8.h"

namespace thali {
namespace net {

namespace {

// Backstop sleep: every state change the loop acts on arrives as an fd
// event or a Waker notification, so this bound only caps a lost wake.
constexpr int kIdleTimeoutMs = 50;

}  // namespace

StatusOr<std::unique_ptr<NetServer>> NetServer::Start(
    const Options& options, serve::ModelRouter* router) {
  if (router == nullptr || router->ModelNames().empty()) {
    return Status::InvalidArgument("router must have at least one model");
  }
  StatusOr<int> listen_fd = ListenLoopback(options.port);
  if (!listen_fd.ok()) return listen_fd.status();
  StatusOr<uint16_t> port = LocalPort(*listen_fd);
  if (!port.ok()) {
    CloseFd(*listen_fd);
    return port.status();
  }
  StatusOr<EventLoop> loop = EventLoop::Create();
  if (!loop.ok()) {
    CloseFd(*listen_fd);
    return loop.status();
  }
  StatusOr<std::shared_ptr<Waker>> waker = Waker::Create();
  if (!waker.ok()) {
    CloseFd(*listen_fd);
    return waker.status();
  }
  return std::unique_ptr<NetServer>(
      new NetServer(options, router, std::move(loop).value(), *listen_fd,
                    *port, std::move(waker).value()));
}

NetServer::NetServer(const Options& options, serve::ModelRouter* router,
                     EventLoop loop, int listen_fd, uint16_t port,
                     std::shared_ptr<Waker> waker)
    : options_(options),
      router_(router),
      loop_(std::move(loop)),
      listen_fd_(listen_fd),
      port_(port),
      waker_(std::move(waker)) {
  THALI_CHECK_OK(loop_.Add(listen_fd_));
  THALI_CHECK_OK(loop_.Add(waker_->read_fd()));
  loop_thread_ = std::thread([this] { LoopThread(); });
}

NetServer::~NetServer() { Shutdown(); }

void NetServer::Shutdown() {
  if (shut_down_.exchange(true)) return;
  stop_.store(true, std::memory_order_release);
  waker_->Notify();  // out of the event wait
  loop_thread_.join();
  for (auto& [fd, conn] : conns_) CloseFd(fd);
  conns_.clear();
  CloseFd(listen_fd_);
  // The Waker stays open: completion hooks of requests still inside serve
  // hold it, and the last one to finish closes it.
}

void NetServer::AcceptPending() {
  for (;;) {
    StatusOr<int> fd = AcceptConnection(listen_fd_);
    if (!fd.ok()) {
      if (fd.status().code() != StatusCode::kUnavailable) {
        THALI_LOG(Warning) << "accept failed: " << fd.status().ToString();
      }
      return;
    }
    if (static_cast<int>(conns_.size()) >= options_.max_connections) {
      // At the connection cap the newcomer is turned away outright —
      // admission control for sockets, mirroring queue backpressure.
      CloseFd(*fd);
      counters_.connections_dropped.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    Status added = loop_.Add(*fd);
    if (!added.ok()) {
      CloseFd(*fd);
      continue;
    }
    conns_.emplace(*fd, std::make_unique<Connection>(*fd));
    counters_.connections_accepted.fetch_add(1, std::memory_order_relaxed);
  }
}

bool NetServer::ReadFromConnection(Connection* conn) {
  FrameReader& reader = conn->reader();
  for (;;) {
    // Receive in place: the kernel copies straight into the frame buffer.
    const std::span<uint8_t> tail = reader.WritableTail();
    const ssize_t n = recv(conn->fd(), tail.data(), tail.size(), 0);
    if (n > 0) {
      Status committed = reader.Commit(static_cast<size_t>(n));
      if (!committed.ok()) return false;  // framing error: cut the peer off
      // A complete frame ends the read: the rest waits in the socket until
      // this one is dispatched (see WantsRead).
      if (static_cast<size_t>(n) < tail.size() || reader.HasFrame()) {
        return true;
      }
      continue;  // more may be buffered
    }
    if (n == 0) return false;  // EOF
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    return false;
  }
}

std::string NetServer::BuildStatsJson() const {
  std::string json = "{\"router\": ";
  json += router_->StatsJson();
  json += StrFormat(
      ", \"net\": {\"backend\": \"%s\", \"connections\": %zu, "
      "\"connections_accepted\": %lld, \"connections_dropped\": %lld, "
      "\"frames_received\": %lld, \"detects\": %lld, \"detect_errors\": "
      "%lld, \"pings\": %lld, \"stats_requests\": %lld}",
      loop_.backend() == EventLoop::Backend::kEpoll ? "epoll" : "poll",
      conns_.size(),
      static_cast<long long>(
          counters_.connections_accepted.load(std::memory_order_relaxed)),
      static_cast<long long>(
          counters_.connections_dropped.load(std::memory_order_relaxed)),
      static_cast<long long>(
          counters_.frames_received.load(std::memory_order_relaxed)),
      static_cast<long long>(
          counters_.detects.load(std::memory_order_relaxed)),
      static_cast<long long>(
          counters_.detect_errors.load(std::memory_order_relaxed)),
      static_cast<long long>(
          counters_.pings.load(std::memory_order_relaxed)),
      static_cast<long long>(
          counters_.stats_requests.load(std::memory_order_relaxed)));
  // The kernel families this process dispatches to (each detected once).
  json += StrFormat(
      ", \"kernels\": {\"gemm\": \"%s\", \"int8\": \"%s\", "
      "\"act\": \"%s\", \"resize\": \"%s\"}}",
      GemmKernelName(), SelectInt8GemmKernel().name, ActKernelName(),
      ResizeKernelName());
  return json;
}

bool NetServer::UnderInflightCap(const Connection& conn) const {
  return conn.pending_count() <
         static_cast<size_t>(options_.max_inflight_per_conn);
}

bool NetServer::CanDispatch(const Connection& conn) const {
  return UnderInflightCap(conn) && conn.reader().HasFrame();
}

bool NetServer::WantsRead(const Connection& conn) const {
  return UnderInflightCap(conn) && !conn.reader().HasFrame();
}

void NetServer::DispatchFrame(Connection* conn, const FrameHeader& header,
                              std::span<const uint8_t> payload) {
  counters_.frames_received.fetch_add(1, std::memory_order_relaxed);
  switch (static_cast<Op>(header.op)) {
    case Op::kPing:
      counters_.pings.fetch_add(1, std::memory_order_relaxed);
      conn->EnqueueReady(EncodePingResponse(payload));
      return;
    case Op::kStats:
      counters_.stats_requests.fetch_add(1, std::memory_order_relaxed);
      conn->EnqueueReady(
          EncodeStatsResponse(Status::OK(), BuildStatsJson()));
      return;
    case Op::kDetect: {
      counters_.detects.fetch_add(1, std::memory_order_relaxed);
      DetectRequestView req;
      Status parsed = ParseDetectRequest(payload, &req);
      if (!parsed.ok()) {
        counters_.detect_errors.fetch_add(1, std::memory_order_relaxed);
        conn->EnqueueReady(EncodeDetectResponse(parsed, {}));
        return;
      }
      StatusOr<serve::Server*> server =
          router_->Route(std::string(req.model_id));
      if (!server.ok()) {
        counters_.detect_errors.fetch_add(1, std::memory_order_relaxed);
        conn->EnqueueReady(EncodeDetectResponse(server.status(), {}));
        return;
      }
      serve::Server::SubmitOptions submit;
      submit.priority = req.priority;
      // The worker wakes the loop once the reply is ready. The hook owns a
      // Waker reference, so a completion after Shutdown stays harmless.
      submit.on_complete = [waker = waker_] { waker->Notify(); };
      if (req.deadline_ms > 0) {
        submit.deadline = serve::ServeClock::now() +
                          std::chrono::milliseconds(req.deadline_ms);
      }
      // The request reads its pixels where recv put them and co-owns the
      // buffer; the connection receives on in another one.
      std::shared_ptr<FrameReader::Buffer> frame = conn->reader().TakeBuffer();
      auto future = (*server)->Submit(req.image, frame, submit);
      if (!future.ok()) {
        // Shed / backpressure / shutdown: the rejection status goes back
        // on the wire immediately, preserving reply order.
        conn->reader().Reclaim(std::move(frame));
        counters_.detect_errors.fetch_add(1, std::memory_order_relaxed);
        conn->EnqueueReady(EncodeDetectResponse(future.status(), {}));
        return;
      }
      conn->EnqueueFuture(Op::kDetect, std::move(future).value(),
                          std::move(frame));
      return;
    }
  }
  conn->EnqueueReady(EncodeErrorResponse(
      static_cast<Op>(header.op),
      Status::Unimplemented(StrFormat("unknown op %u", header.op))));
}

void NetServer::CloseConnection(int fd) {
  loop_.Remove(fd);
  CloseFd(fd);
  conns_.erase(fd);
  counters_.connections_dropped.fetch_add(1, std::memory_order_relaxed);
}

void NetServer::LoopThread() {
  std::vector<EventLoop::Event> events;
  std::vector<int> dead;
  while (!stop_.load(std::memory_order_acquire)) {
    // Sleep until an fd event or a Waker notification (serve completion,
    // shutdown) — unless a buffered frame can be dispatched right away.
    bool dispatchable = false;
    for (const auto& [fd, conn] : conns_) {
      if (CanDispatch(*conn)) {
        dispatchable = true;
        break;
      }
    }
    StatusOr<int> n = loop_.Wait(&events, dispatchable ? 0 : kIdleTimeoutMs);
    if (!n.ok()) {
      THALI_LOG(Warning) << "event loop wait failed: "
                         << n.status().ToString();
      continue;
    }

    // Readable/writable/error per fd this tick.
    dead.clear();
    bool accept_ready = false;
    std::map<int, EventLoop::Event> by_fd;
    for (const EventLoop::Event& e : events) {
      if (e.fd == listen_fd_) {
        accept_ready = e.readable;
        continue;
      }
      if (e.fd == waker_->read_fd()) {
        // Drained before the connections are pumped below, so a
        // completion that lands after a pump re-arms the next wait.
        waker_->Drain();
        continue;
      }
      by_fd[e.fd] = e;
    }
    if (accept_ready) AcceptPending();

    // Service connections in rotating order: at most one dispatched
    // frame per connection per tick (per-client round-robin fairness).
    rr_order_.clear();
    for (const auto& [fd, conn] : conns_) rr_order_.push_back(fd);
    if (!rr_order_.empty()) {
      rr_next_ %= rr_order_.size();
      std::rotate(rr_order_.begin(),
                  rr_order_.begin() + static_cast<ptrdiff_t>(rr_next_),
                  rr_order_.end());
      ++rr_next_;
    }

    for (int fd : rr_order_) {
      auto it = conns_.find(fd);
      if (it == conns_.end()) continue;
      Connection* conn = it->second.get();
      const auto ev = by_fd.find(fd);
      const bool readable = ev != by_fd.end() && ev->second.readable;
      const bool error = ev != by_fd.end() && ev->second.error;

      if (error) {
        dead.push_back(fd);
        continue;
      }
      // Only a connection under its cap and without an undispatched frame
      // receives; otherwise its bytes wait in the socket buffers and the
      // peer blocks (per-client backpressure that bounds memory).
      if (readable && WantsRead(*conn) && !ReadFromConnection(conn)) {
        dead.push_back(fd);
        continue;
      }
      // Dispatch at most one frame, and only while the connection is
      // under its in-flight cap (per-client backpressure).
      FrameHeader header;
      std::span<const uint8_t> payload;
      if (CanDispatch(*conn) && conn->reader().NextFrame(&header, &payload)) {
        DispatchFrame(conn, header, payload);
      }
      // Move resolved replies into the write buffer and flush.
      conn->PumpPending();
      if (conn->wants_write()) {
        Status flushed = conn->FlushWrites();
        if (!flushed.ok() &&
            flushed.code() != StatusCode::kUnavailable) {
          dead.push_back(fd);
          continue;
        }
      }
      Status armed =
          loop_.SetInterest(fd, WantsRead(*conn), conn->wants_write());
      if (!armed.ok()) dead.push_back(fd);
    }
    for (int fd : dead) CloseConnection(fd);
  }
}

}  // namespace net
}  // namespace thali
