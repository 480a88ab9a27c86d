#ifndef THALI_NET_NET_SERVER_H_
#define THALI_NET_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "base/statusor.h"
#include "net/connection.h"
#include "net/event_loop.h"
#include "serve/router.h"

namespace thali {
namespace net {

// Loopback TCP front-end over a ModelRouter: one event-loop thread
// multiplexes every client with epoll (or poll — see EventLoop), and
// non-blocking reads land straight in each connection's frame buffer.
// A DETECT frame is parsed in place and admitted through the routed
// serve::Server (priority lanes, deadline and shed policies run there)
// as a view of its pixels plus a share of the buffer that holds them:
// recv writes each pixel once and the letterbox reads it there, with no
// copy in between. Responses stream back with partial-write
// continuation, in request order per connection, and pumping a DETECT
// reply gives its frame buffer back to the connection for the next
// receive.
//
//   clients ──TCP──▶ EventLoop ──decode──▶ ModelRouter::Route
//                      ▲    ▲                    │ Submit (admission)
//                      │    └── Waker ◀── done ──┤
//                      └──encode ◀── future ◀────┘ worker pool
//
// Fairness: each loop tick services ready connections starting from a
// rotating offset and dispatches at most one frame per connection per
// tick, so one chatty client cannot starve the rest.
//
// Backpressure: a connection stops receiving while it has
// max_inflight_per_conn replies pending or holds a complete frame not
// yet dispatched. Its read interest is dropped, its bytes wait in the
// socket buffers and the peer blocks; receiving resumes as replies
// drain. A connection's memory is thus bounded by its cap: the frame
// buffers of its requests in serve, one buffer receiving, one spare.
//
// Replies are event-driven: each DETECT is submitted with a completion
// hook that pokes a shared Waker after the serve worker fulfils its
// future, so the loop wakes, encodes and writes the reply at once instead
// of polling futures on a timer. The Waker is reference-counted by those
// hooks and outlives Shutdown while requests are still inside serve.
class NetServer {
 public:
  struct Options {
    uint16_t port = 0;  // 0 = ephemeral; read back with port()
    int max_connections = 64;
    // Pending replies per connection (DETECTs in serve, and the replies
    // queued behind them) at which the server stops receiving from it.
    int max_inflight_per_conn = 32;
  };

  struct Counters {
    std::atomic<int64_t> connections_accepted{0};
    std::atomic<int64_t> connections_dropped{0};  // framing/io errors
    std::atomic<int64_t> frames_received{0};
    std::atomic<int64_t> detects{0};
    std::atomic<int64_t> detect_errors{0};  // non-OK submit or decode
    std::atomic<int64_t> pings{0};
    std::atomic<int64_t> stats_requests{0};
  };

  // Binds 127.0.0.1:port and starts the loop thread. `router` must
  // outlive the server and have at least one model registered.
  static StatusOr<std::unique_ptr<NetServer>> Start(
      const Options& options, serve::ModelRouter* router);

  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  uint16_t port() const { return port_; }
  const Counters& counters() const { return counters_; }
  EventLoop::Backend backend() const { return loop_.backend(); }

  // Stops the loop thread and closes every connection. Requests already
  // handed to the serve layer still complete there (their replies are
  // dropped with the sockets; their wakes go to the still-open Waker).
  // Idempotent; also run by the destructor.
  void Shutdown();

 private:
  NetServer(const Options& options, serve::ModelRouter* router,
            EventLoop loop, int listen_fd, uint16_t port,
            std::shared_ptr<Waker> waker);

  void LoopThread();
  void AcceptPending();
  // Reads whatever the socket has; returns false if the connection died
  // (io/framing error or EOF) and must be closed.
  bool ReadFromConnection(Connection* conn);
  // True while `conn` has fewer than max_inflight_per_conn replies
  // pending.
  bool UnderInflightCap(const Connection& conn) const;
  // True when `conn` holds a complete frame and is under its in-flight
  // cap, i.e. the next tick can dispatch without waiting for an event.
  bool CanDispatch(const Connection& conn) const;
  // True when `conn` may receive: under its cap and holding no complete
  // frame that waits for dispatch. The loop keeps read interest only
  // while this holds.
  bool WantsRead(const Connection& conn) const;
  // Decodes and dispatches one frame. Never fails the connection: bad
  // requests get error replies (framing errors are handled upstream).
  void DispatchFrame(Connection* conn, const FrameHeader& header,
                     std::span<const uint8_t> payload);
  void CloseConnection(int fd);
  std::string BuildStatsJson() const;

  Options options_;
  serve::ModelRouter* router_;
  EventLoop loop_;
  int listen_fd_;
  uint16_t port_;
  // Wakes the loop for shutdown and for every serve completion.
  std::shared_ptr<Waker> waker_;

  Counters counters_;
  std::map<int, std::unique_ptr<Connection>> conns_;  // loop thread only
  std::vector<int> rr_order_;  // rotating fairness order, loop thread only
  size_t rr_next_ = 0;

  std::atomic<bool> stop_{false};
  std::thread loop_thread_;
  std::atomic<bool> shut_down_{false};
};

}  // namespace net
}  // namespace thali

#endif  // THALI_NET_NET_SERVER_H_
