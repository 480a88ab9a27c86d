#ifndef THALI_NET_CONNECTION_H_
#define THALI_NET_CONNECTION_H_

#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <vector>

#include "base/statusor.h"
#include "eval/detection.h"
#include "net/protocol.h"
#include "serve/server.h"

namespace thali {
namespace net {

// Per-client connection state: a FrameReader reassembling the inbound
// byte stream in place, an ordered pending-reply queue, and an outbound
// byte buffer with partial-write continuation. All methods run on the
// event loop thread — a Connection is single-threaded state; the only
// cross-thread touch is the serve-layer worker fulfilling a pending
// reply's future (and then waking the loop, see NetServer).
//
// Responses go out in request order (the protocol has no correlation
// ids): a DETECT reply whose future resolved early waits behind an
// older pending reply. PumpPending moves resolved head replies into the
// write buffer; the server then flushes as the socket allows.
//
// A submitted DETECT reads its pixels from the receive buffer of its
// frame, which it co-owns with its pending reply. The serve layer drops
// the request's reference before it makes the future ready, so when
// PumpPending takes the result the connection holds the last reference
// and hands the buffer back to the reader for the next frame, with no
// lock.
class Connection {
 public:
  // One queued reply: either already encoded (PING, STATS, errors) or a
  // future from serve::Server::Submit that still has to resolve.
  struct PendingReply {
    bool ready = false;
    Op op = Op::kDetect;
    std::vector<uint8_t> encoded;  // valid when ready
    std::future<serve::Server::Result> future;  // valid when !ready
    // The receive buffer the request reads its pixels from (!ready).
    std::shared_ptr<FrameReader::Buffer> frame;
  };

  explicit Connection(int fd) : fd_(fd) {}

  int fd() const { return fd_; }

  // The inbound frame reassembler: the server receives straight into its
  // buffer and drains frames from it. A framing error is sticky and means
  // the connection must be closed.
  FrameReader& reader() { return reader_; }
  const FrameReader& reader() const { return reader_; }

  // Queues an already-encoded reply (keeps request order).
  void EnqueueReady(std::vector<uint8_t> frame);
  // Queues a reply that materializes when `future` resolves; `frame` is
  // the receive buffer the request reads, reclaimed once it resolves.
  void EnqueueFuture(Op op, std::future<serve::Server::Result> future,
                     std::shared_ptr<FrameReader::Buffer> frame);

  // Moves every resolved head-of-line reply into the write buffer and
  // gives each such request's frame buffer back to the reader. Returns
  // true if new bytes became writable.
  bool PumpPending();

  size_t pending_count() const { return pending_.size(); }

  // Flushes the write buffer with non-blocking send(); returns
  // kUnavailable when the socket would block (re-arm write interest),
  // IOError on a dead peer. Clears flushed bytes.
  Status FlushWrites();

  bool wants_write() const { return !outbox_.empty(); }

 private:
  int fd_;
  FrameReader reader_;
  std::deque<PendingReply> pending_;
  std::vector<uint8_t> outbox_;
  size_t outbox_off_ = 0;  // bytes of outbox_ already sent
};

}  // namespace net
}  // namespace thali

#endif  // THALI_NET_CONNECTION_H_
