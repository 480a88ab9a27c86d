#include "net/connection.h"

#include <errno.h>
#include <string.h>
#include <sys/socket.h>

#include <chrono>
#include <utility>

#include "base/string_util.h"

namespace thali {
namespace net {

void Connection::EnqueueReady(std::vector<uint8_t> frame) {
  PendingReply r;
  r.ready = true;
  r.encoded = std::move(frame);
  pending_.push_back(std::move(r));
}

void Connection::EnqueueFuture(Op op,
                               std::future<serve::Server::Result> future,
                               std::shared_ptr<FrameReader::Buffer> frame) {
  PendingReply r;
  r.ready = false;
  r.op = op;
  r.future = std::move(future);
  r.frame = std::move(frame);
  pending_.push_back(std::move(r));
}

bool Connection::PumpPending() {
  bool produced = false;
  while (!pending_.empty()) {
    PendingReply& head = pending_.front();
    if (!head.ready) {
      if (head.future.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        break;  // head-of-line not resolved; later replies must wait
      }
      serve::Server::Result result = head.future.get();
      head.encoded = result.ok()
                         ? EncodeDetectResponse(Status::OK(), *result)
                         : EncodeDetectResponse(result.status(), {});
      head.ready = true;
      // The request let go of its frame before the future became ready.
      reader_.Reclaim(std::move(head.frame));
    }
    outbox_.insert(outbox_.end(), head.encoded.begin(), head.encoded.end());
    pending_.pop_front();
    produced = true;
  }
  return produced;
}

Status Connection::FlushWrites() {
  while (outbox_off_ < outbox_.size()) {
    const ssize_t n = send(fd_, outbox_.data() + outbox_off_,
                           outbox_.size() - outbox_off_, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // Compact lazily: drop the sent prefix only once it dominates,
        // so a slow reader does not trigger a memmove per partial send.
        if (outbox_off_ > outbox_.size() / 2) {
          outbox_.erase(outbox_.begin(),
                        outbox_.begin() +
                            static_cast<ptrdiff_t>(outbox_off_));
          outbox_off_ = 0;
        }
        return Status::Unavailable("socket send buffer full");
      }
      return Status::IOError(StrFormat("send: %s", strerror(errno)));
    }
    outbox_off_ += static_cast<size_t>(n);
  }
  outbox_.clear();
  outbox_off_ = 0;
  return Status::OK();
}

}  // namespace net
}  // namespace thali
