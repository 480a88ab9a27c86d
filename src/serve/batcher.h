#ifndef THALI_SERVE_BATCHER_H_
#define THALI_SERVE_BATCHER_H_

#include <chrono>
#include <functional>
#include <future>
#include <memory>
#include <vector>

#include "base/statusor.h"
#include "eval/detection.h"
#include "image/image.h"
#include "serve/lane_queue.h"
#include "serve/metrics.h"

namespace thali {
namespace serve {

using ServeClock = std::chrono::steady_clock;

// One in-flight detection request. Complete fulfils the promise exactly
// once, with either the detections for `image` or an error status
// (kDeadlineExceeded when the deadline passed while the request waited in
// the queue).
struct Request {
  // The pixels, and what keeps them alive: the submitted Image, or the
  // receive buffer of the THL1 frame they arrived in. Complete drops both
  // before it fulfils the promise, so whoever waits on the future may
  // reuse that memory once the future is ready.
  ImageView image;
  std::shared_ptr<const void> pixel_owner;
  ServeClock::time_point submit_time;
  // time_point::max() means no deadline.
  ServeClock::time_point deadline = ServeClock::time_point::max();
  Priority priority = Priority::kInteractive;
  std::promise<StatusOr<std::vector<Detection>>> promise;
  // Runs right after the promise is fulfilled, on the completing thread;
  // may be empty (see Server::SubmitOptions::on_complete).
  std::function<void()> on_complete;

  void Complete(StatusOr<std::vector<Detection>> result) {
    image = ImageView();
    pixel_owner.reset();
    promise.set_value(std::move(result));
    if (on_complete) on_complete();
  }
};

using RequestPtr = std::unique_ptr<Request>;
// Two bounded lanes (interactive / batch); plain Submit lands on the
// interactive lane, so single-class callers see one bounded FIFO.
using RequestQueue = LaneQueue<RequestPtr>;

// Dynamic micro-batcher: pulls requests off a shared queue and groups them
// into batches of at most `max_batch_size`. It blocks for the first
// request, then takes whatever is already queued behind it; by default
// (max_linger 0) the batch closes the moment the queue is empty, so a lone
// request never waits for company. An explicit `max_linger` additionally
// holds an underfull batch open that long after the first request for
// stragglers — whichever limit trips first closes the batch. Requests
// whose deadline already passed are completed with kDeadlineExceeded at
// pop time and never occupy a batch slot, so an expired request costs no
// network time.
//
// Stateless between batches: several workers may run NextBatch on the same
// queue concurrently, each forming its own batches (the queue is the only
// shared state).
class Batcher {
 public:
  struct Options {
    int max_batch_size = 8;
    std::chrono::microseconds max_linger{0};
  };

  // `queue` and `metrics` must outlive the batcher. Records queue-wait
  // latency and batch-size metrics as batches form; counts expired
  // requests under `timed_out`.
  Batcher(RequestQueue* queue, Options options, ServerMetrics* metrics);

  // Blocks until it can return a non-empty batch (true) or the queue is
  // closed and fully drained (false). On a closed queue the linger wait is
  // skipped: whatever is left drains in max_batch_size groups immediately.
  bool NextBatch(std::vector<RequestPtr>* batch);

  const Options& options() const { return options_; }

 private:
  // If `req`'s deadline has passed, completes it with kDeadlineExceeded
  // (recording metrics) and returns true.
  bool ExpireIfLate(RequestPtr* req, ServeClock::time_point now);

  RequestQueue* queue_;
  Options options_;
  ServerMetrics* metrics_;
};

}  // namespace serve
}  // namespace thali

#endif  // THALI_SERVE_BATCHER_H_
