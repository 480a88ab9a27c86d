#ifndef THALI_SERVE_LANE_QUEUE_H_
#define THALI_SERVE_LANE_QUEUE_H_

#include <array>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <utility>

#include "base/status.h"

namespace thali {
namespace serve {

// Request priority classes. Interactive requests (a user waiting on a
// platter photo) are served before batch requests (offline re-scoring,
// crawlers); the admission layer sheds batch work first under pressure.
enum class Priority { kInteractive = 0, kBatch = 1 };

// A two-lane bounded MPMC queue: one independently-bounded FIFO lane per
// priority class, drained through a single consumer interface. Producers
// never block (TryPush returns kResourceExhausted when the target lane is
// full), so admission control is a visible Status at the call site
// instead of an unbounded wait; consumers block (optionally with a
// timeout) until either lane has an item or the queue is closed. All
// methods are thread-safe.
//
// Pop order is strict priority — interactive first — with a bounded
// anti-starvation concession: every kBatchPreferEvery-th pop services the
// batch lane first if it is non-empty, so batch work keeps trickling
// through even under a saturating interactive stream. (Shedding, not
// fairness, is the main batch-lane control under overload — see
// Server::Options::admission.)
//
// Close() is the shutdown edge: pushes are rejected, consumers drain both
// lanes, then Pop reports closure.
template <typename T>
class LaneQueue {
 public:
  static constexpr int kNumLanes = 2;
  // Every 4th pop lets the batch lane go first (anti-starvation).
  static constexpr int kBatchPreferEvery = 4;

  LaneQueue(size_t interactive_capacity, size_t batch_capacity)
      : caps_{interactive_capacity, batch_capacity} {}
  // Single-capacity convenience: each lane gets `capacity` slots.
  explicit LaneQueue(size_t capacity) : LaneQueue(capacity, capacity) {}

  LaneQueue(const LaneQueue&) = delete;
  LaneQueue& operator=(const LaneQueue&) = delete;

  // Enqueues `item` on `lane` if that lane has room. kResourceExhausted
  // when the lane is full, kFailedPrecondition after Close.
  Status TryPush(T item, Priority lane = Priority::kInteractive) {
    const size_t li = static_cast<size_t>(lane);
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_) return Status::FailedPrecondition("queue closed");
      if (lanes_[li].size() >= caps_[li]) {
        return Status::ResourceExhausted("lane full");
      }
      lanes_[li].push_back(std::move(item));
    }
    cv_.notify_one();
    return Status::OK();
  }

  // Blocks until an item is available in either lane (sets *out, returns
  // true) or the queue is closed and both lanes drained (returns false).
  bool Pop(T* out) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return closed_ || !EmptyLocked(); });
    return PopLocked(out);
  }

  // As Pop, but gives up after `timeout` (returns false). A zero timeout
  // makes this a non-blocking poll.
  bool PopWait(T* out, std::chrono::nanoseconds timeout) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait_for(lock, timeout, [this] { return closed_ || !EmptyLocked(); });
    return PopLocked(out);
  }

  // Rejects further pushes and wakes every blocked consumer; queued items
  // in both lanes remain poppable. Idempotent.
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

  // Instantaneous depth of one lane / both lanes (a snapshot taken under
  // the lock: always within capacity, possibly stale on return).
  size_t Depth(Priority lane) const {
    std::lock_guard<std::mutex> lock(mu_);
    return lanes_[static_cast<size_t>(lane)].size();
  }
  size_t Depth() const {
    std::lock_guard<std::mutex> lock(mu_);
    return lanes_[0].size() + lanes_[1].size();
  }

  size_t Capacity(Priority lane) const {
    return caps_[static_cast<size_t>(lane)];
  }
  size_t Capacity() const { return caps_[0] + caps_[1]; }

 private:
  bool EmptyLocked() const { return lanes_[0].empty() && lanes_[1].empty(); }

  bool PopLocked(T* out) {
    if (EmptyLocked()) return false;
    size_t li = 0;  // interactive unless empty or anti-starvation trips
    const bool prefer_batch =
        ++pops_ % kBatchPreferEvery == 0 && !lanes_[1].empty();
    if (prefer_batch || lanes_[0].empty()) li = 1;
    *out = std::move(lanes_[li].front());
    lanes_[li].pop_front();
    return true;
  }

  const std::array<size_t, kNumLanes> caps_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::array<std::deque<T>, kNumLanes> lanes_;
  bool closed_ = false;
  uint64_t pops_ = 0;  // guarded by mu_
};

}  // namespace serve
}  // namespace thali

#endif  // THALI_SERVE_LANE_QUEUE_H_
