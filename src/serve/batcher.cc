#include "serve/batcher.h"

#include <utility>

#include "base/logging.h"

namespace thali {
namespace serve {

namespace {

double ToMs(ServeClock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

}  // namespace

Batcher::Batcher(RequestQueue* queue, Options options, ServerMetrics* metrics)
    : queue_(queue), options_(options), metrics_(metrics) {
  THALI_CHECK(queue_ != nullptr);
  THALI_CHECK(metrics_ != nullptr);
  THALI_CHECK_GE(options_.max_batch_size, 1);
}

bool Batcher::ExpireIfLate(RequestPtr* req, ServeClock::time_point now) {
  if (now < (*req)->deadline) return false;
  metrics_->timed_out.fetch_add(1, std::memory_order_relaxed);
  metrics_->ForClass((*req)->priority)
      .timed_out.fetch_add(1, std::memory_order_relaxed);
  metrics_->e2e_ms.Record(ToMs(now - (*req)->submit_time));
  (*req)->Complete(Status::DeadlineExceeded("deadline expired while queued"));
  req->reset();
  return true;
}

bool Batcher::NextBatch(std::vector<RequestPtr>* batch) {
  batch->clear();

  // Block for the first live request; expired ones complete on the spot.
  RequestPtr first;
  for (;;) {
    if (!queue_->Pop(&first)) return false;  // closed and drained
    if (!ExpireIfLate(&first, ServeClock::now())) break;
  }

  const ServeClock::time_point formed = ServeClock::now();
  const ServeClock::time_point linger_end = formed + options_.max_linger;
  metrics_->queue_wait_ms.Record(ToMs(formed - first->submit_time));
  batch->push_back(std::move(first));

  while (static_cast<int>(batch->size()) < options_.max_batch_size) {
    // Requests already queued join at once; only the rest of an explicit
    // linger is spent waiting for more (a zero wait is a plain poll).
    const ServeClock::time_point now = ServeClock::now();
    const ServeClock::duration wait =
        now < linger_end ? linger_end - now : ServeClock::duration::zero();
    RequestPtr next;
    if (!queue_->PopWait(&next, wait)) break;  // empty after the linger
    if (ExpireIfLate(&next, ServeClock::now())) continue;
    metrics_->queue_wait_ms.Record(
        ToMs(ServeClock::now() - next->submit_time));
    batch->push_back(std::move(next));
  }

  metrics_->batches.fetch_add(1, std::memory_order_relaxed);
  metrics_->batched_images.fetch_add(static_cast<int64_t>(batch->size()),
                                     std::memory_order_relaxed);
  return true;
}

}  // namespace serve
}  // namespace thali
