#include "serve/server.h"

#include <algorithm>
#include <utility>

#include "base/file_util.h"
#include "base/logging.h"
#include "base/string_util.h"
#include "darknet/weights_io.h"

namespace thali {
namespace serve {

namespace {

double ToMs(ServeClock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

}  // namespace

StatusOr<std::unique_ptr<Server>> Server::Create(
    const Options& options, const DetectorFactory& factory) {
  if (options.num_workers < 1) {
    return Status::InvalidArgument("num_workers must be >= 1");
  }
  if (options.queue_capacity < 1) {
    return Status::InvalidArgument("queue_capacity must be >= 1");
  }
  if (options.batch_queue_capacity < -1 ||
      options.batch_queue_capacity == 0) {
    return Status::InvalidArgument(
        "batch_queue_capacity must be >= 1 (or -1 to mirror "
        "queue_capacity)");
  }
  if (options.max_batch_size < 1) {
    return Status::InvalidArgument("max_batch_size must be >= 1");
  }
  const double ss = options.admission.shed_start;
  if (ss < 0.0 || ss >= 1.0) {
    return Status::InvalidArgument("admission.shed_start must be in [0, 1)");
  }
  std::vector<std::unique_ptr<Detector>> detectors;
  detectors.reserve(static_cast<size_t>(options.num_workers));
  for (int i = 0; i < options.num_workers; ++i) {
    StatusOr<Detector> det = factory();
    if (!det.ok()) return det.status();
    detectors.push_back(
        std::make_unique<Detector>(std::move(det).value()));
  }
  return std::unique_ptr<Server>(
      new Server(options, std::move(detectors)));
}

Server::Server(const Options& options,
               std::vector<std::unique_ptr<Detector>> detectors)
    : options_(options),
      queue_(static_cast<size_t>(options.queue_capacity),
             static_cast<size_t>(options.batch_queue_capacity > 0
                                     ? options.batch_queue_capacity
                                     : options.queue_capacity)),
      detectors_(std::move(detectors)) {
  workers_.reserve(detectors_.size());
  for (auto& det : detectors_) {
    workers_.emplace_back([this, d = det.get()] { WorkerLoop(d); });
  }
}

Server::~Server() { Shutdown(); }

StatusOr<std::future<Server::Result>> Server::Submit(Image image) {
  return Submit(std::move(image), SubmitOptions{});
}

double Server::EstimateQueueWaitMs(Priority lane) const {
  const LatencyHistogram& qw = metrics_.queue_wait_ms;
  if (qw.count() < options_.admission.min_wait_samples) return 0.0;
  // A new interactive request waits behind the interactive lane only
  // (strict priority); a batch request waits behind everything.
  const size_t ahead = lane == Priority::kInteractive
                           ? queue_.Depth(Priority::kInteractive)
                           : queue_.Depth();
  // Recent p95 queue wait is what the last requests paid to cross a
  // queue about `Capacity()` deep at the worst; scaling by the current
  // depth fraction lets the estimate fall back toward zero as the
  // backlog drains (the histogram itself never decays).
  return qw.PercentileMs(95) * static_cast<double>(ahead + 1) /
         static_cast<double>(queue_.Capacity());
}

Status Server::Admit(Priority priority, ServeClock::time_point deadline,
                     ServeClock::time_point now) const {
  const AdmissionOptions& ao = options_.admission;
  if (!ao.enabled) return Status::OK();

  if (priority == Priority::kBatch) {
    // Depth-proportional batch shedding: past shed_start the batch
    // lane's effective capacity shrinks linearly with combined pressure,
    // hitting zero at full queues — batch work is always shed before any
    // interactive request is.
    const size_t idep = queue_.Depth(Priority::kInteractive);
    const size_t bdep = queue_.Depth(Priority::kBatch);
    const double pressure = static_cast<double>(idep + bdep) /
                            static_cast<double>(queue_.Capacity());
    if (pressure > ao.shed_start) {
      const double bcap =
          static_cast<double>(queue_.Capacity(Priority::kBatch));
      const double allowed =
          bcap * std::max(0.0, 1.0 - (pressure - ao.shed_start) /
                                         (1.0 - ao.shed_start));
      if (static_cast<double>(bdep) >= allowed) {
        metrics_.shed_pressure.fetch_add(1, std::memory_order_relaxed);
        return Status::ResourceExhausted(StrFormat(
            "batch work shed: queue pressure %.2f, batch depth %zu >= "
            "allowed %.1f",
            pressure, bdep, allowed));
      }
    }
  }

  if (deadline != ServeClock::time_point::max()) {
    const double budget_ms = ToMs(deadline - now);
    const double est_ms = EstimateQueueWaitMs(priority);
    if (est_ms > budget_ms) {
      metrics_.shed_deadline.fetch_add(1, std::memory_order_relaxed);
      return Status::DeadlineExceeded(
          StrFormat("rejected at admission: estimated queue wait %.1fms "
                    "exceeds deadline budget %.1fms",
                    est_ms, budget_ms));
    }
  }
  return Status::OK();
}

StatusOr<std::future<Server::Result>> Server::Submit(
    Image image, const SubmitOptions& submit) {
  auto owner = std::make_shared<const Image>(std::move(image));
  const ImageView view = *owner;
  return Submit(view, std::move(owner), submit);
}

StatusOr<std::future<Server::Result>> Server::Submit(
    ImageView image, std::shared_ptr<const void> owner,
    const SubmitOptions& submit) {
  metrics_.submitted.fetch_add(1, std::memory_order_relaxed);
  ServerMetrics::PerClass& cls = metrics_.ForClass(submit.priority);
  cls.submitted.fetch_add(1, std::memory_order_relaxed);

  // Checked before enqueue: a worker's DetectBatch would abort on an
  // image it cannot letterbox, taking the whole process with it.
  if (image.empty() || image.channels() != 3) {
    metrics_.rejected.fetch_add(1, std::memory_order_relaxed);
    cls.rejected.fetch_add(1, std::memory_order_relaxed);
    return Status::InvalidArgument(
        StrFormat("detector needs a non-empty 3-channel image, got %dx%dx%d",
                  image.width(), image.height(), image.channels()));
  }

  const ServeClock::time_point now = ServeClock::now();
  Status admitted = Admit(submit.priority, submit.deadline, now);
  if (!admitted.ok()) {
    metrics_.rejected.fetch_add(1, std::memory_order_relaxed);
    cls.rejected.fetch_add(1, std::memory_order_relaxed);
    cls.shed.fetch_add(1, std::memory_order_relaxed);
    return admitted;
  }

  auto req = std::make_unique<Request>();
  req->image = image;
  req->pixel_owner = std::move(owner);
  req->submit_time = now;
  req->deadline = submit.deadline;
  req->priority = submit.priority;
  req->on_complete = submit.on_complete;
  std::future<Result> future = req->promise.get_future();
  Status pushed = queue_.TryPush(std::move(req), submit.priority);
  if (!pushed.ok()) {
    metrics_.rejected.fetch_add(1, std::memory_order_relaxed);
    cls.rejected.fetch_add(1, std::memory_order_relaxed);
    return pushed;
  }
  return future;
}

Status Server::ReloadWeights(const std::string& weights_path) {
  if (!PathExists(weights_path)) {
    return Status::NotFound("weights file not found: " + weights_path);
  }
  {
    std::lock_guard<std::mutex> lock(staged_mu_);
    staged_weights_path_ = weights_path;
    // Bumped under the lock so a worker that sees the new generation is
    // guaranteed to read a path at least as new.
    weights_gen_.fetch_add(1, std::memory_order_release);
  }
  return Status::OK();
}

void Server::MaybeReloadWeights(Detector* detector, int64_t* local_gen) {
  // Seqlock-style fast path: one relaxed-ish atomic read per batch; the
  // staging mutex is touched only when a reload is actually pending.
  if (weights_gen_.load(std::memory_order_acquire) == *local_gen) return;
  std::string path;
  int64_t gen;
  {
    std::lock_guard<std::mutex> lock(staged_mu_);
    path = staged_weights_path_;
    gen = weights_gen_.load(std::memory_order_acquire);
  }
  StatusOr<int> loaded = LoadWeights(detector->network(), path);
  if (!loaded.ok()) {
    THALI_LOG(Warning) << "hot reload of " << path
                       << " failed; worker keeps old weights: "
                       << loaded.status().ToString();
  } else {
    metrics_.weight_reloads.fetch_add(1, std::memory_order_relaxed);
  }
  // Either way this generation is handled — a failed load must not retry
  // on every batch.
  *local_gen = gen;
}

void Server::WorkerLoop(Detector* detector) {
  Batcher batcher(&queue_,
                  Batcher::Options{options_.max_batch_size,
                                   options_.max_linger},
                  &metrics_);
  int64_t weights_gen = weights_gen_.load(std::memory_order_acquire);
  std::vector<RequestPtr> batch;
  std::vector<ImageView> images;
  while (batcher.NextBatch(&batch)) {
    // Weight swaps land only at batch boundaries: the batch that is
    // about to run sees one consistent weight version end to end.
    MaybeReloadWeights(detector, &weights_gen);
    images.clear();
    for (const RequestPtr& r : batch) images.push_back(r->image);

    std::vector<std::vector<Detection>> results =
        detector->DetectBatch(images);
    THALI_CHECK_EQ(results.size(), batch.size());

    const Detector::StageTimes& stages = detector->last_stage_times();
    metrics_.preprocess_ms.Record(stages.preprocess_ms);
    metrics_.forward_ms.Record(stages.forward_ms);
    metrics_.postprocess_ms.Record(stages.postprocess_ms);

    const ServeClock::time_point done = ServeClock::now();
    for (size_t i = 0; i < batch.size(); ++i) {
      const double e2e = ToMs(done - batch[i]->submit_time);
      metrics_.e2e_ms.Record(e2e);
      metrics_.completed.fetch_add(1, std::memory_order_relaxed);
      ServerMetrics::PerClass& cls = metrics_.ForClass(batch[i]->priority);
      cls.completed.fetch_add(1, std::memory_order_relaxed);
      cls.completed_e2e_ms.Record(e2e);
      batch[i]->Complete(std::move(results[i]));
    }
  }
}

void Server::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(shutdown_mu_);
    if (shut_down_) return;
    shut_down_ = true;
  }
  queue_.Close();
  for (std::thread& w : workers_) w.join();
}

}  // namespace serve
}  // namespace thali
