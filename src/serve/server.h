#ifndef THALI_SERVE_SERVER_H_
#define THALI_SERVE_SERVER_H_

#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "base/statusor.h"
#include "core/detector.h"
#include "serve/batcher.h"
#include "serve/metrics.h"

namespace thali {
namespace serve {

// In-process inference server: turns concurrent single-image Submit calls
// into dynamic micro-batches executed by a pool of Detector workers.
//
//   caller ──Submit──▶ bounded queue ──Batcher──▶ worker × Detector
//                        (backpressure)  (linger/size)   (DetectBatch)
//
// Each worker owns a private Detector (the Detector thread-safety contract
// admits one caller per instance), so workers batch and run independently;
// the queue is the only cross-thread hand-off. Submit never blocks: a full
// queue is an immediate kResourceExhausted, and requests carry optional
// deadlines that expire while queued without costing network time.
// Shutdown (also run by the destructor) closes the queue, drains every
// queued request — running or expiring it — and joins the workers, so
// every accepted future completes exactly once.
//
// Requests carry a priority class (interactive / batch) mapped to two
// independently-bounded queue lanes; workers drain interactive first (see
// LaneQueue). With Options::admission enabled, Submit additionally applies
// load shedding before the push: batch-class work is shed in proportion to
// combined queue depth, and any request whose deadline budget is already
// smaller than the estimated queue wait (derived from the live queue-wait
// histogram) is rejected at admission instead of expiring later.
class Server {
 public:
  // Admission-control policy knobs (all applied by Submit; the queues
  // themselves enforce only per-lane capacity).
  struct AdmissionOptions {
    bool enabled = false;
    // Combined-depth fraction where batch-class shedding begins. From
    // there the batch lane's effective capacity shrinks linearly,
    // reaching zero when both lanes are full — depth-proportional
    // shedding of batch work strictly before interactive work.
    double shed_start = 0.25;
    // Deadline-aware early rejection fires only once the queue-wait
    // histogram has this many samples (cold-start guard).
    int64_t min_wait_samples = 32;
  };

  struct Options {
    int num_workers = 1;
    int queue_capacity = 64;
    // Capacity of the batch-priority lane; -1 mirrors queue_capacity.
    int batch_queue_capacity = -1;
    int max_batch_size = 8;
    // How long a worker holds an underfull batch open for stragglers. At
    // the default 0 a batch takes what is already queued and closes.
    std::chrono::microseconds max_linger{0};
    AdmissionOptions admission;
  };

  // Per-request submit parameters for the full-control overload.
  struct SubmitOptions {
    // time_point::max() means no deadline.
    ServeClock::time_point deadline = ServeClock::time_point::max();
    Priority priority = Priority::kInteractive;
    // Runs on the serving thread right after an accepted request's future
    // becomes ready (result or expiry). Must be cheap and must not block;
    // the network front-end uses it to wake its event loop.
    std::function<void()> on_complete;
  };

  using Result = StatusOr<std::vector<Detection>>;
  // Called once per worker so every worker gets a private Detector.
  using DetectorFactory = std::function<StatusOr<Detector>()>;

  // Builds num_workers detectors via `factory` and starts the workers.
  static StatusOr<std::unique_ptr<Server>> Create(
      const Options& options, const DetectorFactory& factory);

  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Enqueues one detection request and returns its future. Fails fast with
  // kInvalidArgument (an empty image, or one without exactly 3 channels,
  // which the detector cannot take), kResourceExhausted (queue full — the
  // backpressure signal to shed or retry) or kFailedPrecondition (server
  // shut down); on failure no future exists and the request is dropped
  // and counted as rejected. The request never expires; the overloads
  // below take a deadline (SubmitOptions::deadline).
  StatusOr<std::future<Result>> Submit(Image image);
  // Full-control overload: deadline + priority class. Admission control
  // (when enabled) runs here; a shed request returns kResourceExhausted
  // (pressure shed) or kDeadlineExceeded (estimated wait exceeds the
  // deadline budget) without ever occupying a queue slot.
  StatusOr<std::future<Result>> Submit(Image image,
                                       const SubmitOptions& submit);
  // As above over borrowed pixels: the request co-owns `owner`, which
  // must keep `image` readable until the request completes, and drops
  // that reference before the future becomes ready (the network
  // front-end passes the frame's receive buffer and reuses it after the
  // reply). Every Image overload runs this one with its Image as owner.
  StatusOr<std::future<Result>> Submit(ImageView image,
                                       std::shared_ptr<const void> owner,
                                       const SubmitOptions& submit);

  // Stages a new weights file and bumps the weights generation: each
  // worker notices between batches and reloads its private Detector
  // before forming the next one, so in-flight batches always finish on
  // the weights they started with and no request is ever dropped by a
  // reload. Generation hand-off is seqlock-flavored: workers spin-check
  // the atomic generation (no lock on the hot path) and take the staging
  // mutex only when stale. Returns kNotFound if `path` does not exist;
  // a worker whose reload fails keeps serving its old weights.
  Status ReloadWeights(const std::string& weights_path);

  // Generation of the most recently staged weights (0 = initial build).
  int64_t weights_generation() const {
    return weights_gen_.load(std::memory_order_acquire);
  }

  // Stops admission, drains the queue (every pending request completes
  // with a result or kDeadlineExceeded) and joins the workers. Idempotent.
  void Shutdown();

  const ServerMetrics& metrics() const { return metrics_; }
  const Options& options() const { return options_; }
  int num_workers() const { return static_cast<int>(workers_.size()); }

  // Live lane depths/capacities — the inputs the network front-end's
  // admission decisions and the STATS op report.
  size_t LaneDepth(Priority lane) const { return queue_.Depth(lane); }
  size_t LaneCapacity(Priority lane) const { return queue_.Capacity(lane); }

  // Estimated queue wait for a request entering `lane` now, in ms, from
  // the live queue-wait histogram: recent p95 wait scaled by how deep the
  // queue currently is relative to total capacity (so the estimate decays
  // as the backlog drains even though histograms never forget). Returns 0
  // until the histogram has admission.min_wait_samples samples.
  double EstimateQueueWaitMs(Priority lane) const;

 private:
  Server(const Options& options,
         std::vector<std::unique_ptr<Detector>> detectors);

  void WorkerLoop(Detector* detector);
  // Admission-policy gate for one request; OK means "push it".
  Status Admit(Priority priority, ServeClock::time_point deadline,
               ServeClock::time_point now) const;
  // Reloads `detector` if `local_gen` is behind the staged generation.
  void MaybeReloadWeights(Detector* detector, int64_t* local_gen);

  Options options_;
  mutable ServerMetrics metrics_;
  RequestQueue queue_;
  std::vector<std::unique_ptr<Detector>> detectors_;
  std::vector<std::thread> workers_;
  bool shut_down_ = false;  // guarded by shutdown_mu_
  std::mutex shutdown_mu_;

  // Hot-reload staging: generation checked lock-free by workers; the
  // path itself is guarded by staged_mu_.
  std::atomic<int64_t> weights_gen_{0};
  std::mutex staged_mu_;
  std::string staged_weights_path_;  // guarded by staged_mu_
};

}  // namespace serve
}  // namespace thali

#endif  // THALI_SERVE_SERVER_H_
