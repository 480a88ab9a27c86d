// Traffic for the workloads: seeded input pools, the serving process, the
// steal-ranked measurement, the closed-loop THL1 generator, the offline
// batch job, and span recording for the traced runs.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <sys/types.h>

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "base/statusor.h"
#include "common.h"
#include "core/detector.h"
#include "eval/detection.h"
#include "image/image.h"

namespace perfbench {

// ---------------------------------------------------------------------------
// Spans. Each thread records into its own Tracer; a disabled Tracer records
// nothing and costs one branch per call.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;   // index into the same Tracer, -1 for a root
  int64_t request = -1;  // request id, -1 when the span serves no request
};

class Tracer {
 public:
  Tracer(std::string thread_name, bool enabled)
      : thread_(std::move(thread_name)), enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 14);
  }
  int32_t Begin(const char* name, int32_t parent = -1, int64_t request = -1);
  void End(int32_t id);
  // Durations in ms of every span called `name`.
  std::vector<double> DurationsMs(const std::string& name) const;
  const std::vector<Span>& spans() const { return spans_; }
  const std::string& thread_name() const { return thread_; }

 private:
  std::string thread_;
  bool enabled_;
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer* t, const char* name, int32_t parent = -1,
             int64_t request = -1)
      : tracer_(t), id_(t != nullptr ? t->Begin(name, parent, request) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int32_t id_;
};

// Writes every span of `tracers` as JSON lines.
thali::Status WriteSpans(const std::string& path,
                         const std::vector<const Tracer*>& tracers);

// ---------------------------------------------------------------------------
// Inputs.

// Rendered platters with their ground truth. Pixels are stored 8-bit, as a
// camera delivers them, and expanded to the f32 planes THL1 carries.
struct Pool {
  int width = 0;
  int height = 0;
  std::vector<std::vector<uint8_t>> pixels;  // CHW, one per image
  std::vector<std::vector<thali::GroundTruth>> truths;

  int size() const { return static_cast<int>(pixels.size()); }
  thali::Image Materialize(int i) const;
  // Overwrites `image`, which must have the pool's geometry, with image i.
  void MaterializeInto(int i, thali::Image* image) const;
};

// `count` platters of 1-4 dishes at width x height, a pure function of
// `seed`.
Pool RenderPool(int width, int height, int count, uint64_t seed);

// ---------------------------------------------------------------------------
// The serving process.
class ServerProcess {
 public:
  // Spawns `binary` with THALI_INT8=1 and THALI_NUM_THREADS=`threads`,
  // waits for its READY line and its first PING reply.
  static thali::StatusOr<ServerProcess> Launch(const std::string& binary,
                                               int threads);
  ServerProcess(ServerProcess&& other) noexcept;
  ServerProcess& operator=(ServerProcess&&) = delete;
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;
  ~ServerProcess() { Stop(); }

  // Closes the server's stdin and waits for it to exit.
  void Stop();

  pid_t pid() const { return pid_; }
  uint16_t port() const { return port_; }
  const std::string& ready_json() const { return ready_; }
  double setup_s() const { return setup_s_; }            // spawn -> PING
  double start_to_ping_ms() const { return start_ms_; }  // Start -> PING

 private:
  ServerProcess() = default;
  pid_t pid_ = -1;
  int stdin_fd_ = -1;
  uint16_t port_ = 0;
  std::string ready_;
  double setup_s_ = 0.0;
  double start_ms_ = 0.0;
};

// ---------------------------------------------------------------------------
// Measurement.

// A measurement is split into parts, kParts per window of `seconds`. The
// timing metrics are taken over the parts in which the host stole the least
// vCPU time, added in order of steal until they hold kTailSamples latency
// samples (so the p99 keeps fifteen samples beyond it). Steal on this class
// of VM comes in sub-second bursts; ranking parts by it keeps those bursts
// out of the comparison between two builds, and both sides apply the same
// rule. When the host steals for most of a window, even the kept parts
// carry it. Kept parts are steady when they hold kTailSamples samples and
// at most kMaxKeptSteal of steal (calm runs keep 0-1.1%); while they are
// not, one more window is measured and the parts of all windows are ranked
// together. A measurement still not steady after kMaxWindows is reported
// as such.
inline constexpr int kParts = 192;
inline constexpr int kTailSamples = 1500;
inline constexpr double kMaxKeptSteal = 0.02;
inline constexpr int kMaxWindows = 3;

// Counters sampled at a part boundary.
struct Mark {
  Clock::time_point at;
  double cpu_ms = 0.0;  // the serving process's user+system CPU
  HostTicks host;
};

// One request, or one offline batch.
struct Sample {
  double start_ms = 0.0;  // from the first mark
  double latency_ms = 0.0;
  int images = 1;
  bool ok = true;
};

// The least-stolen parts of a measurement and what they hold.
struct KeptParts {
  std::vector<double> latency_ms;  // ok samples starting in a kept part
  double images = 0.0;
  double cpu_ms = 0.0;
  double ms = 0.0;  // wall time
  int parts = 0;
  HostTicks host;   // summed over the kept parts
  double steal() const { return StealFrac(HostTicks{}, host); }
  bool steady() const {
    return static_cast<int>(latency_ms.size()) >= kTailSamples &&
           steal() <= kMaxKeptSteal;
  }
};

// Part k runs from marks[k] to marks[k + 1]. The indices of the ok samples
// that start in each part.
std::vector<std::vector<int>> SamplesByPart(const std::vector<Sample>& samples,
                                            const std::vector<Mark>& marks);

KeptParts KeepLeastStolen(const std::vector<Sample>& samples,
                          const std::vector<Mark>& marks);

// The part boundaries of one measurement. `mark` samples the counters.
class PartClock {
 public:
  PartClock(double seconds, std::function<Mark()> mark);
  // Takes every mark due by now. At a window's end, extends the
  // measurement by a window if the kept parts of `samples()` are not
  // steady and kMaxWindows allows it. False once it is over.
  bool Continue(const std::function<std::vector<Sample>()>& samples);
  Clock::time_point start() const { return marks_.front().at; }
  int windows() const { return windows_; }
  std::vector<Mark> TakeMarks() { return std::move(marks_); }

 private:
  std::chrono::duration<double> part_;
  std::function<Mark()> mark_;
  std::vector<Mark> marks_;
  int windows_ = 1;
};

// ---------------------------------------------------------------------------
// Traffic.

enum class Outcome { kOk, kTransport, kShed, kDeadline, kOtherStatus };

struct RequestRecord {
  int pool_index = 0;
  double start_ms = 0.0;     // send, from the first mark
  double latency_ms = 0.0;   // from send to reply
  double lateness_ms = 0.0;  // from the previous reply to this send
  Outcome outcome = Outcome::kOk;
  bool decoded = true;       // the reply frame decoded
};

struct TrafficResult {
  std::vector<RequestRecord> requests;  // the measurement only
  // Detections returned for the first measured request of each pool image.
  std::map<int, std::vector<thali::Detection>> first_pass;
  double window_s = 0.0;  // the whole measurement
  int windows = 1;
  std::vector<Mark> marks;  // at the part boundaries
  // The server's STATS just before the first and just after the last part.
  std::string stats_before, stats_after;
};

std::vector<Sample> SamplesOf(const std::vector<RequestRecord>& requests);

// Closed loop on one NetClient connection: interactive, no deadline, the
// encode inside the timed call (the app's single photo). `warmup_s` of
// traffic runs first and is discarded.
TrafficResult RunClosedLoop(uint16_t port, pid_t server_pid, const Pool& pool,
                            double warmup_s, double seconds, Tracer* tracer);

// Sends each pool image not yet in `result->first_pass` once more, as the
// workload would, so the quality pass covers the whole pool.
thali::Status CompleteFirstPass(uint16_t port, const Pool& pool,
                                TrafficResult* result);

// STATS over a fresh connection.
thali::StatusOr<std::string> FetchStats(uint16_t port);

// ---------------------------------------------------------------------------
// Offline batch job.
struct OfflineResult {
  std::vector<Sample> batches;  // DetectBatch wall time per batch
  std::vector<double> gap_ms;   // from the previous batch's end
  std::vector<thali::Detector::StageTimes> stages;  // per batch
  std::vector<Mark> marks;  // as TrafficResult::marks
  std::vector<std::vector<thali::Detection>> first_pass;  // per val image
  int64_t images = 0;
  double window_s = 0.0;
  int windows = 1;
};

inline constexpr int kOfflineBatch = 8;
inline constexpr float kEvalConf = 0.005f;  // the trainer's eval thresholds
inline constexpr float kEvalNms = 0.45f;

// DetectBatch at batch 8 over `images` in order, repeatedly, for one or
// two windows of `seconds` (see PartClock) after one untimed warm pass.
// `tracer` spans every DetectBatch call.
OfflineResult RunOffline(thali::Detector& det,
                         const std::vector<thali::Image>& images,
                         double seconds, Tracer* tracer);

// mAP@0.5 of `detections[i]` against `truths[i]`.
double Map50(const std::vector<std::vector<thali::Detection>>& detections,
             const std::vector<std::vector<thali::GroundTruth>>& truths);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
