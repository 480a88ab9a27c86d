// Shared pieces of the serving benchmark: the cached trained model, the
// two detector recipes under test, process and host counters read from
// /proc, and a small JSON writer/reader.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "base/statusor.h"
#include "core/detector.h"
#include "nn/detection_head.h"
#include "nn/network.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline int64_t ToNs(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Model cache. The standard yolov4-thali model is trained once per checkout
// with the repository's recipe (bench::EnsureTrainedModel, ./thali_cache) and
// calibrated once for int8 over the first 32 train images of
// bench::StandardDataset(). The calibration is keyed by the weights'
// checksum, so two checkouts with the same training recipe read the same
// bytes; both checksums are recorded in every run.
struct ModelFiles {
  std::string cfg;
  std::string weights_path;
  std::string calib_path;
  std::string weights_fnv;  // FNV-1a 64 of the weights file, hex
  std::string calib_fnv;    // FNV-1a 64 of the calibration file, hex
};

// Builds whatever part of the cache is missing (training takes minutes),
// then returns the cached files. `log` prints progress to stderr. Sets
// THALI_INT8=1 in this process when it calibrates.
thali::StatusOr<ModelFiles> EnsureModelFiles(bool log);

// Reads the cache; fails if it has not been built.
thali::StatusOr<ModelFiles> LoadModelFiles();

struct LoadTimes {
  double load_ms = 0.0;   // Detector::FromFiles
  double calib_ms = 0.0;  // FuseBatchNorm (+ LoadCalibration + replan)
};

// The serving recipe each server worker runs: FromFiles, FuseBatchNorm,
// LoadCalibration, ReplanInference. Quantizes when THALI_INT8=1 is set in
// the environment (the plan latches it at Finalize).
thali::StatusOr<thali::Detector> LoadServingDetector(const ModelFiles& model,
                                                     LoadTimes* times);

// The offline evaluation recipe: FromFiles and FuseBatchNorm on the fp32
// fused plan (THALI_INT8 must be unset).
thali::StatusOr<thali::Detector> LoadOfflineDetector(const ModelFiles& model,
                                                     LoadTimes* times);

// The detection heads of a network built from the standard cfg.
std::vector<thali::DetectionHead*> HeadsOf(thali::Network& net);

// "avx2-ubsw-6x8" from the `int8: <name> kernel` line of NetworkSummary,
// or "off" when the network runs without int8.
std::string Int8KernelName(const thali::Network& net);

// ---------------------------------------------------------------------------
// Process and host counters.

// user+system CPU time of every thread of `pid`, in ms (/proc/<pid>/stat).
double ProcessCpuMs(pid_t pid);
// VmHWM of `pid` in MB (/proc/<pid>/status).
double PeakRssMb(pid_t pid);
// Resets this process's VmHWM to its current RSS; false if unsupported.
bool ResetOwnPeakRss();

struct HostTicks {
  uint64_t busy = 0;   // user+nice+system+irq+softirq+steal
  uint64_t steal = 0;
};
HostTicks ReadHostTicks();
// Stolen share of busy vCPU time between two samples.
double StealFrac(const HostTicks& a, const HostTicks& b);

int NumCpus();
// THALI_NUM_THREADS for the serving process and the offline job: nproc/2.
int ServingThreads();
std::string CpuModel();

// ---------------------------------------------------------------------------
// JSON.

// Appends `"key": value` members; values are numbers or escaped strings.
class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double value);
  JsonObject& Int(const std::string& key, int64_t value);
  JsonObject& Str(const std::string& key, const std::string& value);
  JsonObject& Bool(const std::string& key, bool value);
  JsonObject& Raw(const std::string& key, const std::string& json);
  std::string str() const { return "{" + body_ + "}"; }

 private:
  void Key(const std::string& key);
  std::string body_;
};

// The number at `path` (object keys, outermost first) in `json`, or NaN.
// Handles the flat, unescaped objects the STATS reply and the server's
// READY line carry.
double JsonNumberAt(const std::string& json,
                    const std::vector<std::string>& path);
std::string JsonStringAt(const std::string& json,
                         const std::vector<std::string>& path);

std::string Fnv1a64File(const std::string& path);

double Mean(const std::vector<double>& v);
double Median(std::vector<double> v);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
