#include "common.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#include "base/file_util.h"
#include "base/string_util.h"
#include "bench_common.h"
#include "darknet/calibration_io.h"
#include "darknet/summary.h"

namespace perfbench {

using thali::Detector;
using thali::Status;
using thali::StatusOr;

namespace {

constexpr char kCalibPath[] = "thali_cache/perfbench_int8.thalical";
constexpr char kCalibKeyPath[] = "thali_cache/perfbench_int8.key";
constexpr int kCalibImages = 32;

std::string CalibKey(const std::string& weights_fnv) {
  return thali::StrFormat("weights=%s images=first-%d-train mode=minmax",
                          weights_fnv.c_str(), kCalibImages);
}

std::string ReadWhole(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace

StatusOr<ModelFiles> LoadModelFiles() {
  ModelFiles m;
  m.cfg = thali::bench::StandardCfg();
  m.weights_path = "thali_cache/main.weights";
  m.calib_path = kCalibPath;
  if (!thali::PathExists(m.weights_path) || !thali::PathExists(kCalibPath)) {
    return Status::NotFound("model cache not built");
  }
  m.weights_fnv = Fnv1a64File(m.weights_path);
  auto key = thali::ReadFileToString(kCalibKeyPath);
  if (!key.ok() || *key != CalibKey(m.weights_fnv)) {
    return Status::NotFound("calibration is stale for these weights");
  }
  m.calib_fnv = Fnv1a64File(m.calib_path);
  return m;
}

StatusOr<ModelFiles> EnsureModelFiles(bool log) {
  if (log) {
    std::fprintf(stderr,
                 "[perfbench] model cache: training the standard model if "
                 "./thali_cache lacks it (minutes on first use)\n");
  }
  const thali::bench::SharedModel shared =
      thali::bench::EnsureTrainedModel(/*log=*/false);
  auto cached = LoadModelFiles();
  if (cached.ok()) return cached;

  ModelFiles m;
  m.cfg = shared.cfg_text;
  m.weights_path = shared.weights_path;
  m.weights_fnv = Fnv1a64File(m.weights_path);
  if (log) {
    std::fprintf(stderr, "[perfbench] calibrating int8 over the first %d "
                 "train images\n", kCalibImages);
  }
  setenv("THALI_INT8", "1", 1);
  THALI_ASSIGN_OR_RETURN(Detector det,
                         Detector::FromFiles(m.cfg, m.weights_path));
  const thali::FoodDataset dataset = thali::bench::StandardDataset();
  const std::vector<int>& train = dataset.train_indices();
  const size_t n = std::min<size_t>(train.size(), kCalibImages);
  Detector::Int8CalibrationOptions copts;
  copts.max_images = kCalibImages;
  const int armed =
      det.CalibrateInt8(dataset, std::span<const int>(train.data(), n), copts);
  if (armed == 0) return Status::Internal("int8 calibration armed no layer");
  THALI_RETURN_IF_ERROR(thali::SaveCalibration(det.network(), kCalibPath));
  THALI_RETURN_IF_ERROR(
      thali::WriteStringToFile(kCalibKeyPath, CalibKey(m.weights_fnv)));
  return LoadModelFiles();
}

StatusOr<Detector> LoadServingDetector(const ModelFiles& model,
                                       LoadTimes* times) {
  const auto t0 = Clock::now();
  THALI_ASSIGN_OR_RETURN(Detector det,
                         Detector::FromFiles(model.cfg, model.weights_path));
  const auto t1 = Clock::now();
  det.FuseBatchNorm();
  THALI_ASSIGN_OR_RETURN(int ranged,
                         thali::LoadCalibration(det.network(),
                                                model.calib_path));
  if (ranged == 0) return Status::Corruption("calibration armed no layer");
  THALI_RETURN_IF_ERROR(det.network().ReplanInference());
  const auto t2 = Clock::now();
  if (times != nullptr) {
    times->load_ms = MsBetween(t0, t1);
    times->calib_ms = MsBetween(t1, t2);
  }
  return det;
}

StatusOr<Detector> LoadOfflineDetector(const ModelFiles& model,
                                       LoadTimes* times) {
  const auto t0 = Clock::now();
  THALI_ASSIGN_OR_RETURN(Detector det,
                         Detector::FromFiles(model.cfg, model.weights_path));
  const auto t1 = Clock::now();
  det.FuseBatchNorm();
  const auto t2 = Clock::now();
  if (times != nullptr) {
    times->load_ms = MsBetween(t0, t1);
    times->calib_ms = MsBetween(t1, t2);
  }
  return det;
}

std::vector<thali::DetectionHead*> HeadsOf(thali::Network& net) {
  std::vector<thali::DetectionHead*> heads;
  for (int i = 0; i < net.num_layers(); ++i) {
    if (auto* h = dynamic_cast<thali::DetectionHead*>(&net.layer(i))) {
      heads.push_back(h);
    }
  }
  return heads;
}

std::string Int8KernelName(const thali::Network& net) {
  const std::string summary = thali::NetworkSummary(net);
  const size_t at = summary.find("\nint8: ");
  if (at == std::string::npos) return "off";
  const size_t begin = at + 7;
  const size_t end = summary.find(" kernel", begin);
  if (end == std::string::npos) return "unknown";
  return summary.substr(begin, end - begin);
}

double ProcessCpuMs(pid_t pid) {
  const std::string stat = ReadWhole("/proc/" + std::to_string(pid) + "/stat");
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields of the line.
  const size_t close = stat.rfind(')');
  if (close == std::string::npos) return NAN;
  std::istringstream rest(stat.substr(close + 2));
  std::string field;
  unsigned long long utime = 0, stime = 0;
  for (int i = 3; i <= 15 && (rest >> field); ++i) {
    if (i == 14) utime = std::stoull(field);
    if (i == 15) stime = std::stoull(field);
  }
  const double tick_ms = 1000.0 / static_cast<double>(sysconf(_SC_CLK_TCK));
  return static_cast<double>(utime + stime) * tick_ms;
}

double PeakRssMb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB
    }
  }
  return NAN;
}

bool ResetOwnPeakRss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

HostTicks ReadHostTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  uint64_t v[8] = {};
  in >> cpu;
  for (uint64_t& x : v) in >> x;
  // user nice system idle iowait irq softirq steal
  HostTicks t;
  t.steal = v[7];
  t.busy = v[0] + v[1] + v[2] + v[5] + v[6] + v[7];
  return t;
}

double StealFrac(const HostTicks& a, const HostTicks& b) {
  const double busy = static_cast<double>(b.busy - a.busy);
  return busy > 0 ? static_cast<double>(b.steal - a.steal) / busy : 0.0;
}

int NumCpus() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

int ServingThreads() { return std::max(1, NumCpus() / 2); }

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

void JsonObject::Key(const std::string& key) {
  if (!body_.empty()) body_ += ", ";
  body_ += "\"" + key + "\": ";
}

JsonObject& JsonObject::Num(const std::string& key, double value) {
  Key(key);
  body_ += std::isfinite(value) ? thali::StrFormat("%.17g", value) : "null";
  return *this;
}

JsonObject& JsonObject::Int(const std::string& key, int64_t value) {
  Key(key);
  body_ += std::to_string(value);
  return *this;
}

JsonObject& JsonObject::Str(const std::string& key, const std::string& value) {
  Key(key);
  body_ += "\"";
  for (char c : value) {
    if (c == '"' || c == '\\') {
      body_ += '\\';
      body_ += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      body_ += ' ';
    } else {
      body_ += c;
    }
  }
  body_ += "\"";
  return *this;
}

JsonObject& JsonObject::Bool(const std::string& key, bool value) {
  Key(key);
  body_ += value ? "true" : "false";
  return *this;
}

JsonObject& JsonObject::Raw(const std::string& key, const std::string& json) {
  Key(key);
  body_ += json;
  return *this;
}

namespace {

// Offset just past `"key": ` for each key of `path` in turn, or npos.
size_t FindPath(const std::string& json, const std::vector<std::string>& path) {
  size_t pos = 0;
  for (const std::string& key : path) {
    pos = json.find("\"" + key + "\":", pos);
    if (pos == std::string::npos) return pos;
    pos += key.size() + 3;
    while (pos < json.size() && json[pos] == ' ') ++pos;
  }
  return pos;
}

}  // namespace

double JsonNumberAt(const std::string& json,
                    const std::vector<std::string>& path) {
  const size_t pos = FindPath(json, path);
  if (pos == std::string::npos || pos >= json.size()) return NAN;
  char* end = nullptr;
  const double v = std::strtod(json.c_str() + pos, &end);
  return end == json.c_str() + pos ? NAN : v;
}

std::string JsonStringAt(const std::string& json,
                         const std::vector<std::string>& path) {
  const size_t pos = FindPath(json, path);
  if (pos == std::string::npos || pos >= json.size() || json[pos] != '"') {
    return "";
  }
  const size_t end = json.find('"', pos + 1);
  return end == std::string::npos ? "" : json.substr(pos + 1, end - pos - 1);
}

std::string Fnv1a64File(const std::string& path) {
  const std::string bytes = ReadWhole(path);
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return thali::StrFormat("%016llx", static_cast<unsigned long long>(h));
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return NAN;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double Median(std::vector<double> v) {
  if (v.empty()) return NAN;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace perfbench
