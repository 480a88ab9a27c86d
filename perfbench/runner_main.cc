// perfbench_runner: runs one workload of the serving benchmark and prints
// its result as the last line of stdout. perfbench/run.py builds this and
// is the command to use; see perfbench/README.md.
//
//   perfbench_runner prepare
//   perfbench_runner run --workload NAME --seed N --seconds S --trace 0|1
//       --server-bin PATH --out-dir DIR [--git-sha SHA] [--source-digest D]
//
// Untraced runs (--trace 0) report the end-to-end metrics, measured on the
// serving process. Traced runs (--trace 1) repeat the workload twice, first
// without and then with client spans, replay the inputs through each
// layer's entry points, and report the per-layer metrics, the attribution
// remainder and the tracing overhead. Human-readable results go to stderr;
// a record of the run and its spans go to --out-dir.
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "base/file_util.h"
#include "base/string_util.h"
#include "bench_common.h"
#include "common.h"
#include "image/image_prepost.h"
#include "replay.h"
#include "tensor/act_kernels.h"
#include "tensor/gemm.h"
#include "workloads.h"

namespace perfbench {
namespace {

using thali::Detection;
using thali::Detector;
using thali::Image;
using thali::StrFormat;

// Server launches per run; setup_s is their median.
constexpr int kSetupRepeats = 15;
// Traffic discarded before each measured window.
constexpr double kWarmupS = 1.0;
// Served replies holding detections compared bit for bit with in-process
// Detect.
constexpr int kBitwiseSample = 8;
// Quantized layers the serving recipe arms on yolov4-thali.
constexpr int kServedQuantizedLayers = 49;

// The quality set: the first images of the camera pool are rendered from
// this fixed seed, so map50 is scored on the same platters in every run and
// repeats exactly; the rest of the pool follows --seed.
constexpr uint64_t kQualitySeed = 20220131;

struct WorkloadSpec {
  const char* name;
  bool wire;         // served over THL1; otherwise the offline job
  int pool_size;     // rendered inputs (wire)
  int quality_size;  // leading pool images map50 is scored on (wire)
  int replay_size;   // inputs replayed through the layers in a traced run
};

constexpr WorkloadSpec kWorkloads[] = {
    {"wire_c1_camera", true, 128, 96, 24},
    {"offline_eval_b8", false, 0, 0, 64},
};

Pool MakePool(const WorkloadSpec& spec, uint64_t seed) {
  const int w = 640, h = 480;
  Pool pool = RenderPool(w, h, spec.quality_size, kQualitySeed);
  Pool rest = RenderPool(w, h, spec.pool_size - spec.quality_size, seed);
  for (int i = 0; i < rest.size(); ++i) {
    pool.pixels.push_back(std::move(rest.pixels[static_cast<size_t>(i)]));
    pool.truths.push_back(std::move(rest.truths[static_cast<size_t>(i)]));
  }
  return pool;
}

struct Args {
  std::string command;
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string server_bin;
  std::string out_dir;
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  if (argc < 2) return false;
  args->command = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--server-bin") {
      args->server_bin = value;
    } else if (key == "--out-dir") {
      args->out_dir = value;
    } else if (key == "--git-sha") {
      args->git_sha = value;
    } else if (key == "--source-digest") {
      args->source_digest = value;
    } else {
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Results of one measured window.

struct E2E {
  double latency_p50_ms = NAN;
  double latency_p99_ms = NAN;
  double images_per_s = NAN;
  double cpu_ms_per_image = NAN;
  double map50 = NAN;
  double peak_rss_mb = NAN;
  double setup_s = NAN;
  int64_t samples = 0;  // latency samples behind the percentiles
};

struct Tally {
  int64_t sent = 0, ok = 0, transport = 0, shed = 0, deadline = 0,
          other = 0, undecoded = 0;
  int64_t failed() const { return sent - ok; }
};

Tally Count(const std::vector<RequestRecord>& requests) {
  Tally t;
  for (const RequestRecord& r : requests) {
    ++t.sent;
    if (!r.decoded) ++t.undecoded;
    switch (r.outcome) {
      case Outcome::kOk: ++t.ok; break;
      case Outcome::kTransport: ++t.transport; break;
      case Outcome::kShed: ++t.shed; break;
      case Outcome::kDeadline: ++t.deadline; break;
      case Outcome::kOtherStatus: ++t.other; break;
    }
  }
  return t;
}

double P(const std::vector<double>& v, double p) {
  return v.empty() ? NAN : thali::bench::Percentile(v, p);
}

// Latency, throughput and CPU per image of a measurement, over its
// least-stolen parts (see kParts). `validity` gets the windows measured,
// the parts kept, the steal of the kept parts and of the whole measurement,
// and whether the kept parts are steady; `parts` gets [steal,
// samples, p50, max] of every part.
void SummarizeWindow(const std::vector<Sample>& samples,
                     const std::vector<Mark>& marks, int windows, E2E* e,
                     JsonObject* validity, std::string* parts) {
  THALI_CHECK_EQ(marks.size(), static_cast<size_t>(kParts * windows) + 1);
  const KeptParts kept = KeepLeastStolen(samples, marks);
  e->samples = static_cast<int64_t>(kept.latency_ms.size());
  e->latency_p50_ms = P(kept.latency_ms, 50);
  e->latency_p99_ms = P(kept.latency_ms, 99);
  e->images_per_s = kept.images / (kept.ms * 1e-3);
  e->cpu_ms_per_image = kept.cpu_ms / kept.images;
  if (parts != nullptr) {
    const std::vector<std::vector<int>> by_part = SamplesByPart(samples, marks);
    *parts = "[";
    for (size_t k = 0; k < by_part.size(); ++k) {
      std::vector<double> v;
      for (int i : by_part[k]) {
        v.push_back(samples[static_cast<size_t>(i)].latency_ms);
      }
      *parts += StrFormat("%s[%.3f, %zu", k ? ", " : "",
                          StealFrac(marks[k].host, marks[k + 1].host),
                          v.size());
      *parts += v.empty() ? ", null, null]"
                          : StrFormat(", %.3f, %.3f]", P(v, 50),
                                      *std::max_element(v.begin(), v.end()));
    }
    *parts += "]";
  }
  if (validity != nullptr) {
    validity->Int("windows", windows)
        .Int("parts_kept", kept.parts)
        .Num("host.steal_frac_kept", kept.steal())
        .Num("host.steal_frac_window",
             StealFrac(marks.front().host, marks.back().host))
        .Bool("steady", kept.steady());
  }
}

E2E WireE2E(const TrafficResult& r, const WorkloadSpec& spec, const Pool& pool,
            pid_t server_pid, double setup_s, JsonObject* validity,
            std::string* parts) {
  E2E e;
  SummarizeWindow(SamplesOf(r.requests), r.marks, r.windows, &e, validity,
                  parts);
  std::vector<std::vector<Detection>> dets;
  std::vector<std::vector<thali::GroundTruth>> truths;
  for (int p = 0; p < spec.quality_size; ++p) {
    dets.push_back(r.first_pass.at(p));
    truths.push_back(pool.truths[static_cast<size_t>(p)]);
  }
  e.map50 = Map50(dets, truths);
  e.peak_rss_mb = PeakRssMb(server_pid);
  e.setup_s = setup_s;
  return e;
}

bool SameDetections(const std::vector<Detection>& a,
                    const std::vector<Detection>& b) {
  if (a.size() != b.size()) return false;
  const auto bits = [](float f) { return std::bit_cast<uint32_t>(f); };
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].class_id != b[i].class_id ||
        bits(a[i].confidence) != bits(b[i].confidence) ||
        bits(a[i].box.x) != bits(b[i].box.x) ||
        bits(a[i].box.y) != bits(b[i].box.y) ||
        bits(a[i].box.w) != bits(b[i].box.w) ||
        bits(a[i].box.h) != bits(b[i].box.h)) {
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Output.

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"latency_p50_ms", "ms"},    {"latency_p99_ms", "ms"},
    {"images_per_s", "1/s"},     {"cpu_ms_per_image", "ms"},
    {"map50", "fraction"},       {"peak_rss_mb", "MB"},
    {"setup_s", "s"},
};

constexpr MetricSpec kPerLayer[] = {
    {"net.request_bytes", "bytes"},
    {"net.encode_ms", "ms"},
    {"net.decode_ms", "ms"},
    {"net.wire_ms", "ms"},
    {"net.start_ms", "ms"},
    {"serve.queue_wait_mean_ms", "ms"},
    {"serve.queue_wait_p50_ms", "ms"},
    {"serve.queue_wait_p99_ms", "ms"},
    {"serve.batch_mean", "count"},
    {"serve.failed", "count"},
    {"serve.linger_ms", "ms"},
    {"core.preprocess_ms", "ms"},
    {"core.forward_ms", "ms"},
    {"core.postprocess_ms", "ms"},
    {"image.letterbox_ms", "ms"},
    {"nn.forward_ms", "ms"},
    {"tensor.conv_gops", "GOP/s"},
    {"nn.activation_bytes", "bytes"},
    {"nn.quantized_layers", "count"},
    {"nn.head_decode_ms", "ms"},
    {"nn.decode_candidates", "count"},
    {"eval.nms_ms", "ms"},
    {"eval.nms_keep_ratio", "fraction"},
    {"darknet.load_ms", "ms"},
    {"darknet.calib_load_ms", "ms"},
    {"gen.lateness_p99_ms", "ms"},
    {"host.steal_frac", "fraction"},
    {"attr.remainder_frac", "fraction"},
    {"trace.overhead.latency_p50_ms", "fraction"},
    {"trace.overhead.latency_p99_ms", "fraction"},
    {"trace.overhead.images_per_s", "fraction"},
    {"trace.overhead.cpu_ms_per_image", "fraction"},
    {"trace.overhead.map50", "fraction"},
    {"trace.overhead.peak_rss_mb", "fraction"},
    {"trace.overhead.setup_s", "fraction"},
};

std::map<std::string, double> E2EMap(const E2E& e) {
  return {{"latency_p50_ms", e.latency_p50_ms},
          {"latency_p99_ms", e.latency_p99_ms},
          {"images_per_s", e.images_per_s},
          {"cpu_ms_per_image", e.cpu_ms_per_image},
          {"map50", e.map50},
          {"peak_rss_mb", e.peak_rss_mb},
          {"setup_s", e.setup_s}};
}

struct Checks {
  std::vector<std::string> failures;
  std::vector<std::string> passed;
  void Expect(bool ok, const std::string& what) {
    (ok ? passed : failures).push_back(what);
  }
};

struct RunOutput {
  std::map<std::string, double> metrics;  // the reported set
  Tally tally;
  Checks checks;
  JsonObject provenance;
  JsonObject validity;
  JsonObject extra;  // attribution, overhead, STATS
  std::string parts = "[]";  // per-part steal and latency, record only
  std::string text;  // human-readable summary
};

void Emit(const Args& args, const WorkloadSpec& spec, RunOutput& out) {
  const bool correct = out.checks.failures.empty();
  std::string metrics = "{";
  bool first = true;
  const auto add = [&](const MetricSpec& m) {
    const auto it = out.metrics.find(m.name);
    const double v = it == out.metrics.end() ? NAN : it->second;
    if (!first) metrics += ", ";
    first = false;
    metrics += StrFormat("\"%s\": {\"value\": %s, \"unit\": \"%s\"}", m.name,
                         std::isfinite(v) ? StrFormat("%.10g", v).c_str()
                                          : "null",
                         m.unit);
    out.text += StrFormat("  %-34s %14.6g %s\n", m.name, v, m.unit);
  };
  std::string header = StrFormat(
      "perfbench %s seed %llu, %s run, %.0f s window\n", spec.name,
      static_cast<unsigned long long>(args.seed),
      args.trace ? "traced" : "untraced", args.seconds);
  out.text = header + out.text;
  if (args.trace) {
    for (const MetricSpec& m : kPerLayer) add(m);
  } else {
    for (const MetricSpec& m : kEndToEnd) add(m);
  }
  metrics += "}";
  const Tally& t = out.tally;
  out.text += StrFormat(
      "  requests: sent %lld, ok %lld, failed %lld (transport %lld, shed "
      "%lld, deadline %lld, other status %lld); replies not decoding %lld\n",
      static_cast<long long>(t.sent), static_cast<long long>(t.ok),
      static_cast<long long>(t.failed()), static_cast<long long>(t.transport),
      static_cast<long long>(t.shed), static_cast<long long>(t.deadline),
      static_cast<long long>(t.other), static_cast<long long>(t.undecoded));
  for (const std::string& c : out.checks.passed) {
    out.text += "  check ok:     " + c + "\n";
  }
  for (const std::string& c : out.checks.failures) {
    out.text += "  CHECK FAILED: " + c + "\n";
  }
  out.text += "  validity:   " + out.validity.str() + "\n";
  out.text += "  provenance: " + out.provenance.str() + "\n";
  if (args.trace) out.text += "  traced:     " + out.extra.str() + "\n";
  std::fputs(out.text.c_str(), stderr);

  JsonObject record;
  record.Str("workload", spec.name)
      .Int("seed", static_cast<int64_t>(args.seed))
      .Num("seconds", args.seconds)
      .Bool("trace", args.trace)
      .Bool("correct", correct)
      .Raw("metrics", metrics)
      .Raw("requests", JsonObject()
                           .Int("sent", t.sent)
                           .Int("ok", t.ok)
                           .Int("failed", t.failed())
                           .Int("transport", t.transport)
                           .Int("shed", t.shed)
                           .Int("deadline", t.deadline)
                           .Int("other_status", t.other)
                           .Int("undecoded", t.undecoded)
                           .str())
      .Raw("validity", out.validity.str())
      .Raw("parts_steal_n_p50_max", out.parts)
      .Raw("provenance", out.provenance.str())
      .Raw("traced", out.extra.str());
  if (!args.out_dir.empty()) {
    const std::string path =
        StrFormat("%s/%s-seed%llu-trace%d.json", args.out_dir.c_str(),
                  spec.name, static_cast<unsigned long long>(args.seed),
                  args.trace ? 1 : 0);
    (void)thali::WriteStringToFile(path, record.str() + "\n");
  }

  JsonObject result;
  result.Bool("correct", correct)
      .Int("attempted", std::max<int64_t>(t.sent, 1))
      .Int("failed", t.failed())
      .Raw("metrics", metrics);
  std::printf("%s\n", result.str().c_str());
  std::fflush(stdout);
}

JsonObject Provenance(const Args& args, const ModelFiles& model,
                      const std::string& server_ready) {
  JsonObject p;
  p.Int("nproc", NumCpus())
      .Str("cpu_model", CpuModel())
      .Int("thali_num_threads", ServingThreads())
      .Str("git_sha", args.git_sha)
      .Str("source_digest", args.source_digest)
      .Str("build_type", PERFBENCH_BUILD_TYPE)
      .Str("weights_fnv64", model.weights_fnv)
      .Str("calib_fnv64", model.calib_fnv);
  if (!server_ready.empty()) {
    p.Str("gemm_kernel", JsonStringAt(server_ready, {"gemm_kernel"}))
        .Str("act_kernel", JsonStringAt(server_ready, {"act_kernel"}))
        .Str("resize_kernel", JsonStringAt(server_ready, {"resize_kernel"}))
        .Str("int8_kernel", JsonStringAt(server_ready, {"plan", "int8_kernel"}))
        .Int("server_strands",
             static_cast<int64_t>(JsonNumberAt(server_ready, {"strands"})));
  } else {
    p.Str("gemm_kernel", thali::GemmKernelName())
        .Str("act_kernel", thali::ActKernelName())
        .Str("resize_kernel", thali::ResizeKernelName())
        .Str("int8_kernel", "off");
  }
  return p;
}

double Overhead(double traced, double untraced) {
  return untraced != 0.0 ? (traced - untraced) / untraced : NAN;
}

// ---------------------------------------------------------------------------
// Wire workloads.

struct Launches {
  std::vector<double> setup_s, start_ms, load_ms, calib_ms;
};

void Note(Launches* l, const ServerProcess& s) {
  l->setup_s.push_back(s.setup_s());
  l->start_ms.push_back(s.start_to_ping_ms());
  l->load_ms.push_back(JsonNumberAt(s.ready_json(), {"load_ms"}));
  l->calib_ms.push_back(JsonNumberAt(s.ready_json(), {"calib_ms"}));
}

TrafficResult Traffic(const ServerProcess& server, const Pool& pool,
                      double seconds, Tracer* tracer) {
  TrafficResult r = RunClosedLoop(server.port(), server.pid(), pool, kWarmupS,
                                  seconds, tracer);
  THALI_CHECK_OK(CompleteFirstPass(server.port(), pool, &r));
  return r;
}

// The serving model's metrics in a STATS reply.
double Stat(const std::string& stats, const std::vector<std::string>& tail) {
  std::vector<std::string> path = {"router", "models", "yolov4-thali",
                                   "metrics"};
  path.insert(path.end(), tail.begin(), tail.end());
  return JsonNumberAt(stats, path);
}

// What the server did during a measurement, from its STATS just before and
// just after it. Every histogram carries its count and mean, so the
// measurement's sum is the difference of count x mean and its mean is exact
// (the histograms' percentiles are bucketed and cover the server's life).
struct Served {
  double e2e_ms = NAN, queue_wait_ms = NAN, preprocess_ms = NAN,
         forward_ms = NAN, postprocess_ms = NAN, batch_mean = NAN,
         failed = NAN;
};

Served ServedDuring(const TrafficResult& r) {
  const auto delta = [&](const std::vector<std::string>& tail) {
    return Stat(r.stats_after, tail) - Stat(r.stats_before, tail);
  };
  const auto mean = [&](const char* hist) {
    const auto sum = [&](const std::string& stats) {
      return Stat(stats, {hist, "count"}) * Stat(stats, {hist, "mean_ms"});
    };
    const double n = delta({hist, "count"});
    return n > 0 ? (sum(r.stats_after) - sum(r.stats_before)) / n : NAN;
  };
  Served s;
  s.e2e_ms = mean("e2e");
  s.queue_wait_ms = mean("queue_wait");
  s.preprocess_ms = mean("preprocess");
  s.forward_ms = mean("forward");
  s.postprocess_ms = mean("postprocess");
  s.batch_mean = delta({"batched_images"}) / delta({"batches"});
  s.failed = delta({"rejected"}) + delta({"timed_out"});
  return s;
}

double MeanOkLatency(const std::vector<RequestRecord>& requests) {
  std::vector<double> v;
  for (const RequestRecord& r : requests) {
    if (r.outcome == Outcome::kOk) v.push_back(r.latency_ms);
  }
  return Mean(v);
}

int RunWire(const Args& args, const WorkloadSpec& spec,
            const ModelFiles& model) {
  const Pool pool = MakePool(spec, args.seed);
  RunOutput out;

  // Set-up: launch the serving process several times; keep the last.
  Launches launches;
  std::unique_ptr<ServerProcess> server;
  for (int i = 0; i < kSetupRepeats; ++i) {
    auto s = ServerProcess::Launch(args.server_bin, ServingThreads());
    if (!s.ok()) {
      std::fprintf(stderr, "perfbench: %s\n", s.status().ToString().c_str());
      return 1;
    }
    Note(&launches, *s);
    if (i + 1 == kSetupRepeats) {
      server = std::make_unique<ServerProcess>(std::move(s).value());
    }
  }
  const std::string ready = server->ready_json();

  TrafficResult traffic = Traffic(*server, pool, args.seconds, nullptr);
  const E2E e2e = WireE2E(traffic, spec, pool, server->pid(),
                          Median(launches.setup_s), &out.validity, &out.parts);
  out.tally = Count(traffic.requests);
  const std::vector<double> lateness = [&] {
    std::vector<double> v;
    for (const RequestRecord& r : traffic.requests) v.push_back(r.lateness_ms);
    return v;
  }();
  out.validity.Num("gen.lateness_p99_ms", P(lateness, 99))
      .Int("latency_samples", e2e.samples)
      .Num("window_s", traffic.window_s);

  // A traced run repeats the measurement with client spans.
  Tracer client("client", args.trace);
  E2E traced;
  TrafficResult traced_traffic;
  if (args.trace) {
    traced_traffic = Traffic(*server, pool, args.seconds, &client);
    traced = WireE2E(traced_traffic, spec, pool, server->pid(), NAN, nullptr,
                     nullptr);
  }
  server->Stop();

  // Output checks against the same plan built in process.
  auto det = LoadServingDetector(model, nullptr);
  THALI_CHECK(det.ok()) << det.status().ToString();
  const int quantized = det->network().exec_plan().quantized_layers;
  const int served_quantized = static_cast<int>(
      JsonNumberAt(ready, {"plan", "quantized_layers"}));
  out.checks.Expect(out.tally.undecoded == 0, "every reply decodes");
  out.checks.Expect(served_quantized == kServedQuantizedLayers &&
                        quantized == kServedQuantizedLayers,
                    StrFormat("nn.quantized_layers is %d (served %d, in "
                              "process %d)",
                              kServedQuantizedLayers, served_quantized,
                              quantized));
  // Pool images are compared in order until kBitwiseSample of them held
  // detections, so the check compares boxes and not only empty replies.
  int compared = 0, equal = 0, with_detections = 0;
  for (int p = 0; p < pool.size() && with_detections < kBitwiseSample; ++p) {
    const std::vector<Detection> local = det->Detect(pool.Materialize(p));
    const std::vector<Detection>& served = traffic.first_pass.at(p);
    ++compared;
    if (SameDetections(local, served)) ++equal;
    if (!local.empty() || !served.empty()) ++with_detections;
  }
  out.checks.Expect(with_detections == kBitwiseSample && equal == compared,
                    StrFormat("served detections bitwise equal to in-process "
                              "Detect on %d/%d pool images, %d of them with "
                              "detections",
                              equal, compared, with_detections));

  out.provenance = Provenance(args, model, ready);
  if (!args.trace) {
    out.metrics = E2EMap(e2e);
    Emit(args, spec, out);
    return out.checks.failures.empty() ? 0 : 3;
  }

  // Traced run: setup repeats with spans, then the per-layer replay.
  Tracer setup("setup", true), replay("replay", true);
  Launches traced_launches;
  for (int i = 0; i < kSetupRepeats; ++i) {
    ScopedSpan span(&setup, "server.launch", -1, i);
    auto s = ServerProcess::Launch(args.server_bin, ServingThreads());
    THALI_CHECK(s.ok()) << s.status().ToString();
    Note(&traced_launches, *s);
  }
  traced.setup_s = Median(traced_launches.setup_s);

  // The server's side of the untraced measurement.
  std::map<std::string, double>& m = out.metrics;
  const Served served = ServedDuring(traffic);
  m["serve.queue_wait_mean_ms"] = served.queue_wait_ms;
  // Bucketed percentiles over the server's life (see Served).
  m["serve.queue_wait_p50_ms"] =
      Stat(traffic.stats_after, {"queue_wait", "p50_ms"});
  m["serve.queue_wait_p99_ms"] =
      Stat(traffic.stats_after, {"queue_wait", "p99_ms"});
  m["serve.batch_mean"] = served.batch_mean;
  m["serve.failed"] = served.failed;
  m["core.preprocess_ms"] = served.preprocess_ms;
  m["core.forward_ms"] = served.forward_ms;
  m["core.postprocess_ms"] = served.postprocess_ms;
  m["serve.linger_ms"] = served.e2e_ms - served.queue_wait_ms -
                         served.preprocess_ms - served.forward_ms -
                         served.postprocess_ms;

  std::vector<Image> images;
  for (int p = 0; p < std::min(spec.replay_size, pool.size()); ++p) {
    images.push_back(pool.Materialize(p));
  }
  ReplayOptions ropts;
  ropts.batch = std::max(1, static_cast<int>(std::lround(served.batch_mean)));
  ReplayLayers(*det, images, ropts, &replay, &m);
  const auto replay_mean = [&](const char* span) {
    return Mean(replay.DurationsMs(span));
  };

  // Everything the client waits for outside the server's e2e: the request
  // encode (inside the timed call), the transfer, the server-side decode,
  // the reply. Means, over the same requests as the server's.
  const double client_mean = MeanOkLatency(traffic.requests);
  m["net.wire_ms"] = client_mean - served.e2e_ms;
  m["net.start_ms"] = Median(launches.start_ms);
  m["darknet.load_ms"] = Median(launches.load_ms);
  m["darknet.calib_load_ms"] = Median(launches.calib_ms);
  std::vector<double> lat_traced;
  for (const RequestRecord& r : traced_traffic.requests) {
    lat_traced.push_back(r.lateness_ms);
  }
  m["gen.lateness_p99_ms"] = P(lat_traced, 99);
  m["host.steal_frac"] = StealFrac(traced_traffic.marks.front().host,
                                   traced_traffic.marks.back().host);

  // Attribution of the client mean to layer means (means add; medians do
  // not). Wire and linger are what the client and the server's stages
  // leave over, so the remainder is what the replayed entry points do not
  // explain of the served stages.
  JsonObject attribution;
  double attributed = 0.0;
  const auto row = [&](const char* name, double ms) {
    attribution.Num(name, ms);
    attributed += ms;
  };
  row("net.wire_ms", m["net.wire_ms"]);
  row("serve.queue_wait_mean_ms", served.queue_wait_ms);
  row("serve.linger_ms", m["serve.linger_ms"]);
  row("image.letterbox_ms", replay_mean("image.letterbox"));
  row("nn.forward_ms", replay_mean("nn.forward"));
  row("nn.head_decode_ms", replay_mean("nn.head_decode"));
  row("eval.nms_ms", replay_mean("eval.nms"));
  // The replayed share of the wire row, not added again.
  attribution.Num("net.wire_ms.encode", replay_mean("net.encode"))
      .Num("net.wire_ms.decode", replay_mean("net.decode"));
  const double remainder = client_mean - attributed;
  m["attr.remainder_frac"] = std::fabs(remainder) / client_mean;
  attribution.Num("client_mean_ms", client_mean)
      .Num("attributed_ms", attributed)
      .Num("remainder_ms", remainder)
      .Num("remainder_frac", remainder / client_mean);
  const auto untraced_map = E2EMap(e2e);
  const auto traced_map = E2EMap(traced);
  JsonObject overhead;
  for (const auto& [name, value] : untraced_map) {
    const double o = Overhead(traced_map.at(name), value);
    m["trace.overhead." + name] = o;
    overhead.Num(name, o);
  }
  out.extra.Raw("attribution_means_ms", attribution.str())
      .Raw("tracing_overhead", overhead.str())
      .Raw("untraced_e2e", [&] {
        JsonObject j;
        for (const auto& [k, v] : untraced_map) j.Num(k, v);
        return j.str();
      }())
      .Raw("stats", traffic.stats_after);
  if (!args.out_dir.empty()) {
    (void)WriteSpans(StrFormat("%s/%s-seed%llu.spans.jsonl",
                               args.out_dir.c_str(), spec.name,
                               static_cast<unsigned long long>(args.seed)),
                     {&client, &setup, &replay});
  }
  out.tally = Count(traced_traffic.requests);
  Emit(args, spec, out);
  return out.checks.failures.empty() ? 0 : 3;
}

// ---------------------------------------------------------------------------
// Offline workload.

int RunOfflineWorkload(const Args& args, const WorkloadSpec& spec,
                       const ModelFiles& model) {
  RunOutput out;
  // The job's inputs: the val split, kept as a compact copy so the
  // dataset's other 800 images do not count against the job's memory.
  std::vector<Image> images;
  std::vector<std::vector<thali::GroundTruth>> truths;
  {
    const thali::FoodDataset dataset = thali::bench::StandardDataset();
    for (int idx : dataset.val_indices()) {
      images.push_back(dataset.item(idx).image);
      std::vector<thali::GroundTruth> t;
      for (const thali::TruthBox& b : dataset.item(idx).truths) {
        t.push_back({b.box, b.class_id});
      }
      truths.push_back(std::move(t));
    }
  }
  malloc_trim(0);
  const bool rss_reset = ResetOwnPeakRss();

  const auto setup_once = [&](Tracer* tracer, int i, LoadTimes* times) {
    ScopedSpan span(tracer, "detector.load", -1, i);
    const auto t0 = Clock::now();
    auto det = LoadOfflineDetector(model, times);
    THALI_CHECK(det.ok()) << det.status().ToString();
    THALI_CHECK_OK(det->network().SetBatch(kOfflineBatch));
    const double s = std::chrono::duration<double>(Clock::now() - t0).count();
    return std::make_pair(std::move(det).value(), s);
  };
  std::vector<double> setup_s, load_ms, calib_ms;
  std::unique_ptr<Detector> det;
  for (int i = 0; i < kSetupRepeats; ++i) {
    LoadTimes times;
    auto [d, s] = setup_once(nullptr, i, &times);
    setup_s.push_back(s);
    load_ms.push_back(times.load_ms);
    calib_ms.push_back(times.calib_ms);
    if (i + 1 == kSetupRepeats) det = std::make_unique<Detector>(std::move(d));
  }

  const auto e2e_of = [&](const OfflineResult& r, double setup,
                          JsonObject* validity, std::string* parts) {
    E2E e;
    SummarizeWindow(r.batches, r.marks, r.windows, &e, validity, parts);
    e.map50 = Map50(r.first_pass, truths);
    e.peak_rss_mb = PeakRssMb(getpid());
    e.setup_s = setup;
    return e;
  };
  const OfflineResult run = RunOffline(*det, images, args.seconds, nullptr);
  const E2E e2e = e2e_of(run, Median(setup_s), &out.validity, &out.parts);
  out.tally.sent = out.tally.ok = run.images;
  out.validity.Num("gen.lateness_p99_ms", P(run.gap_ms, 99))
      .Int("latency_samples", e2e.samples)
      .Num("window_s", run.window_s)
      .Bool("peak_rss_reset_after_dataset", rss_reset);

  const int quantized = det->network().exec_plan().quantized_layers;
  out.checks.Expect(quantized == 0,
                    StrFormat("nn.quantized_layers is 0 (got %d)", quantized));
  const float best_map = thali::bench::EnsureTrainedModel(/*log=*/false).best_map;
  out.checks.Expect(
      std::lround(e2e.map50 * 1e4) == std::lround(best_map * 1e4),
      StrFormat("map50 %.4f matches the training run's best checkpoint "
                "%.4f to 4 digits",
                e2e.map50, best_map));
  out.provenance = Provenance(args, model, "");
  if (!args.trace) {
    out.metrics = E2EMap(e2e);
    Emit(args, spec, out);
    return out.checks.failures.empty() ? 0 : 3;
  }

  Tracer batches("client", true), setup("setup", true), replay("replay", true);
  const OfflineResult traced_run =
      RunOffline(*det, images, args.seconds, &batches);
  E2E traced = e2e_of(traced_run, NAN, nullptr, nullptr);
  std::vector<double> traced_setup;
  for (int i = 0; i < kSetupRepeats; ++i) {
    traced_setup.push_back(setup_once(&setup, i, nullptr).second);
  }
  traced.setup_s = Median(traced_setup);

  // Stage means of the untraced measurement.
  std::map<std::string, double>& m = out.metrics;
  std::vector<double> pre, fwd, post;
  for (const Detector::StageTimes& s : run.stages) {
    pre.push_back(s.preprocess_ms);
    fwd.push_back(s.forward_ms);
    post.push_back(s.postprocess_ms);
  }
  m["core.preprocess_ms"] = Mean(pre);
  m["core.forward_ms"] = Mean(fwd);
  m["core.postprocess_ms"] = Mean(post);
  // No wire or queue on this path.
  for (const char* n : {"net.wire_ms", "net.start_ms", "serve.queue_wait_mean_ms",
                        "serve.queue_wait_p50_ms", "serve.queue_wait_p99_ms",
                        "serve.failed", "serve.linger_ms"}) {
    m[n] = 0.0;
  }
  m["gen.lateness_p99_ms"] = P(traced_run.gap_ms, 99);
  m["serve.batch_mean"] = kOfflineBatch;
  std::vector<Image> sample(images.begin(),
                            images.begin() + std::min<size_t>(
                                                 images.size(),
                                                 static_cast<size_t>(
                                                     spec.replay_size)));
  ReplayOptions ropts;
  ropts.batch = kOfflineBatch;
  ropts.conf = kEvalConf;
  ropts.nms = kEvalNms;
  ReplayLayers(*det, sample, ropts, &replay, &m);
  const auto replay_mean = [&](const char* span) {
    return Mean(replay.DurationsMs(span));
  };
  m["darknet.load_ms"] = Median(load_ms);
  m["darknet.calib_load_ms"] = Median(calib_ms);
  m["host.steal_frac"] =
      StealFrac(traced_run.marks.front().host, traced_run.marks.back().host);

  // Attribution of the mean DetectBatch time of the untraced measurement:
  // staging, forward, then decode and NMS of each of the 8 images.
  std::vector<double> batch_ms;
  for (const Sample& b : run.batches) batch_ms.push_back(b.latency_ms);
  const double batch_mean = Mean(batch_ms);
  const double attributed =
      m["core.preprocess_ms"] + replay_mean("nn.forward") +
      kOfflineBatch * (replay_mean("nn.head_decode") + replay_mean("eval.nms"));
  m["attr.remainder_frac"] = std::fabs(batch_mean - attributed) / batch_mean;
  const auto untraced_map = E2EMap(e2e);
  const auto traced_map = E2EMap(traced);
  JsonObject overhead;
  for (const auto& [name, value] : untraced_map) {
    const double o = Overhead(traced_map.at(name), value);
    m["trace.overhead." + name] = o;
    overhead.Num(name, o);
  }
  out.extra
      .Raw("attribution_means_ms", JsonObject()
                              .Num("batch_mean_ms", batch_mean)
                              .Num("attributed_ms", attributed)
                              .Num("remainder_ms", batch_mean - attributed)
                              .str())
      .Raw("tracing_overhead", overhead.str());
  if (!args.out_dir.empty()) {
    (void)WriteSpans(StrFormat("%s/%s-seed%llu.spans.jsonl",
                               args.out_dir.c_str(), spec.name,
                               static_cast<unsigned long long>(args.seed)),
                     {&batches, &setup, &replay});
  }
  out.tally.sent = out.tally.ok = traced_run.images;
  Emit(args, spec, out);
  return out.checks.failures.empty() ? 0 : 3;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr, "usage: see the header of perfbench/runner_main.cc\n");
    return 2;
  }
  if (args.command == "prepare") {
    auto model = EnsureModelFiles(/*log=*/true);
    if (!model.ok()) {
      std::fprintf(stderr, "perfbench: %s\n",
                   model.status().ToString().c_str());
      return 1;
    }
    std::fprintf(stderr,
                 "[perfbench] model cache ready: weights %s, calibration %s\n",
                 model->weights_fnv.c_str(), model->calib_fnv.c_str());
    return 0;
  }
  if (args.command != "run") return 2;
  // The serving strands apply to this process too: the offline job and the
  // in-process check and replay detectors.
  setenv("THALI_NUM_THREADS", std::to_string(ServingThreads()).c_str(), 1);
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (args.workload == w.name) spec = &w;
  }
  if (spec == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  auto model = LoadModelFiles();
  if (!model.ok()) {
    std::fprintf(stderr, "perfbench: %s (run `perfbench_runner prepare`)\n",
                 model.status().ToString().c_str());
    return 1;
  }
  if (!spec->wire) {
    unsetenv("THALI_INT8");
    return RunOfflineWorkload(args, *spec, *model);
  }
  // The in-process check detector mirrors the server's int8 plan.
  setenv("THALI_INT8", "1", 1);
  return RunWire(args, *spec, *model);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
