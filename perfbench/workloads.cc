#include "workloads.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "base/rng.h"
#include "base/thread_pool.h"
#include "data/food_classes.h"
#include "data/renderer.h"
#include "eval/metrics.h"
#include "net/client.h"
#include "net/protocol.h"

extern char** environ;

namespace perfbench {

using thali::Detection;
using thali::Image;
using thali::Status;
using thali::StatusCode;
using thali::StatusOr;

// ---------------------------------------------------------------------------
// Spans.

int32_t Tracer::Begin(const char* name, int32_t parent, int64_t request) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.parent = parent;
  s.request = request;
  s.start_ns = ToNs(Clock::now());
  spans_.push_back(s);
  return static_cast<int32_t>(spans_.size() - 1);
}

void Tracer::End(int32_t id) {
  if (!enabled_ || id < 0) return;
  spans_[static_cast<size_t>(id)].end_ns = ToNs(Clock::now());
}

std::vector<double> Tracer::DurationsMs(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) out.push_back((s.end_ns - s.start_ns) * 1e-6);
  }
  return out;
}

Status WriteSpans(const std::string& path,
                  const std::vector<const Tracer*>& tracers) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IOError("cannot write " + path);
  for (const Tracer* t : tracers) {
    for (size_t i = 0; i < t->spans().size(); ++i) {
      const Span& s = t->spans()[i];
      std::fprintf(f,
                   "{\"thread\": \"%s\", \"id\": %zu, \"name\": \"%s\", "
                   "\"start_ns\": %lld, \"end_ns\": %lld, \"parent\": %d, "
                   "\"request\": %lld}\n",
                   t->thread_name().c_str(), i, s.name,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), s.parent,
                   static_cast<long long>(s.request));
    }
  }
  return std::fclose(f) == 0 ? Status::OK()
                             : Status::IOError("cannot write " + path);
}

// ---------------------------------------------------------------------------
// Inputs.

Image Pool::Materialize(int i) const {
  Image img(width, height, 3);
  MaterializeInto(i, &img);
  return img;
}

void Pool::MaterializeInto(int i, Image* image) const {
  const std::vector<uint8_t>& px = pixels[static_cast<size_t>(i)];
  THALI_CHECK_EQ(static_cast<size_t>(image->size()), px.size());
  float* dst = image->data();
  for (size_t k = 0; k < px.size(); ++k) dst[k] = px[k] * (1.0f / 255.0f);
}

Pool RenderPool(int width, int height, int count, uint64_t seed) {
  thali::PlatterRenderer::Options opts;
  opts.width = width;
  opts.height = height;
  const thali::PlatterRenderer renderer(thali::IndianFood10(), opts);
  thali::Rng master(seed);
  std::vector<thali::Rng> rngs;
  for (int i = 0; i < count; ++i) rngs.push_back(master.Fork());

  Pool pool;
  pool.width = width;
  pool.height = height;
  pool.pixels.resize(static_cast<size_t>(count));
  pool.truths.resize(static_cast<size_t>(count));
  thali::ParallelFor(0, count, 1, [&](int64_t i0, int64_t i1, int) {
    for (int64_t i = i0; i < i1; ++i) {
      thali::Rng& rng = rngs[static_cast<size_t>(i)];
      const int dishes = rng.NextInt(1, 4);
      const thali::RenderedScene scene =
          renderer.RenderRandomPlatter(dishes, rng);
      std::vector<uint8_t>& px = pool.pixels[static_cast<size_t>(i)];
      px.resize(static_cast<size_t>(scene.image.size()));
      const float* src = scene.image.data();
      for (size_t k = 0; k < px.size(); ++k) {
        px[k] = static_cast<uint8_t>(
            std::lround(std::clamp(src[k], 0.0f, 1.0f) * 255.0f));
      }
      for (const thali::TruthBox& t : scene.truths) {
        pool.truths[static_cast<size_t>(i)].push_back({t.box, t.class_id});
      }
    }
  });
  return pool;
}

// ---------------------------------------------------------------------------
// The serving process.

namespace {

// Reads one '\n'-terminated line from `fd` within `timeout_ms`.
StatusOr<std::string> ReadLine(int fd, int timeout_ms) {
  std::string line;
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  while (true) {
    const int left = static_cast<int>(
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline -
                                                              Clock::now())
            .count());
    if (left <= 0) return Status::DeadlineExceeded("server did not start");
    pollfd p{fd, POLLIN, 0};
    if (poll(&p, 1, left) <= 0) continue;
    char c = 0;
    const ssize_t n = read(fd, &c, 1);
    if (n <= 0) return Status::Unavailable("server exited before READY");
    if (c == '\n') return line;
    line += c;
  }
}

}  // namespace

StatusOr<ServerProcess> ServerProcess::Launch(const std::string& binary,
                                              int threads) {
  std::vector<std::string> env_strings;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string_view kv(*e);
    if (kv.rfind("THALI_INT8=", 0) == 0 ||
        kv.rfind("THALI_NUM_THREADS=", 0) == 0) {
      continue;
    }
    env_strings.emplace_back(kv);
  }
  env_strings.push_back("THALI_INT8=1");
  env_strings.push_back("THALI_NUM_THREADS=" + std::to_string(threads));
  std::vector<char*> envp;
  for (std::string& s : env_strings) envp.push_back(s.data());
  envp.push_back(nullptr);

  int in_pipe[2], out_pipe[2];
  if (pipe2(in_pipe, O_CLOEXEC) != 0) return Status::IOError("pipe");
  if (pipe2(out_pipe, O_CLOEXEC) != 0) {
    close(in_pipe[0]);
    close(in_pipe[1]);
    return Status::IOError("pipe");
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, in_pipe[0], STDIN_FILENO);
  posix_spawn_file_actions_adddup2(&actions, out_pipe[1], STDOUT_FILENO);
  std::string bin = binary;
  char* argv[] = {bin.data(), nullptr};

  ServerProcess proc;
  const auto t0 = Clock::now();
  const int rc = posix_spawn(&proc.pid_, bin.c_str(), &actions, nullptr, argv,
                             envp.data());
  posix_spawn_file_actions_destroy(&actions);
  close(in_pipe[0]);
  close(out_pipe[1]);
  if (rc != 0) {
    close(in_pipe[1]);
    close(out_pipe[0]);
    proc.pid_ = -1;
    return Status::IOError("spawn " + binary + ": " + std::strerror(rc));
  }
  proc.stdin_fd_ = in_pipe[1];

  StatusOr<std::string> line = ReadLine(out_pipe[0], 120000);
  close(out_pipe[0]);
  if (!line.ok()) return line.status();
  if (line->rfind("READY ", 0) != 0) {
    return Status::Corruption("unexpected server output: " + *line);
  }
  proc.ready_ = line->substr(6);
  const double port = JsonNumberAt(proc.ready_, {"port"});
  if (!std::isfinite(port)) return Status::Corruption("READY without port");
  proc.port_ = static_cast<uint16_t>(port);

  THALI_ASSIGN_OR_RETURN(thali::net::NetClient client,
                         thali::net::NetClient::Connect(proc.port_));
  THALI_RETURN_IF_ERROR(client.Ping());
  const auto t1 = Clock::now();
  proc.setup_s_ = std::chrono::duration<double>(t1 - t0).count();
  proc.start_ms_ = (ToNs(t1) - JsonNumberAt(proc.ready_, {"start_ns"})) * 1e-6;
  return proc;
}

ServerProcess::ServerProcess(ServerProcess&& other) noexcept
    : pid_(other.pid_),
      stdin_fd_(other.stdin_fd_),
      port_(other.port_),
      ready_(std::move(other.ready_)),
      setup_s_(other.setup_s_),
      start_ms_(other.start_ms_) {
  other.pid_ = -1;
  other.stdin_fd_ = -1;
}

void ServerProcess::Stop() {
  if (stdin_fd_ >= 0) {
    close(stdin_fd_);
    stdin_fd_ = -1;
  }
  if (pid_ <= 0) return;
  // A clean shutdown drains in-flight work; give it 20 s, then kill.
  for (int i = 0; i < 2000; ++i) {
    int status = 0;
    if (waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  kill(pid_, SIGKILL);
  waitpid(pid_, nullptr, 0);
  pid_ = -1;
}

// ---------------------------------------------------------------------------
// Measurement.

std::vector<std::vector<int>> SamplesByPart(const std::vector<Sample>& samples,
                                            const std::vector<Mark>& marks) {
  std::vector<double> bound_ms;  // part k starts at bound_ms[k]
  for (const Mark& m : marks) bound_ms.push_back(MsBetween(marks[0].at, m.at));
  std::vector<std::vector<int>> by_part(marks.size() - 1);
  for (size_t i = 0; i < samples.size(); ++i) {
    const auto next = std::upper_bound(bound_ms.begin(), bound_ms.end(),
                                       samples[i].start_ms);
    const size_t k = static_cast<size_t>(next - bound_ms.begin());
    if (samples[i].ok && k >= 1 && k < bound_ms.size()) {
      by_part[k - 1].push_back(static_cast<int>(i));
    }
  }
  return by_part;
}

KeptParts KeepLeastStolen(const std::vector<Sample>& samples,
                          const std::vector<Mark>& marks) {
  const int parts = static_cast<int>(marks.size()) - 1;
  const std::vector<std::vector<int>> by_part = SamplesByPart(samples, marks);
  std::vector<int> order(static_cast<size_t>(parts));
  for (int k = 0; k < parts; ++k) order[static_cast<size_t>(k)] = k;
  const auto part_steal = [&](int k) {
    return StealFrac(marks[static_cast<size_t>(k)].host,
                     marks[static_cast<size_t>(k) + 1].host);
  };
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return part_steal(a) < part_steal(b);
  });

  KeptParts kept;
  for (int k : order) {
    if (static_cast<int>(kept.latency_ms.size()) >= kTailSamples) break;
    ++kept.parts;
    for (int i : by_part[static_cast<size_t>(k)]) {
      kept.latency_ms.push_back(samples[static_cast<size_t>(i)].latency_ms);
      kept.images += samples[static_cast<size_t>(i)].images;
    }
    const Mark& a = marks[static_cast<size_t>(k)];
    const Mark& b = marks[static_cast<size_t>(k) + 1];
    kept.cpu_ms += b.cpu_ms - a.cpu_ms;
    kept.ms += MsBetween(a.at, b.at);
    kept.host.busy += b.host.busy - a.host.busy;
    kept.host.steal += b.host.steal - a.host.steal;
  }
  return kept;
}

PartClock::PartClock(double seconds, std::function<Mark()> mark)
    : part_(seconds / kParts), mark_(std::move(mark)) {
  marks_.push_back(mark_());
}

bool PartClock::Continue(
    const std::function<std::vector<Sample>()>& samples) {
  const auto now = Clock::now();
  while (marks_.size() <= static_cast<size_t>(kParts * windows_) &&
         now >= start() + marks_.size() * part_) {
    marks_.push_back(mark_());
    if (marks_.size() == static_cast<size_t>(kParts * windows_) + 1 &&
        windows_ < kMaxWindows &&
        !KeepLeastStolen(samples(), marks_).steady()) {
      ++windows_;
    }
  }
  return marks_.size() <= static_cast<size_t>(kParts * windows_);
}

// ---------------------------------------------------------------------------
// Traffic.

namespace {

Outcome Classify(const Status& s) {
  switch (s.code()) {
    case StatusCode::kOk:
      return Outcome::kOk;
    case StatusCode::kResourceExhausted:
      return Outcome::kShed;
    case StatusCode::kDeadlineExceeded:
      return Outcome::kDeadline;
    case StatusCode::kIOError:
    case StatusCode::kUnavailable:
      return Outcome::kTransport;
    default:
      return Outcome::kOtherStatus;
  }
}

thali::net::DetectRequest CameraRequest(Image image) {
  thali::net::DetectRequest req;
  req.priority = thali::serve::Priority::kInteractive;
  req.deadline_ms = 0;
  req.image = std::move(image);
  return req;
}

}  // namespace

std::vector<Sample> SamplesOf(const std::vector<RequestRecord>& requests) {
  std::vector<Sample> out;
  out.reserve(requests.size());
  for (const RequestRecord& q : requests) {
    out.push_back({q.start_ms, q.latency_ms, 1, q.outcome == Outcome::kOk});
  }
  return out;
}

TrafficResult RunClosedLoop(uint16_t port, pid_t server_pid, const Pool& pool,
                            double warmup_s, double seconds, Tracer* tracer) {
  TrafficResult result;
  auto connected = thali::net::NetClient::Connect(port);
  THALI_CHECK(connected.ok()) << connected.status().ToString();
  auto client =
      std::make_unique<thali::net::NetClient>(std::move(connected).value());
  thali::net::DetectRequest req =
      CameraRequest(Image(pool.width, pool.height, 3));
  const auto fill = [&](int p) { pool.MaterializeInto(p, &req.image); };

  const auto warm_end =
      Clock::now() + std::chrono::duration<double>(warmup_s);
  for (int i = 0; Clock::now() < warm_end; ++i) {
    fill(i % pool.size());
    (void)client->Detect(req);
  }

  auto stats = FetchStats(port);
  THALI_CHECK(stats.ok()) << stats.status().ToString();
  result.stats_before = *stats;
  PartClock clock(seconds, [&] {
    return Mark{Clock::now(), ProcessCpuMs(server_pid), ReadHostTicks()};
  });
  const auto samples = [&] { return SamplesOf(result.requests); };
  auto prev_done = clock.start();
  for (int64_t k = 0; clock.Continue(samples); ++k) {
    const int p = static_cast<int>(k % pool.size());
    fill(p);
    RequestRecord rec;
    rec.pool_index = p;
    const auto t0 = Clock::now();
    rec.start_ms = MsBetween(clock.start(), t0);
    rec.lateness_ms = MsBetween(prev_done, t0);
    StatusOr<std::vector<Detection>> r = [&] {
      ScopedSpan span(tracer, "client.detect", -1, k);
      return client->Detect(req);
    }();
    const auto t1 = Clock::now();
    prev_done = t1;
    rec.latency_ms = MsBetween(t0, t1);
    rec.outcome = Classify(r.status());
    rec.decoded = r.status().code() != StatusCode::kCorruption;
    if (!result.first_pass.count(p)) {
      result.first_pass[p] = r.ok() ? *r : std::vector<Detection>{};
    }
    result.requests.push_back(rec);
    if (rec.outcome == Outcome::kTransport) {
      auto again = thali::net::NetClient::Connect(port);
      if (!again.ok()) break;
      client = std::make_unique<thali::net::NetClient>(std::move(again).value());
    }
  }
  result.window_s =
      std::chrono::duration<double>(Clock::now() - clock.start()).count();
  result.windows = clock.windows();
  result.marks = clock.TakeMarks();
  stats = FetchStats(port);
  THALI_CHECK(stats.ok()) << stats.status().ToString();
  result.stats_after = *stats;
  return result;
}

Status CompleteFirstPass(uint16_t port, const Pool& pool,
                         TrafficResult* result) {
  std::unique_ptr<thali::net::NetClient> client;
  for (int p = 0; p < pool.size(); ++p) {
    if (result->first_pass.count(p)) continue;
    if (client == nullptr) {
      THALI_ASSIGN_OR_RETURN(thali::net::NetClient c,
                             thali::net::NetClient::Connect(port));
      client = std::make_unique<thali::net::NetClient>(std::move(c));
    }
    auto r = client->Detect(CameraRequest(pool.Materialize(p)));
    result->first_pass[p] = r.ok() ? *r : std::vector<Detection>{};
  }
  return Status::OK();
}

StatusOr<std::string> FetchStats(uint16_t port) {
  THALI_ASSIGN_OR_RETURN(thali::net::NetClient client,
                         thali::net::NetClient::Connect(port));
  return client.Stats();
}

// ---------------------------------------------------------------------------
// Offline batch job.

namespace {

double OwnCpuMs() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto ms = [](const timeval& tv) {
    return tv.tv_sec * 1e3 + tv.tv_usec * 1e-3;
  };
  return ms(ru.ru_utime) + ms(ru.ru_stime);
}

}  // namespace

OfflineResult RunOffline(thali::Detector& det, const std::vector<Image>& images,
                         double seconds, Tracer* tracer) {
  OfflineResult out;
  const int n = static_cast<int>(images.size());
  const auto batch_at = [&](int start) {
    return std::span<const Image>(images.data() + start,
                                  std::min(kOfflineBatch, n - start));
  };
  for (int start = 0; start < n; start += kOfflineBatch) {
    auto dets = det.DetectBatch(batch_at(start), kEvalConf, kEvalNms);
    for (auto& d : dets) out.first_pass.push_back(std::move(d));
  }

  PartClock clock(seconds, [] {
    return Mark{Clock::now(), OwnCpuMs(), ReadHostTicks()};
  });
  const auto samples = [&] { return out.batches; };
  int start = 0;
  auto prev_end = clock.start();
  for (int64_t k = 0; clock.Continue(samples); ++k) {
    const auto t0 = Clock::now();
    const std::span<const Image> batch = batch_at(start);
    {
      ScopedSpan span(tracer, "offline.detect_batch", -1, k);
      (void)det.DetectBatch(batch, kEvalConf, kEvalNms);
    }
    const auto t1 = Clock::now();
    out.batches.push_back({MsBetween(clock.start(), t0), MsBetween(t0, t1),
                           static_cast<int>(batch.size()), true});
    out.gap_ms.push_back(MsBetween(prev_end, t0));
    prev_end = t1;
    out.stages.push_back(det.last_stage_times());
    out.images += static_cast<int64_t>(batch.size());
    start = (start + static_cast<int>(batch.size())) % n;
  }
  out.window_s =
      std::chrono::duration<double>(Clock::now() - clock.start()).count();
  out.windows = clock.windows();
  out.marks = clock.TakeMarks();
  return out;
}

double Map50(const std::vector<std::vector<Detection>>& detections,
             const std::vector<std::vector<thali::GroundTruth>>& truths) {
  std::vector<thali::ImageEval> evals(detections.size());
  for (size_t i = 0; i < detections.size(); ++i) {
    evals[i].image_id = static_cast<int>(i);
    evals[i].detections = detections[i];
    evals[i].truths = truths[i];
  }
  return thali::Evaluate(evals,
                         static_cast<int>(thali::IndianFood10().size()), 0.5f)
      .map;
}

}  // namespace perfbench
