// End-to-end inference benchmark: the paper's framing of YOLO as "a fast
// one-stage object detector". Measures full Detector::Detect latency
// (forward + decode + NMS) on the yolov4-thali network, with and without
// batch-norm folding, plus the letterboxed path for off-size inputs and
// DetectBatch throughput at batch 1/4/8.
//
// Before the google-benchmark suite runs, main() sweeps batch 1/4/8 and
// writes the activation arena's peak bytes, the planner's no-reuse
// baseline (sum of every layer's output) and images/sec to
// BENCH_memory.json.
//
// Uses randomly initialized weights: inference cost is independent of the
// weight values, so this bench never needs the trained-model cache.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "base/file_util.h"
#include "base/stopwatch.h"
#include "base/string_util.h"
#include "bench_common.h"
#include "core/detector.h"
#include "data/food_classes.h"
#include "data/renderer.h"

namespace thali {
namespace {

Image BenchImage(int size) {
  PlatterRenderer::Options ro;
  ro.width = size;
  ro.height = size;
  PlatterRenderer renderer(IndianFood10(), ro);
  Rng rng(4242);
  return renderer.RenderRandomPlatter(3, rng).image;
}

void BM_DetectorForward(benchmark::State& state) {
  auto det_or = Detector::FromCfg(bench::StandardCfg());
  THALI_CHECK(det_or.ok());
  Detector det = std::move(det_or).value();
  Image img = BenchImage(96);
  for (auto _ : state) {
    benchmark::DoNotOptimize(det.Detect(img, 0.25f, 0.45f));
  }
  state.counters["fps"] =
      benchmark::Counter(static_cast<double>(state.iterations()),
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_DetectorForward)->Unit(benchmark::kMillisecond);

void BM_DetectorForwardFusedBn(benchmark::State& state) {
  auto det_or = Detector::FromCfg(bench::StandardCfg());
  THALI_CHECK(det_or.ok());
  Detector det = std::move(det_or).value();
  det.FuseBatchNorm();
  Image img = BenchImage(96);
  for (auto _ : state) {
    benchmark::DoNotOptimize(det.Detect(img, 0.25f, 0.45f));
  }
  state.counters["fps"] =
      benchmark::Counter(static_cast<double>(state.iterations()),
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_DetectorForwardFusedBn)->Unit(benchmark::kMillisecond);

void BM_DetectorLetterboxedInput(benchmark::State& state) {
  // Off-size input exercises letterboxing + box re-mapping.
  auto det_or = Detector::FromCfg(bench::StandardCfg());
  THALI_CHECK(det_or.ok());
  Detector det = std::move(det_or).value();
  Image img = BenchImage(160);
  for (auto _ : state) {
    benchmark::DoNotOptimize(det.Detect(img, 0.25f, 0.45f));
  }
}
BENCHMARK(BM_DetectorLetterboxedInput)->Unit(benchmark::kMillisecond);

void BM_DetectBatch(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  auto det_or = Detector::FromCfg(bench::StandardCfg());
  THALI_CHECK(det_or.ok());
  Detector det = std::move(det_or).value();
  std::vector<Image> images(static_cast<size_t>(batch), BenchImage(96));
  for (auto _ : state) {
    benchmark::DoNotOptimize(det.DetectBatch(images, 0.25f, 0.45f));
  }
  state.counters["img/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * batch,
      benchmark::Counter::kIsRate);
  state.counters["act_bytes"] = benchmark::Counter(
      static_cast<double>(det.network().ActivationBytes()));
}
BENCHMARK(BM_DetectBatch)->Arg(1)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

// One row of the BENCH_memory.json sweep.
std::string MemorySweepRow(int batch, bool last) {
  auto det_or = Detector::FromCfg(bench::StandardCfg());
  THALI_CHECK(det_or.ok());
  Detector det = std::move(det_or).value();

  std::vector<Image> images(static_cast<size_t>(batch), BenchImage(96));
  det.DetectBatch(images, 0.25f, 0.45f);  // warm up + size buffers
  const ArenaPlan& plan = det.network().arena_plan();
  const int64_t bytes = det.network().ActivationBytes();

  int iters = 0;
  Stopwatch sw;
  while (sw.ElapsedSeconds() < 0.2 || iters < 3) {
    det.DetectBatch(images, 0.25f, 0.45f);
    ++iters;
  }
  const double images_per_sec = iters * batch / sw.ElapsedSeconds();

  return StrFormat(
      "    {\"batch\": %d, \"activation_bytes\": %lld, "
      "\"arena_floats\": %lld, \"sum_output_floats\": %lld, "
      "\"images_per_sec\": %.2f}%s\n",
      batch, static_cast<long long>(bytes),
      static_cast<long long>(plan.arena_floats),
      static_cast<long long>(plan.sum_output_floats), images_per_sec,
      last ? "" : ",");
}

void WriteMemoryBench() {
  std::string json;
  json += "{\n";
  json +=
      "  \"note\": \"yolov4-thali inference activation footprint: "
      "activation_bytes is Network::ActivationBytes() (the planned arena) "
      "after DetectBatch at the given batch; sum_output_floats is the "
      "planner's one-buffer-per-layer baseline from the same plan; "
      "images_per_sec is end-to-end DetectBatch throughput on this "
      "host.\",\n";
  json += "  \"model\": \"yolov4-thali 96x96\",\n";
  json += "  \"rows\": [\n";
  const int batches[] = {1, 4, 8};
  for (int i = 0; i < 3; ++i) {
    json += MemorySweepRow(batches[i], /*last=*/i == 2);
  }
  json += "  ]\n}\n";
  THALI_CHECK_OK(WriteStringToFile("BENCH_memory.json", json));
  THALI_LOG(Info) << "wrote BENCH_memory.json";
}

}  // namespace
}  // namespace thali

int main(int argc, char** argv) {
  thali::WriteMemoryBench();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
