// Heap allocations of the camera request's detection: one warmed
// batch-1 int8 Detect of a 640x480 platter, counted by replacing the
// global operator new. A binary of its own, because the replacement
// covers every allocation of the process it is linked into.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string_view>

#include "base/rng.h"
#include "base/thread_pool.h"
#include "core/detector.h"
#include "darknet/model_zoo.h"
#include "data/food_classes.h"
#include "data/renderer.h"
#include "nn/conv_layer.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<int64_t> g_calls{0};
std::atomic<int64_t> g_bytes{0};

void Count(std::size_t bytes) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_calls.fetch_add(1, std::memory_order_relaxed);
    g_bytes.fetch_add(static_cast<int64_t>(bytes), std::memory_order_relaxed);
  }
}

}  // namespace

void* operator new(std::size_t bytes) {
  Count(bytes);
  if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t bytes, std::align_val_t align) {
  Count(bytes);
  const std::size_t a = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(a, (bytes + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace thali {
namespace {

// Random-init weights at this confidence keep 14 detections, a
// camera-like handful (at the server's 0.25 nearly every cell passes).
constexpr float kConf = 0.35f;
constexpr float kNms = 0.45f;
// The ceiling is what this request allocated before item groups
// (76 calls, 9774 bytes), so a change that adds an allocation to the
// batch-1 path fails here.
constexpr int64_t kMaxCalls = 76;
constexpr int64_t kMaxBytes = 9774;

TEST(AllocationTest, WarmedInt8CameraDetectStaysUnderTheCeiling) {
  // Two strands, as the serving benchmark runs: a batch-1 request is
  // one item group, which runs inline on the caller.
  SetMaxParallelism(2);
  auto built = Detector::FromCfg(YoloThaliCfg(YoloThaliOptions{}), 7);
  ASSERT_TRUE(built.ok());
  Detector det = std::move(built).value();
  det.FuseBatchNorm();

  PlatterRenderer::Options opts;
  opts.width = 640;
  opts.height = 480;
  const PlatterRenderer renderer(IndianFood10(), opts);
  Rng rng(11);
  const Image frame = renderer.RenderRandomPlatter(3, rng).image;

  // Min-max calibration on the frame itself arms every quantizable conv.
  Network& net = det.network();
  net.set_calib_phase(CalibPhase::kRange);
  (void)det.Detect(frame);
  net.set_calib_phase(CalibPhase::kOff);
  for (int i = 0; i < net.num_layers(); ++i) {
    Layer& l = net.layer(i);
    if (std::string_view(l.kind()) != "convolutional") continue;
    if (l.plan().quantizable) {
      static_cast<ConvLayer&>(l).FinalizeCalibration(100.0);
    }
  }
  ASSERT_TRUE(net.ReplanInference().ok());
  ASSERT_GT(net.exec_plan().quantized_layers, 0);
  ASSERT_TRUE(net.exec_plan().input_u8);

  (void)det.Detect(frame, kConf, kNms);  // warm: staging, scratch settle
  g_calls = 0;
  g_bytes = 0;
  g_counting = true;
  const std::vector<Detection> dets = det.Detect(frame, kConf, kNms);
  g_counting = false;
  RecordProperty("detections", static_cast<int>(dets.size()));
  RecordProperty("new_calls", static_cast<int>(g_calls.load()));
  RecordProperty("new_bytes", static_cast<int>(g_bytes.load()));
  EXPECT_LE(g_calls.load(), kMaxCalls) << g_bytes.load() << " bytes";
  EXPECT_LE(g_bytes.load(), kMaxBytes) << g_calls.load() << " calls";
}

}  // namespace
}  // namespace thali
