// Tests for the pre/post-processing fast paths: table-driven letterbox
// parity against the seed resize, the fused letterbox+quantize byte
// contract, the CollectAtLeast objectness pre-filter family
// conformance, exact equivalence of the raw-logit YOLO decode and the
// bucketed NMS against their references, and the end-to-end pin of
// Detect against a seed pipeline. The seed loops live in
// tests/seed_prepost.h; the library runs only the fast paths.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string_view>
#include <vector>

#include "base/cpu_features.h"
#include "base/rng.h"
#include "base/thread_pool.h"
#include "core/detector.h"
#include "darknet/cfg.h"
#include "darknet/model_zoo.h"
#include "eval/detection.h"
#include "image/image.h"
#include "image/image_prepost.h"
#include "nn/conv_layer.h"
#include "nn/exec_plan.h"
#include "nn/network.h"
#include "nn/yolo_layer.h"
#include "tensor/act_kernels.h"
#include "tensor/gemm_int8.h"
#include "tensor/tensor.h"
#include "seed_prepost.h"

namespace thali {
namespace {

// Restores every global knob a test may flip so a failure cannot leak a
// forced kernel family or parallelism into later tests.
class PrepostTest : public ::testing::Test {
 protected:
  void TearDown() override {
    SetMaxParallelism(1);
    internal::SetScalarKernelsForTesting(false);
  }
};

uint32_t Bits(float v) {
  uint32_t u;
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

void ExpectBitwiseEqual(const std::vector<Detection>& a,
                        const std::vector<Detection>& b,
                        const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].class_id, b[i].class_id) << what << " det " << i;
    EXPECT_EQ(Bits(a[i].confidence), Bits(b[i].confidence))
        << what << " det " << i;
    EXPECT_EQ(Bits(a[i].box.x), Bits(b[i].box.x)) << what << " det " << i;
    EXPECT_EQ(Bits(a[i].box.y), Bits(b[i].box.y)) << what << " det " << i;
    EXPECT_EQ(Bits(a[i].box.w), Bits(b[i].box.w)) << what << " det " << i;
    EXPECT_EQ(Bits(a[i].box.h), Bits(b[i].box.h)) << what << " det " << i;
  }
}

// Clustered detections: boxes jittered around a handful of centers so
// many pairs overlap past any NMS threshold; optional confidence ties
// (values drawn from a small grid) exercise the sort's stability.
std::vector<Detection> MakeClusteredDets(Rng& rng, int n, int classes,
                                         bool tie_confs) {
  constexpr int kClusters = 5;
  float cx[kClusters], cy[kClusters];
  for (int k = 0; k < kClusters; ++k) {
    cx[k] = rng.NextFloat(0.15f, 0.85f);
    cy[k] = rng.NextFloat(0.15f, 0.85f);
  }
  std::vector<Detection> dets;
  dets.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    const int k = rng.NextInt(0, kClusters - 1);
    Detection d;
    d.box.x = cx[k] + rng.NextFloat(-0.05f, 0.05f);
    d.box.y = cy[k] + rng.NextFloat(-0.05f, 0.05f);
    d.box.w = rng.NextFloat(0.02f, 0.3f);
    d.box.h = rng.NextFloat(0.02f, 0.3f);
    d.class_id = rng.NextInt(0, classes - 1);
    d.confidence = tie_confs
                       ? 0.1f * static_cast<float>(rng.NextInt(1, 9))
                       : rng.NextFloat(0.01f, 1.0f);
    // A sprinkle of degenerate boxes: zero area must suppress/survive
    // exactly as the reference decides.
    if (i % 17 == 0) d.box.w = 0.0f;
    dets.push_back(d);
  }
  return dets;
}

TEST_F(PrepostTest, FastNmsMatchesReferenceOnClusteredBoxes) {
  for (uint64_t seed = 0; seed < 12; ++seed) {
    Rng rng(seed * 131 + 7);
    for (int n : {0, 1, 2, 7, 64, 200}) {
      for (float thr : {0.3f, 0.45f, 0.6f}) {
        const std::vector<Detection> dets =
            MakeClusteredDets(rng, n, /*classes=*/4, /*tie_confs=*/false);
        ExpectBitwiseEqual(Nms(dets, thr),
                           SeedNms(dets, thr, /*class_aware=*/true),
                           "class-aware");
        ExpectBitwiseEqual(NmsClassAgnostic(dets, thr),
                           SeedNms(dets, thr, /*class_aware=*/false),
                           "class-agnostic");
      }
    }
  }
}

TEST_F(PrepostTest, FastNmsMatchesReferenceUnderConfidenceTies) {
  for (uint64_t seed = 0; seed < 12; ++seed) {
    Rng rng(seed * 977 + 3);
    const std::vector<Detection> dets =
        MakeClusteredDets(rng, 120, /*classes=*/3, /*tie_confs=*/true);
    for (float thr : {0.2f, 0.45f, 0.9f}) {
      ExpectBitwiseEqual(Nms(dets, thr), SeedNms(dets, thr, true),
                         "tied class-aware");
      ExpectBitwiseEqual(NmsClassAgnostic(dets, thr),
                         SeedNms(dets, thr, false), "tied class-agnostic");
    }
  }
}

TEST_F(PrepostTest, CollectAtLeastKeepsExactSemanticsIncludingNaN) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  // 19 elements so the AVX2 family runs both the vector body and the
  // scalar tail.
  const std::vector<float> x = {0.5f, -1.0f, 0.5f, nan,  2.0f,  0.49f, inf,
                                -inf, 0.5f,  3.0f, nan,  0.51f, 0.0f,  7.0f,
                                0.5f, -2.0f, 1.0f, 0.5f, 0.25f};
  const auto collect = [&](bool scalar, float thr) {
    internal::SetScalarKernelsForTesting(scalar);
    std::vector<int32_t> idx(x.size());
    const int64_t m = CollectAtLeast(
        x.data(), static_cast<int64_t>(x.size()), thr, idx.data());
    internal::SetScalarKernelsForTesting(false);
    idx.resize(static_cast<size_t>(m));
    return idx;
  };
  for (float thr : {0.5f, 0.0f, -inf, 100.0f}) {
    // Oracle: the exact negation of the reference decode's skip,
    // `if (obj < thr) continue` — NaN never compares less, so NaN
    // elements are always collected.
    std::vector<int32_t> want;
    for (size_t i = 0; i < x.size(); ++i) {
      if (!(x[i] < thr)) want.push_back(static_cast<int32_t>(i));
    }
    EXPECT_EQ(collect(/*scalar=*/true, thr), want) << "thr " << thr;
    EXPECT_EQ(collect(/*scalar=*/false, thr), want) << "thr " << thr;
  }
}

Image RandomImage(uint64_t seed, int w, int h) {
  Rng rng(seed);
  Image img(w, h);
  for (int64_t i = 0; i < img.size(); ++i) img.data()[i] = rng.NextFloat();
  return img;
}

TEST_F(PrepostTest, ScalarLetterboxIsBitwiseIdenticalToSeedReference) {
  internal::SetScalarKernelsForTesting(true);
  for (auto [w, h] : {std::pair{123, 77}, {200, 200}, {31, 190}, {97, 95}}) {
    const Image src = RandomImage(static_cast<uint64_t>(w * 1000 + h), w, h);
    const Letterbox ref = SeedLetterbox(src, 96, 96);
    std::vector<float> dst(3 * 96 * 96, -1.0f);
    const LetterboxGeometry g = LetterboxIntoPlanes(src, 96, 96, dst.data());
    EXPECT_EQ(Bits(g.scale), Bits(ref.scale));
    EXPECT_EQ(g.pad_x, ref.pad_x);
    EXPECT_EQ(g.pad_y, ref.pad_y);
    ASSERT_EQ(ref.image.size(), static_cast<int64_t>(dst.size()));
    EXPECT_EQ(std::memcmp(ref.image.data(), dst.data(),
                          dst.size() * sizeof(float)),
              0)
        << w << "x" << h;
    // The Image-returning entry points run the same family.
    const Letterbox lb = LetterboxImage(src, 96, 96);
    EXPECT_EQ(std::memcmp(ref.image.data(), lb.image.data(),
                          dst.size() * sizeof(float)),
              0)
        << "LetterboxImage " << w << "x" << h;
    const Image want = SeedResize(src, 61, 45);
    const Image got = Resize(src, 61, 45);
    EXPECT_EQ(std::memcmp(want.data(), got.data(),
                          static_cast<size_t>(want.size()) * sizeof(float)),
              0)
        << "Resize " << w << "x" << h;
  }
}

TEST_F(PrepostTest, Avx2LetterboxStaysWithinToleranceOfScalar) {
  if (!CpuInfo().avx2 || !CpuInfo().fma) GTEST_SKIP() << "no AVX2+FMA";
  const Image src = RandomImage(99, 157, 83);
  std::vector<float> scalar(3 * 96 * 96), avx2(3 * 96 * 96);
  internal::SetScalarKernelsForTesting(true);
  LetterboxIntoPlanes(src, 96, 96, scalar.data());
  internal::SetScalarKernelsForTesting(false);
  EXPECT_STREQ(ResizeKernelName(), "avx2-resize");
  LetterboxIntoPlanes(src, 96, 96, avx2.data());
  for (size_t i = 0; i < scalar.size(); ++i) {
    // The AVX2 family reassociates the 4 bilinear taps into lerp FMAs;
    // inputs are in [0,1] so the drift is a few ulps.
    EXPECT_NEAR(scalar[i], avx2[i], 1e-5f) << "element " << i;
  }
}

TEST_F(PrepostTest, FusedQuantizeEmitsExactlyTheQuantizedLetterbox) {
  const Image src = RandomImage(7, 140, 101);
  const float scale = 0.031f;
  const float inv_scale = 1.0f / scale;
  const int32_t zp = 17;
  for (const bool scalar : {true, false}) {
    internal::SetScalarKernelsForTesting(scalar);
    std::vector<float> planes(3 * 96 * 96);
    LetterboxIntoPlanes(src, 96, 96, planes.data());
    std::vector<uint8_t> want(planes.size());
    Int8QuantizeActivations(planes.data(),
                            static_cast<int64_t>(planes.size()), inv_scale,
                            zp, want.data());
    std::vector<uint8_t> got(planes.size(), 255);
    LetterboxIntoQuantizedPlanes(src, 96, 96, inv_scale, zp, got.data());
    EXPECT_EQ(std::memcmp(want.data(), got.data(), got.size()), 0)
        << "scalar=" << scalar;
  }
}

// A served request letterboxes straight from its frame, where the pixel
// block sits at whatever offset the header fields leave. At every byte
// offset mod 4, each entry point must give the same bytes from the view
// as from the Image, in each kernel family.
TEST_F(PrepostTest, UnalignedViewLetterboxesLikeItsImage) {
  const Image src = RandomImage(13, 157, 83);
  const Image same = RandomImage(17, 96, 96);
  const float inv_scale = 1.0f / 0.031f;
  const int32_t zp = 17;
  const size_t n = 3 * 96 * 96;
  for (const bool scalar : {true, false}) {
    internal::SetScalarKernelsForTesting(scalar);
    std::vector<float> want_f(n), want_r(3 * 45 * 61);
    std::vector<uint8_t> want_q(n), want_d(n);
    LetterboxIntoPlanes(src, 96, 96, want_f.data());
    ResizeIntoPlanes(src, 61, 45, want_r.data());
    LetterboxIntoQuantizedPlanes(src, 96, 96, inv_scale, zp, want_q.data());
    Int8QuantizeActivations(same.data(), same.size(), inv_scale, zp,
                            want_d.data());
    for (size_t offset = 1; offset < 4; ++offset) {
      SCOPED_TRACE("scalar=" + std::to_string(scalar) +
                   " offset=" + std::to_string(offset));
      const auto unaligned = [&](const Image& image,
                                 std::vector<uint8_t>* storage) {
        const size_t bytes = static_cast<size_t>(image.size()) * 4;
        storage->assign(offset + bytes, 0);
        std::memcpy(storage->data() + offset, image.data(), bytes);
        return ImageView(storage->data() + offset, image.width(),
                         image.height(), image.channels());
      };
      std::vector<uint8_t> src_bytes, same_bytes;
      const ImageView view = unaligned(src, &src_bytes);
      const ImageView same_view = unaligned(same, &same_bytes);
      ASSERT_NE(reinterpret_cast<uintptr_t>(view.bytes()) % 4, 0u);

      std::vector<float> got_f(n, -1.0f), got_r(want_r.size(), -1.0f);
      std::vector<uint8_t> got_q(n, 255), got_d(n, 255);
      LetterboxIntoPlanes(view, 96, 96, got_f.data());
      ResizeIntoPlanes(view, 61, 45, got_r.data());
      LetterboxIntoQuantizedPlanes(view, 96, 96, inv_scale, zp,
                                   got_q.data());
      QuantizeIntoPlanes(same_view, inv_scale, zp, got_d.data());
      EXPECT_EQ(std::memcmp(want_f.data(), got_f.data(), n * 4), 0);
      EXPECT_EQ(std::memcmp(want_r.data(), got_r.data(), want_r.size() * 4),
                0);
      EXPECT_EQ(want_q, got_q);
      EXPECT_EQ(want_d, got_d);
    }
  }
}

TEST_F(PrepostTest, ReferenceLetterboxPadsExactlyGreyAroundContent) {
  // LetterboxImage fills only the pad bands, so every pad pixel is
  // exactly 0.5 and content pixels come from the resize.
  const Image src = RandomImage(11, 50, 200);
  const Letterbox lb = LetterboxImage(src, 96, 96);
  ASSERT_GT(lb.pad_x, 0);
  for (int c = 0; c < 3; ++c) {
    for (int y = 0; y < 96; ++y) {
      for (int x = 0; x < 96; ++x) {
        const bool pad = x < lb.pad_x || x >= 96 - lb.pad_x;
        if (pad) {
          EXPECT_EQ(Bits(lb.image.at(c, y, x)), Bits(0.5f))
              << c << "," << y << "," << x;
        }
      }
    }
  }
}

BuiltNetwork BuildThaliNet() {
  Rng rng(4242);
  auto built = BuildNetworkFromCfg(YoloThaliCfg(YoloThaliOptions{}),
                                   /*batch_override=*/1, rng,
                                   ExecMode::kInference);
  THALI_CHECK_OK(built.status());
  return std::move(built).value();
}

// The reference decode is the heads' seed sigmoid pass, which a network
// runs unless its owner defers head activation.
TEST_F(PrepostTest, RawDecodeMatchesReferenceDecodeOnRealHeadTensors) {
  BuiltNetwork built = BuildThaliNet();
  Tensor input(built.net->input_shape());
  Rng irng(17);
  for (int64_t i = 0; i < input.size(); ++i) input[i] = irng.NextGaussian();

  built.net->set_defer_head_activation(true);
  built.net->Forward(input, /*train=*/false);
  ASSERT_FALSE(built.yolo_layers.empty());
  // Capture the fast decode at several thresholds, including the two
  // saturation edges.
  const float kThresholds[] = {0.0f, 0.05f, 0.25f, 0.9f, 1.0f};
  std::vector<std::vector<Detection>> fast;
  for (YoloLayer* head : built.yolo_layers) {
    for (float thr : kThresholds) {
      fast.push_back(head->GetDetections(0, thr, 96, 96));
    }
  }
  // Pin that the raw path actually engaged: the stored head planes hold
  // logits, not sigmoids (any raw value below 0 would sigmoid into
  // (0, 0.5), so the planes cannot be equal).
  std::vector<float> raw_head(static_cast<size_t>(
      built.yolo_layers[0]->output().size()));
  std::memcpy(raw_head.data(), built.yolo_layers[0]->output().data(),
              raw_head.size() * sizeof(float));

  built.net->set_defer_head_activation(false);
  built.net->Forward(input, /*train=*/false);
  EXPECT_NE(std::memcmp(raw_head.data(),
                        built.yolo_layers[0]->output().data(),
                        raw_head.size() * sizeof(float)),
            0)
      << "fast path never engaged";
  size_t slot = 0;
  int nonempty = 0;
  for (YoloLayer* head : built.yolo_layers) {
    for (float thr : kThresholds) {
      const std::vector<Detection> ref = head->GetDetections(0, thr, 96, 96);
      if (!ref.empty()) ++nonempty;
      ExpectBitwiseEqual(fast[slot++], ref, "decode");
    }
  }
  EXPECT_GT(nonempty, 0) << "decode comparison was vacuous";
}

// The network's detection heads in layer order — the order the detector
// collects them in.
std::vector<YoloLayer*> YoloHeads(Network& net) {
  std::vector<YoloLayer*> heads;
  for (int i = 0; i < net.num_layers(); ++i) {
    if (std::string_view(net.layer(i).kind()) == "yolo") {
      heads.push_back(static_cast<YoloLayer*>(&net.layer(i)));
    }
  }
  return heads;
}

// Every head plane of `net` flattened, for bitwise comparison.
std::vector<float> HeadPlanes(Network& net) {
  std::vector<float> flat;
  for (YoloLayer* head : YoloHeads(net)) {
    const Tensor& out = head->output();
    flat.insert(flat.end(), out.data(), out.data() + out.size());
  }
  return flat;
}

// Detect as the seed pipeline ran it, one batch-1 image: seed letterbox
// into an intermediate Image, a forward whose heads sigmoid in place,
// the reference decode, all-pairs NMS, then the mapping of boxes from
// the network frame back into the image frame.
std::vector<Detection> SeedDetect(Network& net, const Image& img,
                                  float conf_threshold, float nms_threshold) {
  const int nw = net.input_width();
  const int nh = net.input_height();
  const Letterbox lb = SeedLetterbox(img, nw, nh);
  Tensor input(net.input_shape());
  std::copy(lb.image.data(), lb.image.data() + lb.image.size(), input.data());
  const bool defer = net.defer_head_activation();
  net.set_defer_head_activation(false);
  net.Forward(input, /*train=*/false);
  net.set_defer_head_activation(defer);
  std::vector<Detection> all;
  for (YoloLayer* head : YoloHeads(net)) {
    const std::vector<Detection> dets =
        head->GetDetections(0, conf_threshold, nw, nh);
    all.insert(all.end(), dets.begin(), dets.end());
  }
  std::vector<Detection> kept =
      SeedNms(std::move(all), nms_threshold, /*class_aware=*/true);
  for (Detection& d : kept) {
    const float px = d.box.x * nw - lb.pad_x;
    const float py = d.box.y * nh - lb.pad_y;
    d.box.x = px / lb.scale / img.width();
    d.box.y = py / lb.scale / img.height();
    d.box.w = d.box.w * nw / lb.scale / img.width();
    d.box.h = d.box.h * nh / lb.scale / img.height();
  }
  return kept;
}

// End-to-end pin of the fast pre/post path: under forced scalar kernels
// (where the table-driven letterbox is bitwise the seed resize), Detect
// returns the seed pipeline's detections bit for bit.
TEST_F(PrepostTest, DetectIsBitwiseStableAcrossFastPreWithScalarResize) {
  internal::SetScalarKernelsForTesting(true);
  auto det = Detector::FromCfg(YoloThaliCfg(YoloThaliOptions{}));
  THALI_CHECK_OK(det.status());
  const Image img = RandomImage(3, 160, 120);

  const std::vector<Detection> fast = det->Detect(img, 0.1f, 0.45f);
  const Detector::StageTimes st = det->last_stage_times();
  const std::vector<Detection> ref =
      SeedDetect(det->network(), img, 0.1f, 0.45f);
  EXPECT_FALSE(ref.empty()) << "pipeline comparison was vacuous";
  ExpectBitwiseEqual(fast, ref, "detect");

  EXPECT_GT(st.forward_ms, 0.0);
  EXPECT_GE(st.preprocess_ms, 0.0);
  EXPECT_GE(st.postprocess_ms, 0.0);
}

// Fused u8 staging: Detect letterboxes and quantizes in one pass into the
// network's quantized input, and its heads must equal a plain
// Network::Forward of the fp32 letterboxed planes, which quantizes
// inside Forward with the same shared quantizer.
TEST_F(PrepostTest, FusedQuantizedInputDetectMatchesFp32QuantizeRoute) {
  internal::SetScalarKernelsForTesting(true);
  auto det = Detector::FromCfg(YoloThaliCfg(YoloThaliOptions{}));
  THALI_CHECK_OK(det.status());
  Network& net = det->network();
  for (int i = 0; i < net.num_layers(); ++i) {
    if (std::string_view(net.layer(i).kind()) == "convolutional") {
      static_cast<ConvLayer&>(net.layer(i)).FoldBatchNorm();
    }
  }
  // One min/max calibration pass over a representative letterboxed
  // image, then replan so the input chain arms.
  Tensor calib(net.input_shape());
  Rng crng(23);
  for (int64_t i = 0; i < calib.size(); ++i) calib[i] = crng.NextFloat();
  net.set_calib_phase(CalibPhase::kRange);
  net.Forward(calib, /*train=*/false);
  net.set_calib_phase(CalibPhase::kOff);
  for (int i = 0; i < net.num_layers(); ++i) {
    Layer& l = net.layer(i);
    if (std::string_view(l.kind()) != "convolutional") continue;
    if (!l.plan().quantizable) continue;
    static_cast<ConvLayer&>(l).FinalizeCalibration(100.0);
  }
  THALI_CHECK_OK(net.ReplanInference());
  ASSERT_TRUE(net.exec_plan().input_u8);

  const Image img = RandomImage(5, 130, 100);
  const std::vector<Detection> dets = det->Detect(img, 0.1f, 0.45f);
  EXPECT_FALSE(dets.empty()) << "fused-input comparison was vacuous";
  const std::vector<float> fused = HeadPlanes(net);

  Tensor planes(net.input_shape());
  LetterboxIntoPlanes(img, net.input_width(), net.input_height(),
                      planes.data());
  net.Forward(planes, /*train=*/false);
  const std::vector<float> ref = HeadPlanes(net);
  ASSERT_FALSE(ref.empty());
  ASSERT_EQ(fused.size(), ref.size());
  EXPECT_EQ(
      std::memcmp(fused.data(), ref.data(), ref.size() * sizeof(float)), 0);
}

}  // namespace
}  // namespace thali
