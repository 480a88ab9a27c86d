// Forward-semantics tests for each layer type, the optimizer schedule, and
// network-level error handling. (Backward correctness is covered by the
// finite-difference suite in nn_gradient_test.cc.)

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "base/rng.h"
#include "nn/activation.h"
#include "nn/conv_layer.h"
#include "nn/maxpool_layer.h"
#include "nn/network.h"
#include "nn/optimizer.h"
#include "nn/route_layer.h"
#include "nn/shortcut_layer.h"
#include "nn/upsample_layer.h"
#include "nn/yolo_layer.h"
#include "tensor/ops.h"

namespace thali {
namespace {

TEST(ActivationTest, ParseAndNames) {
  EXPECT_EQ(*ActivationFromString("leaky"), Activation::kLeaky);
  EXPECT_EQ(*ActivationFromString("mish"), Activation::kMish);
  EXPECT_FALSE(ActivationFromString("swish").ok());
  EXPECT_STREQ(ActivationToString(Activation::kLogistic), "logistic");
}

TEST(ActivationTest, KnownValues) {
  float x[4] = {-2.0f, -0.5f, 0.0f, 3.0f};
  ApplyActivation(Activation::kLeaky, x, 4);
  EXPECT_FLOAT_EQ(x[0], -0.2f);
  EXPECT_FLOAT_EQ(x[3], 3.0f);

  float r[2] = {-1.0f, 2.0f};
  ApplyActivation(Activation::kRelu, r, 2);
  EXPECT_FLOAT_EQ(r[0], 0.0f);
  EXPECT_FLOAT_EQ(r[1], 2.0f);

  float m[1] = {0.0f};
  ApplyActivation(Activation::kMish, m, 1);
  EXPECT_NEAR(m[0], 0.0f, 1e-6f);  // mish(0) = 0

  float big[1] = {10.0f};
  ApplyActivation(Activation::kMish, big, 1);
  EXPECT_NEAR(big[0], 10.0f, 1e-3f);  // mish(x) -> x for large x

  float s[1] = {0.0f};
  ApplyActivation(Activation::kLogistic, s, 1);
  EXPECT_FLOAT_EQ(s[0], 0.5f);
}

std::unique_ptr<ConvLayer> Conv(int filters, int ksize, int stride, int pad,
                                bool bn, Activation act) {
  ConvLayer::Options o;
  o.filters = filters;
  o.ksize = ksize;
  o.stride = stride;
  o.pad = pad;
  o.batch_normalize = bn;
  o.activation = act;
  return std::make_unique<ConvLayer>(o);
}

TEST(ConvLayerTest, IdentityKernelPassesThrough) {
  // 1x1 conv, identity weight, zero bias: output == input.
  Network net(4, 4, 2, 1);
  net.Add(Conv(2, 1, 1, 0, false, Activation::kLinear));
  THALI_CHECK_OK(net.Finalize());
  auto& conv = static_cast<ConvLayer&>(net.layer(0));
  conv.weights().Zero();
  conv.weights()[0] = 1.0f;  // out0 <- in0
  conv.weights()[3] = 1.0f;  // out1 <- in1

  Tensor input(Shape({1, 2, 4, 4}));
  Rng rng(1);
  for (int64_t i = 0; i < input.size(); ++i) input[i] = rng.NextGaussian();
  const Tensor& out = net.Forward(input);
  EXPECT_LT(MaxAbsDiff(out, input), 1e-6f);
}

TEST(ConvLayerTest, BiasAdds) {
  Network net(2, 2, 1, 1);
  net.Add(Conv(1, 1, 1, 0, false, Activation::kLinear));
  THALI_CHECK_OK(net.Finalize());
  auto& conv = static_cast<ConvLayer&>(net.layer(0));
  conv.weights()[0] = 2.0f;
  conv.biases()[0] = 0.5f;
  Tensor input(Shape({1, 1, 2, 2}), {1, 2, 3, 4});
  const Tensor& out = net.Forward(input);
  EXPECT_FLOAT_EQ(out[0], 2.5f);
  EXPECT_FLOAT_EQ(out[3], 8.5f);
}

TEST(ConvLayerTest, KnownConvolution3x3) {
  // Sum-kernel over a 3x3 image with pad 1: center output = sum of image.
  Network net(3, 3, 1, 1);
  net.Add(Conv(1, 3, 1, 1, false, Activation::kLinear));
  THALI_CHECK_OK(net.Finalize());
  auto& conv = static_cast<ConvLayer&>(net.layer(0));
  conv.weights().Fill(1.0f);
  Tensor input(Shape({1, 1, 3, 3}), {1, 2, 3, 4, 5, 6, 7, 8, 9});
  const Tensor& out = net.Forward(input);
  EXPECT_FLOAT_EQ(out[4], 45.0f);            // center sees all 9
  EXPECT_FLOAT_EQ(out[0], 1 + 2 + 4 + 5.0f);  // corner sees 4
}

TEST(ConvLayerTest, StrideReducesResolution) {
  Network net(8, 8, 3, 2);
  net.Add(Conv(5, 3, 2, 1, false, Activation::kLeaky));
  THALI_CHECK_OK(net.Finalize());
  EXPECT_EQ(net.layer(0).output_shape(), Shape({2, 5, 4, 4}));
}

TEST(ConvLayerTest, BatchNormTrainOutputIsNormalized) {
  Network net(6, 6, 2, 4);
  net.Add(Conv(3, 3, 1, 1, true, Activation::kLinear));
  THALI_CHECK_OK(net.Finalize());
  auto& conv = static_cast<ConvLayer&>(net.layer(0));
  Rng rng(3);
  conv.InitWeights(rng);

  Tensor input(Shape({4, 2, 6, 6}));
  for (int64_t i = 0; i < input.size(); ++i) {
    input[i] = rng.NextGaussian(2.0f, 3.0f);
  }
  const Tensor& out = net.Forward(input, /*train=*/true);
  // Per-channel mean ~ beta(=0), variance ~ gamma^2(=1).
  const int64_t spatial = 36;
  for (int f = 0; f < 3; ++f) {
    double sum = 0, sum2 = 0;
    for (int b = 0; b < 4; ++b) {
      const float* p = out.data() + (b * 3 + f) * spatial;
      for (int64_t i = 0; i < spatial; ++i) {
        sum += p[i];
        sum2 += static_cast<double>(p[i]) * p[i];
      }
    }
    const double n = 4 * spatial;
    EXPECT_NEAR(sum / n, 0.0, 1e-4);
    EXPECT_NEAR(sum2 / n, 1.0, 1e-2);
  }
}

TEST(ConvLayerTest, FoldBatchNormPreservesInference) {
  Network net(6, 6, 2, 2);
  net.Add(Conv(4, 3, 1, 1, true, Activation::kLeaky));
  THALI_CHECK_OK(net.Finalize());
  auto& conv = static_cast<ConvLayer&>(net.layer(0));
  Rng rng(5);
  conv.InitWeights(rng);
  // Install non-trivial rolling statistics and affine params.
  for (int f = 0; f < 4; ++f) {
    conv.rolling_mean()[f] = rng.NextGaussian(0.0f, 0.5f);
    conv.rolling_var()[f] = rng.NextFloat(0.5f, 2.0f);
    conv.scales()[f] = rng.NextFloat(0.5f, 1.5f);
    conv.biases()[f] = rng.NextGaussian(0.0f, 0.3f);
  }

  Tensor input(Shape({2, 2, 6, 6}));
  for (int64_t i = 0; i < input.size(); ++i) input[i] = rng.NextGaussian();
  Tensor before = net.Forward(input, /*train=*/false);

  conv.FoldBatchNorm();
  const Tensor& after = net.Forward(input, /*train=*/false);
  EXPECT_LT(MaxAbsDiff(before, after), 1e-4f);
}

TEST(MaxPoolLayerTest, Known2x2Pooling) {
  Network net(4, 4, 1, 1);
  net.Add(std::make_unique<MaxPoolLayer>(MaxPoolLayer::Options{2, 2, -1}));
  THALI_CHECK_OK(net.Finalize());
  Tensor input(Shape({1, 1, 4, 4}),
               {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16});
  const Tensor& out = net.Forward(input);
  // Darknet padding size-1 with offset 0: windows anchored at even pixels.
  EXPECT_EQ(out.shape(), Shape({1, 1, 2, 2}));
  EXPECT_FLOAT_EQ(out[0], 6.0f);
  EXPECT_FLOAT_EQ(out[1], 8.0f);
  EXPECT_FLOAT_EQ(out[2], 14.0f);
  EXPECT_FLOAT_EQ(out[3], 16.0f);
}

TEST(MaxPoolLayerTest, SppStride1KeepsResolution) {
  Network net(6, 6, 3, 2);
  net.Add(std::make_unique<MaxPoolLayer>(MaxPoolLayer::Options{5, 1, -1}));
  THALI_CHECK_OK(net.Finalize());
  EXPECT_EQ(net.layer(0).output_shape(), Shape({2, 3, 6, 6}));
  // Constant input stays constant under max pooling.
  Tensor input(Shape({2, 3, 6, 6}));
  input.Fill(2.5f);
  const Tensor& out = net.Forward(input);
  for (int64_t i = 0; i < out.size(); ++i) EXPECT_FLOAT_EQ(out[i], 2.5f);
}

TEST(UpsampleLayerTest, NearestNeighborValues) {
  Network net(2, 2, 1, 1);
  net.Add(std::make_unique<UpsampleLayer>(2));
  THALI_CHECK_OK(net.Finalize());
  Tensor input(Shape({1, 1, 2, 2}), {1, 2, 3, 4});
  const Tensor& out = net.Forward(input);
  EXPECT_EQ(out.shape(), Shape({1, 1, 4, 4}));
  EXPECT_FLOAT_EQ(out[0], 1.0f);
  EXPECT_FLOAT_EQ(out[1], 1.0f);
  EXPECT_FLOAT_EQ(out[2], 2.0f);
  EXPECT_FLOAT_EQ(out[5], 1.0f);
  EXPECT_FLOAT_EQ(out[15], 4.0f);
}

// The division loop UpsampleNearest replaced: out[y][x] =
// in[y/stride][x/stride], one division pair per output element.
template <typename T>
std::vector<T> UpsampleByDivision(const std::vector<T>& in, int64_t planes,
                                  int64_t h, int64_t w, int stride) {
  const int64_t ow = w * stride;
  std::vector<T> out(static_cast<size_t>(planes * h * w * stride * stride));
  for (int64_t p = 0; p < planes; ++p) {
    const T* src = in.data() + p * h * w;
    T* dst = out.data() + p * h * w * stride * stride;
    for (int64_t y = 0; y < h * stride; ++y) {
      const T* srow = src + (y / stride) * w;
      T* drow = dst + y * ow;
      for (int64_t x = 0; x < ow; ++x) drow[x] = srow[x / stride];
    }
  }
  return out;
}

// Row replication moves the same values as the division loop, for fp32
// activations and u8 chain bytes, at strides 2 and 3 and odd widths.
TEST(UpsampleLayerTest, RowReplicationMatchesDivisionLoop) {
  Rng rng(23);
  for (const int stride : {2, 3}) {
    for (const int64_t w : {1, 3, 5, 9}) {
      for (const int64_t h : {1, 2, 3}) {
        const int64_t planes = 3;
        const size_t n = static_cast<size_t>(planes * h * w);
        std::vector<float> fin(n);
        std::vector<uint8_t> qin(n);
        for (size_t i = 0; i < n; ++i) {
          fin[i] = rng.NextGaussian();
          qin[i] = static_cast<uint8_t>(rng.NextU64() % 128);
        }
        const size_t out_n = n * static_cast<size_t>(stride * stride);
        std::vector<float> fout(out_n, -1.0f);
        std::vector<uint8_t> qout(out_n, 255);
        UpsampleNearest(fin.data(), planes, h, w, stride, fout.data());
        UpsampleNearest(qin.data(), planes, h, w, stride, qout.data());
        const std::string what = "stride " + std::to_string(stride) + " " +
                                 std::to_string(h) + "x" + std::to_string(w);
        const std::vector<float> fwant =
            UpsampleByDivision(fin, planes, h, w, stride);
        EXPECT_EQ(std::memcmp(fout.data(), fwant.data(),
                              out_n * sizeof(float)),
                  0)
            << what;
        EXPECT_EQ(qout, UpsampleByDivision(qin, planes, h, w, stride)) << what;
      }
    }
  }
}

TEST(RouteLayerTest, ConcatenatesChannels) {
  Network net(3, 3, 1, 1);
  net.Add(Conv(2, 1, 1, 0, false, Activation::kLinear));  // 0
  net.Add(Conv(3, 1, 1, 0, false, Activation::kLinear));  // 1
  RouteLayer::Options ro;
  ro.layers = {0, 1};
  net.Add(std::make_unique<RouteLayer>(ro));
  THALI_CHECK_OK(net.Finalize());
  auto& c0 = static_cast<ConvLayer&>(net.layer(0));
  auto& c1 = static_cast<ConvLayer&>(net.layer(1));
  c0.weights().Fill(1.0f);
  c1.weights().Fill(2.0f);

  Tensor input(Shape({1, 1, 3, 3}));
  input.Fill(1.0f);
  net.Forward(input);
  const Tensor& out = net.layer(2).output();
  EXPECT_EQ(out.shape(), Shape({1, 5, 3, 3}));
  EXPECT_FLOAT_EQ(out[0], 1.0f);      // from layer 0 (1 input channel of 1s)
  // Layer 1 convolves layer 0's two channels of 1s with weight 2: 2*2 = 4.
  EXPECT_FLOAT_EQ(out[2 * 9], 4.0f);
}

TEST(RouteLayerTest, GroupsTakeSecondHalf) {
  Network net(2, 2, 4, 1);
  RouteLayer::Options ro;
  ro.layers = {-1};
  ro.groups = 2;
  ro.group_id = 1;
  // Route directly off a conv that tags each channel with its index.
  net.Add(Conv(4, 1, 1, 0, false, Activation::kLinear));
  net.Add(std::make_unique<RouteLayer>(ro));
  THALI_CHECK_OK(net.Finalize());
  auto& conv = static_cast<ConvLayer&>(net.layer(0));
  conv.weights().Zero();
  for (int f = 0; f < 4; ++f) {
    conv.weights()[f * 4 + 0] = static_cast<float>(f + 1);  // out_f = (f+1)*in0
  }
  Tensor input(Shape({1, 4, 2, 2}));
  for (int64_t i = 0; i < 4; ++i) input[i] = 1.0f;  // channel 0 = 1
  net.Forward(input);
  const Tensor& out = net.layer(1).output();
  EXPECT_EQ(out.shape(), Shape({1, 2, 2, 2}));
  EXPECT_FLOAT_EQ(out[0], 3.0f);  // channel 2 of the conv
  EXPECT_FLOAT_EQ(out[4], 4.0f);  // channel 3
}

TEST(ShortcutLayerTest, AddsResidual) {
  Network net(2, 2, 1, 1);
  net.Add(Conv(1, 1, 1, 0, false, Activation::kLinear));  // 0: x2
  net.Add(Conv(1, 1, 1, 0, false, Activation::kLinear));  // 1: x3 of prev
  ShortcutLayer::Options so;
  so.from = 0;
  net.Add(std::make_unique<ShortcutLayer>(so));
  THALI_CHECK_OK(net.Finalize());
  static_cast<ConvLayer&>(net.layer(0)).weights()[0] = 2.0f;
  static_cast<ConvLayer&>(net.layer(1)).weights()[0] = 3.0f;
  Tensor input(Shape({1, 1, 2, 2}));
  input.Fill(1.0f);
  net.Forward(input);
  // shortcut = conv1(conv0(x)) + conv0(x) = 6 + 2 = 8.
  EXPECT_FLOAT_EQ(net.layer(2).output()[0], 8.0f);
}

TEST(ShortcutLayerTest, RejectsShapeMismatch) {
  Network net(4, 4, 1, 1);
  net.Add(Conv(2, 3, 2, 1, false, Activation::kLinear));
  net.Add(Conv(2, 1, 1, 0, false, Activation::kLinear));
  ShortcutLayer::Options so;
  so.from = -3;  // the network input-sized layer does not exist; use 0's input
  net.Add(std::make_unique<ShortcutLayer>(so));
  EXPECT_FALSE(net.Finalize().ok());
}

TEST(YoloLayerTest, ForwardActivatesChannels) {
  YoloLayer::Options yo;
  yo.anchors = {{10, 10}};
  yo.mask = {0};
  yo.classes = 2;
  yo.scale_x_y = 1.0f;
  Network net(2, 2, 7, 1);  // 1 anchor * (5+2) channels
  net.Add(std::make_unique<YoloLayer>(yo));
  THALI_CHECK_OK(net.Finalize());

  Tensor input(Shape({1, 7, 2, 2}));
  input.Fill(0.0f);
  const Tensor& out = net.Forward(input);
  // x,y,obj,cls sigmoided to 0.5; w,h raw 0.
  EXPECT_FLOAT_EQ(out[0], 0.5f);              // x plane
  EXPECT_FLOAT_EQ(out[2 * 4], 0.0f);          // w plane stays raw
  EXPECT_FLOAT_EQ(out[4 * 4], 0.5f);          // obj plane
}

TEST(YoloLayerTest, ScaleXYExpandsRange) {
  YoloLayer::Options yo;
  yo.anchors = {{10, 10}};
  yo.mask = {0};
  yo.classes = 1;
  yo.scale_x_y = 1.2f;
  Network net(1, 1, 6, 1);
  net.Add(std::make_unique<YoloLayer>(yo));
  THALI_CHECK_OK(net.Finalize());
  Tensor input(Shape({1, 6, 1, 1}));
  input[0] = 100.0f;  // sigmoid -> 1
  const Tensor& out = net.Forward(input);
  EXPECT_NEAR(out[0], 1.2f - 0.1f, 1e-4f);  // 1*1.2 - 0.5*0.2 = 1.1
}

TEST(YoloLayerTest, GetDetectionsDecodesBox) {
  YoloLayer::Options yo;
  yo.anchors = {{32, 16}};
  yo.mask = {0};
  yo.classes = 1;
  Network net(4, 4, 6, 1);
  net.Add(std::make_unique<YoloLayer>(yo));
  THALI_CHECK_OK(net.Finalize());

  Tensor input(Shape({1, 6, 4, 4}));
  input.Fill(-20.0f);  // everything off
  // Cell (y=1, x=2): x=y=0 (sigmoid 0.5), w=h=0 (exp 1), obj & class on.
  auto at = [&](int attr) { return (attr * 4 + 1) * 4 + 2; };
  input[at(0)] = 0.0f;
  input[at(1)] = 0.0f;
  input[at(2)] = 0.0f;
  input[at(3)] = 0.0f;
  input[at(4)] = 20.0f;
  input[at(5)] = 20.0f;
  net.Forward(input);

  auto* yolo = static_cast<YoloLayer*>(&net.layer(0));
  auto dets = yolo->GetDetections(0, 0.5f, 64, 64);
  ASSERT_EQ(dets.size(), 1u);
  EXPECT_NEAR(dets[0].box.x, (2 + 0.5f) / 4.0f, 1e-5f);
  EXPECT_NEAR(dets[0].box.y, (1 + 0.5f) / 4.0f, 1e-5f);
  EXPECT_NEAR(dets[0].box.w, 32.0f / 64.0f, 1e-5f);
  EXPECT_NEAR(dets[0].box.h, 16.0f / 64.0f, 1e-5f);
  EXPECT_GT(dets[0].confidence, 0.99f);
}

TEST(YoloLayerTest, RejectsWrongChannelCount) {
  YoloLayer::Options yo;
  yo.anchors = {{10, 10}};
  yo.mask = {0};
  yo.classes = 3;
  Network net(2, 2, 7, 1);  // needs 8 channels
  net.Add(std::make_unique<YoloLayer>(yo));
  EXPECT_FALSE(net.Finalize().ok());
}

TEST(LrPolicyTest, BurnInAndSteps) {
  LrPolicy p;
  p.base_lr = 1.0f;
  p.burn_in = 100;
  p.steps = {1000, 2000};
  p.scales = {0.1f, 0.1f};
  // Quartic warm-up.
  EXPECT_NEAR(p.LearningRateAt(49), std::pow(0.5f, 4.0f), 1e-4f);
  EXPECT_NEAR(p.LearningRateAt(100), 1.0f, 1e-5f);
  EXPECT_NEAR(p.LearningRateAt(999), 1.0f, 1e-5f);
  EXPECT_NEAR(p.LearningRateAt(1000), 0.1f, 1e-6f);
  EXPECT_NEAR(p.LearningRateAt(2500), 0.01f, 1e-7f);
}

TEST(SgdOptimizerTest, SingleStepMatchesHandComputation) {
  Network net(2, 2, 1, 1);
  net.Add(Conv(1, 1, 1, 0, false, Activation::kLinear));
  THALI_CHECK_OK(net.Finalize());
  auto& conv = static_cast<ConvLayer&>(net.layer(0));
  conv.weights()[0] = 1.0f;

  SgdOptimizer::Options so;
  so.momentum = 0.9f;
  so.weight_decay = 0.0f;
  so.lr.base_lr = 0.1f;
  SgdOptimizer opt(so);

  // Seed a gradient of 2.0 manually.
  conv.Params()[0].grad->data()[0] = 2.0f;
  opt.Step(net, /*iteration=*/1000);
  // v = -lr*grad = -0.2; w = 1 - 0.2 = 0.8. Grad cleared.
  EXPECT_NEAR(conv.weights()[0], 0.8f, 1e-6f);
  EXPECT_EQ(conv.Params()[0].grad->data()[0], 0.0f);

  conv.Params()[0].grad->data()[0] = 2.0f;
  opt.Step(net, 1000);
  // v = 0.9*(-0.2) - 0.2 = -0.38; w = 0.8 - 0.38 = 0.42.
  EXPECT_NEAR(conv.weights()[0], 0.42f, 1e-6f);
}

TEST(SgdOptimizerTest, FrozenLayersDoNotMove) {
  Network net(2, 2, 1, 1);
  net.Add(Conv(1, 1, 1, 0, false, Activation::kLinear));
  net.Add(Conv(1, 1, 1, 0, false, Activation::kLinear));
  THALI_CHECK_OK(net.Finalize());
  net.FreezeUpTo(1);
  auto& frozen = static_cast<ConvLayer&>(net.layer(0));
  auto& live = static_cast<ConvLayer&>(net.layer(1));
  frozen.weights()[0] = 1.0f;
  live.weights()[0] = 1.0f;
  frozen.Params()[0].grad->data()[0] = 1.0f;
  live.Params()[0].grad->data()[0] = 1.0f;

  SgdOptimizer::Options so;
  so.weight_decay = 0;
  so.lr.base_lr = 0.1f;
  SgdOptimizer opt(so);
  opt.Step(net, 100);
  EXPECT_FLOAT_EQ(frozen.weights()[0], 1.0f);
  EXPECT_LT(live.weights()[0], 1.0f);
}

TEST(NetworkTest, RejectsEmptyNetwork) {
  Network net(4, 4, 3, 1);
  EXPECT_FALSE(net.Finalize().ok());
}

TEST(NetworkTest, RouteToFutureLayerRejected) {
  Network net(4, 4, 3, 1);
  RouteLayer::Options ro;
  ro.layers = {5};
  net.Add(std::make_unique<RouteLayer>(ro));
  // ResolveIndex CHECKs on out-of-range; an in-range forward reference is
  // a Status error.
  net.Add(Conv(2, 1, 1, 0, false, Activation::kLinear));
  net.Add(Conv(2, 1, 1, 0, false, Activation::kLinear));
  net.Add(Conv(2, 1, 1, 0, false, Activation::kLinear));
  net.Add(Conv(2, 1, 1, 0, false, Activation::kLinear));
  net.Add(Conv(2, 1, 1, 0, false, Activation::kLinear));
  EXPECT_FALSE(net.Finalize().ok());
}

TEST(NetworkTest, NumParametersCountsConvParams) {
  Network net(4, 4, 3, 1);
  net.Add(Conv(2, 3, 1, 1, false, Activation::kLinear));
  THALI_CHECK_OK(net.Finalize());
  // weights 2*3*3*3 = 54 + biases 2 = 56.
  EXPECT_EQ(net.NumParameters(), 56);
}

TEST(NetworkTest, WorkspaceSizedForLargestLayer) {
  Network net(8, 8, 3, 1);
  net.Add(Conv(4, 3, 1, 1, false, Activation::kLinear));
  net.Add(Conv(2, 1, 1, 0, false, Activation::kLinear));
  THALI_CHECK_OK(net.Finalize());
  EXPECT_GE(net.workspace_size(), 3 * 3 * 3 * 8 * 8);
}

}  // namespace
}  // namespace thali
