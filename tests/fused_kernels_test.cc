// Unit tests for the kernels the fused inference plan dispatches to
// (nn/exec_plan.h): the fast activation family (tensor/act_kernels.h)
// and the GEMM stream-B / masked edge-tile paths that back the direct
// 1x1 and im2col convs. Carries the `asan_smoke` ctest label: a
// -DTHALI_SANITIZE=address build runs these to sweep the fused paths
// (masked loads, arena-aliased full-model forward) for out-of-bounds
// access.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string_view>
#include <vector>

#include "base/cpu_features.h"
#include "base/rng.h"
#include "darknet/cfg.h"
#include "darknet/model_zoo.h"
#include "nn/activation.h"
#include "nn/exec_plan.h"
#include "nn/network.h"
#include "tensor/act_kernels.h"
#include "tensor/gemm.h"
#include "tensor/gemm_pack.h"
#include "ymm_state.h"

namespace thali {
namespace {

float MishRef(float x) {
  // The libm reference from nn/activation.cc, including its stable
  // softplus branches.
  float sp;
  if (x > 20.0f) {
    sp = x;
  } else if (x < -20.0f) {
    sp = std::exp(x);
  } else {
    sp = std::log1p(std::exp(x));
  }
  return x * std::tanh(sp);
}

// ---------------------------------------------------------------------
// Fast activation family.

TEST(FastActTest, FastExpAccuracyPin) {
  // The degree-5 Cephes polynomial promises ~2e-7 relative error over
  // the clamped domain; pin at 5e-7 so a coefficient regression trips.
  for (int i = -8700; i <= 8800; ++i) {
    const float x = 0.01f * static_cast<float>(i);
    const float got = internal::FastExpScalar(x);
    const float want = std::exp(x);
    ASSERT_NEAR(got, want, 5e-7f * want) << "x=" << x;
  }
  // Inputs beyond the clamp domain behave like the clamp edge (the top
  // edge exp(88.72) sits at FLT_MAX, so "finite" is not guaranteed —
  // only that wilder inputs don't change the answer).
  EXPECT_EQ(internal::FastExpScalar(1000.0f),
            internal::FastExpScalar(10000.0f));
  EXPECT_GE(internal::FastExpScalar(-1000.0f), 0.0f);
  EXPECT_LE(internal::FastExpScalar(-1000.0f), 1e-37f);
}

TEST(FastActTest, FastMishAccuracyPin) {
  // act_kernels.h documents < 3e-7 * max(1,|x|) against the libm
  // reference; pin at 5e-7 * max(1,|x|).
  std::vector<float> xs;
  for (int i = -3000; i <= 3000; ++i) xs.push_back(0.01f * i);
  std::vector<float> ys = xs;
  internal::SetScalarKernelsForTesting(true);
  FastMishInPlace(ys.data(), static_cast<int64_t>(ys.size()));
  internal::SetScalarKernelsForTesting(false);
  for (size_t i = 0; i < xs.size(); ++i) {
    const float want = MishRef(xs[i]);
    const float tol = 5e-7f * std::max(1.0f, std::abs(xs[i]));
    ASSERT_NEAR(ys[i], want, tol) << "x=" << xs[i];
  }
}

TEST(FastActTest, SaturatedBranchIsExactlyIdentity) {
  // For x >= 20 the reference computes x * tanh(x) with tanh saturated
  // to 1.0f; the fast path returns x exactly, bit for bit.
  std::vector<float> xs = {20.0f, 25.5f, 60.0f, 87.0f, 500.0f};
  std::vector<float> ys = xs;
  FastMishInPlace(ys.data(), static_cast<int64_t>(ys.size()));
  for (size_t i = 0; i < xs.size(); ++i) {
    EXPECT_EQ(std::memcmp(&xs[i], &ys[i], sizeof(float)), 0) << xs[i];
  }
}

TEST(FastActTest, ScalarAndAvx2FamiliesAgreeBitwise) {
  // The determinism contract: both families spell out the identical op
  // sequence, so lane vs remainder placement never changes a value.
  // Forced scalar against automatic selection: when this host lacks AVX2
  // both sides are scalar, which is trivially true.
  Rng rng(7);
  std::vector<float> base(1003);  // odd length exercises the remainder
  for (auto& v : base) v = rng.NextFloat() * 40.0f - 20.0f;

  for (void (*kernel)(float*, int64_t) :
       {&FastMishInPlace, &FastLeakyInPlace, &FastReluInPlace}) {
    std::vector<float> a = base, b = base;
    internal::SetScalarKernelsForTesting(true);
    kernel(a.data(), static_cast<int64_t>(a.size()));
    internal::SetScalarKernelsForTesting(false);
    // The AVX2 family returns with the upper YMM halves clean.
    EXPECT_FALSE(LeavesYmmUpperDirty(
        [&] { kernel(b.data(), static_cast<int64_t>(b.size())); }));
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0);
  }
}

// ---------------------------------------------------------------------
// GEMM stream-B / masked ragged-N edge tiles.

TEST(GemmStreamBTest, RaggedNShapesMatchReferenceBitwise) {
  // The yolo-head GEMMs have N = spatial (not a multiple of the 16-wide
  // NR tile); the masked edge-tile kernels must equal the sequential
  // reference bit for bit, per the packed-driver determinism contract.
  const struct {
    int64_t m, n, k;
  } shapes[] = {
      {45, 36, 128},   // yolo head 96/16: 6x6 spatial
      {45, 144, 128},  // yolo head 96/8: 12x12 spatial
      {45, 9, 128},    // 3x3 spatial: under one half-tile
      {33, 7, 64},     // ragged M and N below NR/2
      {6, 17, 40},     // one row tile, 16+1 columns
      {64, 31, 27},    // 16+15: full tile plus widest mask
  };
  for (const auto& s : shapes) {
    Rng rng(static_cast<uint64_t>(s.m * 31 + s.n * 7 + s.k));
    std::vector<float> a(static_cast<size_t>(s.m * s.k));
    std::vector<float> b(static_cast<size_t>(s.k * s.n));
    for (auto& v : a) v = rng.NextFloat() * 2.0f - 1.0f;
    for (auto& v : b) v = rng.NextFloat() * 2.0f - 1.0f;

    std::vector<float> want(static_cast<size_t>(s.m * s.n), 0.0f);
    internal::GemmReference(false, false, s.m, s.n, s.k, 1.0f, a.data(), s.k,
                            b.data(), s.n, 0.0f, want.data(), s.n);

    std::vector<float> got(static_cast<size_t>(s.m * s.n), 0.0f);
    Gemm(false, false, s.m, s.n, s.k, 1.0f, a.data(), s.k, b.data(), s.n,
         0.0f, got.data(), s.n);
    EXPECT_EQ(std::memcmp(want.data(), got.data(),
                          want.size() * sizeof(float)),
              0)
        << "m=" << s.m << " n=" << s.n << " k=" << s.k;

    // Prepacked-A entry point (what the conv layers actually call).
    std::vector<float> packed(
        static_cast<size_t>(GemmPackedWeightFloats(s.m, s.k)));
    GemmPackWeights(a.data(), s.m, s.k, packed.data());
    std::vector<float> got2(static_cast<size_t>(s.m * s.n), 0.0f);
    GemmPrepacked(s.m, s.n, s.k, packed.data(), b.data(), s.n, 0.0f,
                  got2.data(), s.n);
    EXPECT_EQ(std::memcmp(want.data(), got2.data(),
                          want.size() * sizeof(float)),
              0)
        << "prepacked m=" << s.m << " n=" << s.n << " k=" << s.k;
  }
}

// ---------------------------------------------------------------------
// Full-model sweep under the fused plan (the ASan workhorse: arena
// aliasing, im2col panels, masked loads all run in one pass).

TEST(FusedModelTest, FusedForwardProducesFiniteOutputs) {
  Rng rng(99);
  auto built_or = BuildNetworkFromCfg(YoloThaliCfg(YoloThaliOptions{}), 2, rng,
                                      ExecMode::kInference);
  ASSERT_TRUE(built_or.ok());
  BuiltNetwork built = std::move(built_or).value();
  ASSERT_TRUE(built.net->exec_plan().fused);

  Tensor input(built.net->input_shape());
  Rng irng(17);
  for (int64_t i = 0; i < input.size(); ++i)
    input.data()[i] = irng.NextFloat();
  built.net->Forward(input, /*train=*/false);
  for (const auto* head : built.yolo_layers) {
    const Tensor& out = head->output();
    ASSERT_GT(out.size(), 0);
    for (int64_t i = 0; i < out.size(); ++i) {
      ASSERT_TRUE(std::isfinite(out.data()[i])) << "at " << i;
    }
  }
}

}  // namespace
}  // namespace thali
