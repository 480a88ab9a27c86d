// Unit tests for the kernels the fused inference plan dispatches to
// (nn/exec_plan.h): the fast activation family (tensor/act_kernels.h),
// Winograd F(2x2,3x3) convolution (tensor/winograd.h), and the GEMM
// stream-B / masked edge-tile paths that back the direct 1x1 and CNHW
// strided convs. Carries the `asan_smoke` ctest label: a
// -DTHALI_SANITIZE=address build runs these to sweep the fused paths
// (transform scratch, masked loads, arena-aliased full-model forward)
// for out-of-bounds access.

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
#include "tensor/winograd.h"

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
    kernel(b.data(), static_cast<int64_t>(b.size()));
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0);
  }
}

// ---------------------------------------------------------------------
// Winograd F(2x2, 3x3).

// Reference direct 3x3 stride-1 pad-1 convolution, NCHW single item.
void DirectConv3x3(const float* in, int64_t c, int64_t h, int64_t w,
                   const float* weights, int64_t f, float* out) {
  for (int64_t of = 0; of < f; ++of) {
    for (int64_t y = 0; y < h; ++y) {
      for (int64_t x = 0; x < w; ++x) {
        double acc = 0.0;
        for (int64_t ic = 0; ic < c; ++ic) {
          for (int64_t ky = 0; ky < 3; ++ky) {
            const int64_t sy = y + ky - 1;
            if (sy < 0 || sy >= h) continue;
            for (int64_t kx = 0; kx < 3; ++kx) {
              const int64_t sx = x + kx - 1;
              if (sx < 0 || sx >= w) continue;
              acc += static_cast<double>(in[(ic * h + sy) * w + sx]) *
                     weights[((of * c + ic) * 3 + ky) * 3 + kx];
            }
          }
        }
        out[(of * h + y) * w + x] = static_cast<float>(acc);
      }
    }
  }
}

// U = G w G^T prepacked into GEMM A panels, as ConvLayer::PrepackWeights
// builds it for a kWinograd plan.
std::vector<float> PackedWinogradWeights(const std::vector<float>& weights,
                                         int64_t f, int64_t c) {
  std::vector<float> u_packed(
      static_cast<size_t>(WinogradPackedWeightFloats(f, c)));
  WinogradPackWeights(weights.data(), f, c, u_packed.data());
  return u_packed;
}

void WinogradVsDirectCase(int64_t c, int64_t f, int64_t h, int64_t w) {
  Rng rng(static_cast<uint64_t>(c * 1000 + f * 100 + h * 10 + w));
  std::vector<float> in(static_cast<size_t>(c * h * w));
  std::vector<float> weights(static_cast<size_t>(f * c * 9));
  for (auto& v : in) v = rng.NextFloat() * 2.0f - 1.0f;
  for (auto& v : weights) v = rng.NextFloat() * 2.0f - 1.0f;

  std::vector<float> ref(static_cast<size_t>(f * h * w));
  DirectConv3x3(in.data(), c, h, w, weights.data(), f, ref.data());

  const std::vector<float> u_packed = PackedWinogradWeights(weights, f, c);
  std::vector<float> ws(
      static_cast<size_t>(WinogradWorkspaceFloats(c, f, h, w)));
  std::vector<float> got(static_cast<size_t>(f * h * w), -1.0f);
  WinogradForward(in.data(), h * w, c, h, w, u_packed.data(), f, got.data(),
                  h * w, ws.data());

  for (size_t i = 0; i < ref.size(); ++i) {
    ASSERT_NEAR(got[i], ref[i], 1e-4f + 1e-3f * std::abs(ref[i]))
        << "c=" << c << " f=" << f << " h=" << h << " w=" << w << " at "
        << i;
  }
}

TEST(WinogradTest, MatchesDirectConvWithinTolerance) {
  // Even, odd, and non-square spatial sizes (odd exercises the edge
  // clipping of partial 2x2 output tiles), tiny and yolo-scale channel
  // counts.
  WinogradVsDirectCase(1, 1, 4, 4);
  WinogradVsDirectCase(3, 8, 7, 5);
  WinogradVsDirectCase(16, 32, 12, 12);
  WinogradVsDirectCase(8, 4, 1, 1);
  WinogradVsDirectCase(32, 64, 6, 6);
}

TEST(WinogradTest, StridedLayoutMatchesContiguous) {
  // CNHW at batch > 1 reaches WinogradForward with channel strides
  // batch*H*W; planting the item inside a larger block must read/write
  // exactly the same values as the contiguous run.
  const int64_t c = 5, f = 7, h = 6, w = 6, batch = 3;
  Rng rng(31);
  std::vector<float> weights(static_cast<size_t>(f * c * 9));
  for (auto& v : weights) v = rng.NextFloat() * 2.0f - 1.0f;
  const std::vector<float> u_packed = PackedWinogradWeights(weights, f, c);
  std::vector<float> ws(
      static_cast<size_t>(WinogradWorkspaceFloats(c, f, h, w)));

  std::vector<float> in_blocked(static_cast<size_t>(c * batch * h * w));
  for (auto& v : in_blocked) v = rng.NextFloat() * 2.0f - 1.0f;
  std::vector<float> out_blocked(static_cast<size_t>(f * batch * h * w), 0.0f);

  const int64_t item = 1;  // middle batch slot
  WinogradForward(in_blocked.data() + item * h * w, batch * h * w, c, h, w,
                  u_packed.data(), f, out_blocked.data() + item * h * w,
                  batch * h * w, ws.data());

  // Contiguous control: gather item 1's channels, run, compare bitwise.
  std::vector<float> in_c(static_cast<size_t>(c * h * w));
  for (int64_t ic = 0; ic < c; ++ic) {
    std::memcpy(in_c.data() + ic * h * w,
                in_blocked.data() + (ic * batch + item) * h * w,
                static_cast<size_t>(h * w) * sizeof(float));
  }
  std::vector<float> out_c(static_cast<size_t>(f * h * w), 0.0f);
  WinogradForward(in_c.data(), h * w, c, h, w, u_packed.data(), f,
                  out_c.data(), h * w, ws.data());
  for (int64_t of = 0; of < f; ++of) {
    EXPECT_EQ(std::memcmp(out_blocked.data() + (of * batch + item) * h * w,
                          out_c.data() + of * h * w,
                          static_cast<size_t>(h * w) * sizeof(float)),
              0)
        << "filter " << of;
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
// aliasing, Winograd scratch, masked loads all run in one pass).

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
