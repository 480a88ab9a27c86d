// Tests for the per-channel int8 quantization stack (tensor/gemm_int8,
// the kQuantInt8 conv path, calibration and its persistence): the
// quantizer math and its saturation, the u8 im2col and panel pack byte
// for byte, bitwise conformance of the scalar and AVX2 kernel
// families on every conv GEMM shape of yolov4-thali, plan selection,
// calibration as the only int8 opt-in, THALICAL persistence and its
// all-or-nothing load, and end-to-end accuracy against fp32.

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "base/cpu_features.h"
#include "base/file_util.h"
#include "base/rng.h"
#include "base/thread_pool.h"
#include "core/detector.h"
#include "core/trainer.h"
#include "darknet/calibration_io.h"
#include "darknet/cfg.h"
#include "darknet/weights_io.h"
#include "darknet/model_zoo.h"
#include "data/dataset.h"
#include "data/food_classes.h"
#include "nn/conv_layer.h"
#include "nn/exec_plan.h"
#include "nn/network.h"
#include "nn/yolo_layer.h"
#include "tensor/gemm.h"
#include "tensor/gemm_int8.h"
#include "tensor/im2col.h"
#include "tensor/qtensor.h"
#include "ymm_state.h"

namespace thali {
namespace {

// Restores every global knob a test may flip, so a failure cannot leak
// forced scalar kernels or parallelism into later tests.
class Int8Test : public ::testing::Test {
 protected:
  void TearDown() override {
    SetMaxParallelism(1);
    internal::SetScalarKernelsForTesting(false);
  }
};

TEST_F(Int8Test, QuantizeWeightsRoundsClampsAndSumsColumns) {
  // Row 0: maxabs 2.54 -> scale 0.02, quantized values land on exact
  // multiples. Row 1: all zeros -> scale 1, all-zero row.
  const float w[2 * 3] = {2.54f, -1.27f, 0.635f, 0.0f, 0.0f, 0.0f};
  const int64_t kp = Int8PackedK(3);
  ASSERT_EQ(kp, 4);
  std::vector<int8_t> qw(static_cast<size_t>(2 * kp), 99);
  float scale[2];
  int32_t colsum[2];
  Int8QuantizeWeights(w, 2, 3, qw.data(), scale, colsum);
  EXPECT_FLOAT_EQ(scale[0], 2.54f / 127.0f);
  EXPECT_EQ(qw[0], 127);
  EXPECT_EQ(qw[1], -64);  // -63.5 rounds to even
  EXPECT_EQ(qw[2], 32);   // 31.75 rounds to 32
  EXPECT_EQ(qw[3], 0);    // kp padding is zero
  EXPECT_EQ(colsum[0], 127 - 64 + 32);
  EXPECT_FLOAT_EQ(scale[1], 1.0f);
  EXPECT_EQ(colsum[1], 0);
  for (int64_t p = 0; p < kp; ++p) EXPECT_EQ(qw[static_cast<size_t>(kp + p)], 0);
}

TEST_F(Int8Test, RangeToScaleZpWidensToIncludeZero) {
  float s = 0.0f;
  int32_t zp = -1;
  // All-positive range: lo widens to 0, zp = 0.
  Int8RangeToScaleZp(0.5f, 2.54f, &s, &zp);
  EXPECT_FLOAT_EQ(s, 2.54f / 127.0f);
  EXPECT_EQ(zp, 0);
  // All-negative range: hi widens to 0, zp = 127.
  Int8RangeToScaleZp(-2.54f, -0.5f, &s, &zp);
  EXPECT_FLOAT_EQ(s, 2.54f / 127.0f);
  EXPECT_EQ(zp, 127);
  // Symmetric range: zp in the middle.
  Int8RangeToScaleZp(-1.0f, 1.0f, &s, &zp);
  EXPECT_EQ(zp, 64);  // 63.5 rounds to even
  // Degenerate range still yields a positive scale.
  Int8RangeToScaleZp(0.0f, 0.0f, &s, &zp);
  EXPECT_GT(s, 0.0f);
}

TEST_F(Int8Test, QuantizeActivationsClampsTo7Bit) {
  float s = 0.0f;
  int32_t zp = 0;
  Int8RangeToScaleZp(-1.0f, 1.0f, &s, &zp);
  // Values far outside the calibrated range must clamp into [0, 127]:
  // the kernels' no-saturation guarantee depends on the 7-bit bound.
  const float x[5] = {-100.0f, -1.0f, 0.0f, 1.0f, 100.0f};
  uint8_t u[5];
  Int8QuantizeActivations(x, 5, 1.0f / s, zp, u);
  EXPECT_EQ(u[0], 0);
  EXPECT_EQ(u[2], static_cast<uint8_t>(zp));  // x = 0 is exactly zp
  EXPECT_EQ(u[4], 127);
  for (uint8_t v : u) EXPECT_LE(v, 127);

  // Values past int32 (client-controlled pixels reach this quantizer)
  // saturate rather than wrap, and NaN lands on 0.
  const float inf = std::numeric_limits<float>::infinity();
  const float big[6] = {3e9f, 1e12f, -1e12f, inf, -inf,
                        std::numeric_limits<float>::quiet_NaN()};
  const uint8_t want[6] = {127, 127, 0, 127, 0, 0};
  uint8_t got[6];
  Int8QuantizeActivations(big, 6, 1.0f, 5, got);
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(got[i], want[i]) << "x=" << big[i];
  }
}

TEST_F(Int8Test, QuantizeFamiliesAgreeBitwiseOnTiesSaturationAndNaN) {
  if (Avx2Int8GemmKernel() == nullptr || !CpuInfo().avx2) {
    GTEST_SKIP() << "no AVX2 quantizer on this host";
  }
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  // Rounding ties (every half from -150 to 150), both sides of the
  // +-2^30 clamp and of int32, +-inf, NaN of either sign, -0.0,
  // denormals, then Gaussian values.
  std::vector<float> sweep;
  for (int t = -300; t <= 300; ++t) sweep.push_back(0.5f * t);
  for (const float v :
       {1073741824.0f, 1073741952.0f, 1073741760.0f, 2147483648.0f, 3e9f,
        1e30f, inf, nan, 0.0f, 0.49999997f, 126.5f, 127.5f, 1e-45f,
        std::numeric_limits<float>::max()}) {
    sweep.push_back(v);
    sweep.push_back(-v);
  }
  Rng rng(2718);
  for (int i = 0; i < 200; ++i) sweep.push_back(rng.NextGaussian(0.0f, 90.0f));

  const Int8GemmKernel& scalar = ScalarInt8GemmKernel();
  const Int8GemmKernel& avx2 = *Avx2Int8GemmKernel();
  for (const float inv_scale : {1.0f, 0.5f, 3.0f, 1.0f / 0.0173f, 1e-3f}) {
    for (const int32_t zp : {0, 5, 64, 127}) {
      // Every tail width, at several offsets into the sweep, then all of
      // it; exact-size buffers, so ASan sees a read or write past count.
      for (size_t start = 0; start + 40 <= sweep.size(); start += 97) {
        for (size_t count = 0; count <= 40; ++count) {
          const std::vector<float> x(sweep.begin() + start,
                                     sweep.begin() + start + count);
          std::vector<uint8_t> want(count), got(count);
          scalar.quantize(x.data(), static_cast<int64_t>(count), inv_scale,
                          zp, want.data());
          ASSERT_FALSE(LeavesYmmUpperDirty([&] {
            avx2.quantize(x.data(), static_cast<int64_t>(count), inv_scale,
                          zp, got.data());
          })) << "quantize count=" << count;
          ASSERT_EQ(got, want) << "start=" << start << " count=" << count
                               << " inv_scale=" << inv_scale << " zp=" << zp;
        }
      }
      std::vector<uint8_t> want(sweep.size()), got(sweep.size());
      scalar.quantize(sweep.data(), static_cast<int64_t>(sweep.size()),
                      inv_scale, zp, want.data());
      avx2.quantize(sweep.data(), static_cast<int64_t>(sweep.size()),
                    inv_scale, zp, got.data());
      ASSERT_EQ(got, want) << "inv_scale=" << inv_scale << " zp=" << zp;
    }
  }
}

TEST_F(Int8Test, PackActColsMatchesDocumentedLayout) {
  const int64_t k = 6, n = 11;  // kp = 8, one full strip + 3 tail cols
  const int64_t kp = Int8PackedK(k);
  std::vector<uint8_t> qcol(static_cast<size_t>(k * n));
  for (int64_t p = 0; p < k; ++p) {
    for (int64_t j = 0; j < n; ++j) {
      qcol[static_cast<size_t>(p * n + j)] =
          static_cast<uint8_t>(p * 13 + j + 1);
    }
  }
  std::vector<uint8_t> packed(static_cast<size_t>(Int8PackedActBytes(k, n)),
                              0xAA);
  Int8PackActCols(qcol.data(), k, n, packed.data());
  // Strip bytes: (p, j) at (p/4)*32 + (j%8)*4 + p%4.
  for (int64_t p = 0; p < kp; ++p) {
    for (int64_t j = 0; j < 8; ++j) {
      const uint8_t want =
          p < k ? qcol[static_cast<size_t>(p * n + j)] : 0;
      EXPECT_EQ(packed[static_cast<size_t>((p / 4) * 32 + j * 4 + p % 4)],
                want)
          << "p=" << p << " j=" << j;
    }
  }
  // Tail columns: flat k-contiguous kp bytes each.
  const uint8_t* tails = packed.data() + kp * 8;
  for (int64_t t = 0; t < 3; ++t) {
    for (int64_t p = 0; p < kp; ++p) {
      const uint8_t want =
          p < k ? qcol[static_cast<size_t>(p * n + 8 + t)] : 0;
      EXPECT_EQ(tails[t * kp + p], want) << "t=" << t << " p=" << p;
    }
  }

  // Every family's pack, called directly and through the dispatching
  // entry point (forced scalar for the scalar family, automatic for
  // AVX2), over every n % 8 and k % 4 residue and n < 8. The source
  // holds exactly k*n bytes, so a load past column n of the last row
  // trips ASan.
  std::vector<std::pair<const char*, const Int8GemmKernel*>> families = {
      {"scalar", &ScalarInt8GemmKernel()}};
  if (Avx2Int8GemmKernel() != nullptr && CpuInfo().avx2) {
    families.emplace_back("avx2", Avx2Int8GemmKernel());
  }
  Rng rng(314);
  for (const auto& [name, family] : families) {
    for (int64_t kk = 1; kk <= 13; ++kk) {
      for (int64_t nn = 1; nn <= 25; ++nn) {
        const int64_t kkp = Int8PackedK(kk);
        std::vector<uint8_t> src(static_cast<size_t>(kk * nn));
        for (auto& v : src) v = static_cast<uint8_t>(rng.NextInt(0, 255));
        std::vector<uint8_t> want(static_cast<size_t>(kkp * nn));
        const int64_t full = nn / 8 * 8;
        for (int64_t p = 0; p < kkp; ++p) {
          for (int64_t j = 0; j < nn; ++j) {
            const uint8_t b = p < kk ? src[static_cast<size_t>(p * nn + j)] : 0;
            const int64_t at = j < full ? (j / 8) * kkp * 8 + (p / 4) * 32 +
                                              (j % 8) * 4 + p % 4
                                        : full * kkp + (j - full) * kkp + p;
            want[static_cast<size_t>(at)] = b;
          }
        }
        std::vector<uint8_t> direct(want.size(), 0xAA);
        ASSERT_FALSE(LeavesYmmUpperDirty(
            [&] { family->pack(src.data(), kk, nn, direct.data()); }))
            << name << " pack k=" << kk << " n=" << nn;
        ASSERT_EQ(direct, want) << name << " k=" << kk << " n=" << nn;
        internal::SetScalarKernelsForTesting(family ==
                                             &ScalarInt8GemmKernel());
        std::vector<uint8_t> dispatched(want.size(), 0x55);
        Int8PackActCols(src.data(), kk, nn, dispatched.data());
        internal::SetScalarKernelsForTesting(false);
        ASSERT_EQ(dispatched, want) << name << " k=" << kk << " n=" << nn;
      }
    }
  }
}

// Reference im2col with a bounds test per output element: the oracle
// the byte-layout body behind Im2ColStrided and Im2ColStridedU8 must
// match bit for bit.
template <typename T>
void Im2ColOracle(const T* im, int64_t channels, int64_t height,
                  int64_t width, int64_t ksize, int64_t stride, int64_t pad,
                  T pad_value, T* col) {
  const int64_t out_h = ConvOutSize(height, ksize, stride, pad);
  const int64_t out_w = ConvOutSize(width, ksize, stride, pad);
  const int64_t cols = out_h * out_w;
  int64_t row = 0;
  for (int64_t c = 0; c < channels; ++c) {
    const T* imc = im + c * height * width;
    for (int64_t kh = 0; kh < ksize; ++kh) {
      for (int64_t kw = 0; kw < ksize; ++kw, ++row) {
        T* out = col + row * cols;
        for (int64_t oh = 0; oh < out_h; ++oh) {
          const int64_t ih = oh * stride - pad + kh;
          if (ih < 0 || ih >= height) {
            for (int64_t ow = 0; ow < out_w; ++ow) *out++ = pad_value;
            continue;
          }
          const T* imrow = imc + ih * width;
          int64_t iw = -pad + kw;
          for (int64_t ow = 0; ow < out_w; ++ow, iw += stride) {
            *out++ = (iw >= 0 && iw < width) ? imrow[iw] : pad_value;
          }
        }
      }
    }
  }
}

// (channels, height, width, ksize, stride, pad) of one im2col.
using Im2ColGeometry = std::array<int64_t, 6>;

// Every 3x3 conv geometry of yolov4-thali, read from the network.
std::set<Im2ColGeometry> ThaliIm2ColGeometries() {
  Rng net_rng(1);
  auto built = BuildNetworkFromCfg(YoloThaliCfg(YoloThaliOptions{}),
                                   /*batch_override=*/1, net_rng,
                                   ExecMode::kInference);
  THALI_CHECK_OK(built.status());
  std::set<Im2ColGeometry> geometries;
  for (int i = 0; i < built->net->num_layers(); ++i) {
    const Layer& l = built->net->layer(i);
    if (std::string_view(l.kind()) != "convolutional") continue;
    const ConvLayer::Options& o = static_cast<const ConvLayer&>(l).options();
    if (o.ksize != 3) continue;
    geometries.insert({l.input_shape().dim(1), l.input_shape().dim(2),
                       l.input_shape().dim(3), o.ksize, o.stride, o.pad});
  }
  return geometries;
}

// Edges for each of the three copy paths: stride 2 on odd sizes, 1x1
// and 2x2 maps, one-row and one-column planes, valid (pad 0), 1x1 and
// 5x5 taps, strides the model lacks, and a large plane with a tiny
// output.
const Im2ColGeometry kIm2ColEdgeGeometries[] = {
    // At most 16 outputs: the lookup path.
    {4, 1, 1, 3, 1, 1}, {4, 1, 1, 3, 2, 1}, {3, 2, 2, 3, 1, 1},
    {3, 2, 2, 3, 2, 1}, {3, 5, 5, 3, 2, 1}, {2, 3, 5, 3, 1, 1},
    {2, 6, 4, 3, 1, 0}, {2, 2, 2, 5, 1, 2}, {3, 7, 7, 1, 2, 0},
    // Same-size stride 1: the shifted-plane copy.
    {2, 5, 5, 3, 1, 1}, {2, 1, 20, 3, 1, 1}, {2, 20, 1, 3, 1, 1},
    {2, 7, 6, 5, 1, 2}, {3, 6, 6, 1, 1, 0},
    // Everything else: the per-row copy.
    {2, 7, 9, 3, 2, 1}, {2, 11, 13, 3, 2, 1}, {2, 19, 17, 3, 2, 0},
    {2, 10, 9, 3, 1, 0}, {2, 20, 23, 3, 3, 1}, {3, 9, 9, 1, 2, 0},
    {1, 40, 40, 3, 16, 1}};

TEST_F(Int8Test, Im2ColStridedU8MatchesOracleOnThaliGeometriesAndEdges) {
  std::set<Im2ColGeometry> geometries = ThaliIm2ColGeometries();
  // Two stride-2 stem convs and ten same-size maps from 24x24 to 3x3.
  ASSERT_EQ(geometries.size(), 12u);
  geometries.insert(std::begin(kIm2ColEdgeGeometries),
                    std::end(kIm2ColEdgeGeometries));
  Rng rng(2718);
  for (const auto& [c, h, w, ks, st, pd] : geometries) {
    // A zero and a nonzero pad byte.
    for (const uint8_t pad_value : {uint8_t{0}, uint8_t{77}}) {
      // Exactly c*h*w bytes: reading past the last plane's last row
      // trips ASan.
      std::vector<uint8_t> im(static_cast<size_t>(c * h * w));
      for (auto& v : im) v = static_cast<uint8_t>(rng.NextInt(0, 255));
      const int64_t cols =
          ConvOutSize(h, ks, st, pd) * ConvOutSize(w, ks, st, pd);
      const size_t bytes = static_cast<size_t>(c * ks * ks * cols);
      std::vector<uint8_t> want(bytes, 0x11), got(bytes, 0x22);
      Im2ColOracle(im.data(), c, h, w, ks, st, pd, pad_value, want.data());
      Im2ColStridedU8(im.data(), c, h, w, ks, st, pd, pad_value, got.data());
      ASSERT_EQ(got, want) << "c=" << c << " h=" << h << " w=" << w
                           << " k=" << ks << " s=" << st << " p=" << pd
                           << " pad=" << int{pad_value};
    }
  }
}

TEST_F(Int8Test, Im2ColStridedMatchesOracleOnThaliGeometriesAndEdges) {
  // The fp32 instantiation of the same body (every fp32 3x3 conv), over
  // the same geometries. The planes hold NaNs with payloads, -0.0f and
  // denormals, which an element move must carry bit for bit; pads read
  // +0.0f.
  std::set<Im2ColGeometry> geometries = ThaliIm2ColGeometries();
  ASSERT_EQ(geometries.size(), 12u);
  geometries.insert(std::begin(kIm2ColEdgeGeometries),
                    std::end(kIm2ColEdgeGeometries));
  const float kSpecials[] = {
      std::bit_cast<float>(uint32_t{0x7fc01234}),  // quiet NaN, payload
      std::bit_cast<float>(uint32_t{0xffa00001}),  // negative signaling NaN
      -0.0f,
      std::numeric_limits<float>::denorm_min(),
      -std::numeric_limits<float>::denorm_min() * 977.0f};
  Rng rng(3141);
  for (const auto& [c, h, w, ks, st, pd] : geometries) {
    // Exactly c*h*w floats: reading past the last plane's last row trips
    // ASan.
    std::vector<float> im(static_cast<size_t>(c * h * w));
    for (auto& v : im) {
      const int pick = rng.NextInt(0, 9);
      v = pick < 5 ? kSpecials[pick] : rng.NextGaussian();
    }
    const int64_t cols =
        ConvOutSize(h, ks, st, pd) * ConvOutSize(w, ks, st, pd);
    const size_t count = static_cast<size_t>(c * ks * ks * cols);
    std::vector<float> want(count, 1.5f), got(count, 2.5f);
    Im2ColOracle(im.data(), c, h, w, ks, st, pd, 0.0f, want.data());
    Im2ColStrided(im.data(), c, h, w, ks, st, pd, got.data());
    ASSERT_EQ(std::memcmp(got.data(), want.data(), count * sizeof(float)), 0)
        << "c=" << c << " h=" << h << " w=" << w << " k=" << ks
        << " s=" << st << " p=" << pd;
  }
}

// The distinct conv GEMM shapes (m = filters, n = out_h*out_w,
// k = c*ks*ks) of the yolov4-thali model, enumerated from the real
// network so the sweep tracks cfg changes.
std::vector<std::array<int64_t, 3>> ThaliConvGemmShapes() {
  Rng rng(1);
  auto built = BuildNetworkFromCfg(YoloThaliCfg(YoloThaliOptions{}),
                                   /*batch_override=*/1, rng,
                                   ExecMode::kInference);
  THALI_CHECK_OK(built.status());
  std::set<std::array<int64_t, 3>> seen;
  for (int i = 0; i < built->net->num_layers(); ++i) {
    const Layer& l = built->net->layer(i);
    if (std::string_view(l.kind()) != "convolutional") continue;
    const auto& conv = static_cast<const ConvLayer&>(l);
    const int64_t m = conv.options().filters;
    const int64_t k = l.input_shape().dim(1) * conv.options().ksize *
                      conv.options().ksize;
    const int64_t n = l.output_shape().dim(2) * l.output_shape().dim(3);
    seen.insert({m, n, k});
  }
  return {seen.begin(), seen.end()};
}

// Random quantized operands for one GEMM shape, valid per the scheme:
// weights in [-127, 127], activations 7-bit [0, 127].
struct QuantOperands {
  std::vector<int8_t> qw;       // m x kp
  std::vector<uint8_t> packed;  // kp x n panel
  std::vector<float> wscale;
  std::vector<int32_t> wcolsum;
};

QuantOperands MakeOperands(int64_t m, int64_t n, int64_t k, uint64_t seed) {
  Rng rng(seed);
  const int64_t kp = Int8PackedK(k);
  QuantOperands ops;
  ops.qw.resize(static_cast<size_t>(m * kp), 0);
  ops.wscale.resize(static_cast<size_t>(m));
  ops.wcolsum.resize(static_cast<size_t>(m));
  for (int64_t f = 0; f < m; ++f) {
    int32_t sum = 0;
    for (int64_t p = 0; p < k; ++p) {
      const int v = rng.NextInt(-127, 127);
      ops.qw[static_cast<size_t>(f * kp + p)] = static_cast<int8_t>(v);
      sum += v;
    }
    ops.wscale[static_cast<size_t>(f)] = 0.01f + 0.001f * static_cast<float>(f % 7);
    ops.wcolsum[static_cast<size_t>(f)] = sum;
  }
  std::vector<uint8_t> qcol(static_cast<size_t>(k * n));
  for (auto& v : qcol) v = static_cast<uint8_t>(rng.NextInt(0, 127));
  ops.packed.resize(static_cast<size_t>(Int8PackedActBytes(k, n)));
  Int8PackActCols(qcol.data(), k, n, ops.packed.data());
  return ops;
}

TEST_F(Int8Test, ScalarAndAvx2AccumulateBitwiseIdenticalOnAllThaliShapes) {
  const Int8GemmKernel* avx2 = Avx2Int8GemmKernel();
  if (avx2 == nullptr || !CpuInfo().avx2) {
    GTEST_SKIP() << "no AVX2 on this host";
  }
  const auto shapes = ThaliConvGemmShapes();
  // yolov4-thali spans 22 distinct conv geometries; the sweep must not
  // silently shrink if the cfg generator changes.
  ASSERT_EQ(shapes.size(), 22u);
  uint64_t seed = 7;
  for (const auto& [m, n, k] : shapes) {
    const int64_t kp = Int8PackedK(k);
    const QuantOperands ops = MakeOperands(m, n, k, seed++);
    std::vector<int32_t> acc_s(static_cast<size_t>(m * n), -1);
    std::vector<int32_t> acc_v(static_cast<size_t>(m * n), -2);
    ScalarInt8GemmKernel().accumulate(m, n, kp, ops.qw.data(),
                                      ops.packed.data(), acc_s.data());
    EXPECT_FALSE(LeavesYmmUpperDirty([&] {
      avx2->accumulate(m, n, kp, ops.qw.data(), ops.packed.data(),
                       acc_v.data());
    })) << "accumulate m=" << m << " n=" << n << " k=" << k;
    EXPECT_EQ(std::memcmp(acc_s.data(), acc_v.data(),
                          acc_s.size() * sizeof(int32_t)),
              0)
        << "m=" << m << " n=" << n << " k=" << k;
  }
}

TEST_F(Int8Test, KernelFamiliesAgreeOnRegisterTileEdges) {
  const Int8GemmKernel* avx2 = Avx2Int8GemmKernel();
  if (avx2 == nullptr || !CpuInfo().avx2) {
    GTEST_SKIP() << "no AVX2 on this host";
  }
  // Every (m % 6, n % 8, k % 4) residue class around the kernel's 6x8
  // register tile and the k-quad interleave.
  uint64_t seed = 99;
  for (int64_t m = 1; m <= 13; ++m) {
    for (int64_t n = 1; n <= 17; ++n) {
      for (const int64_t k : {1, 3, 4, 5, 32, 33}) {
        const int64_t kp = Int8PackedK(k);
        const QuantOperands ops = MakeOperands(m, n, k, seed++);
        std::vector<int32_t> acc_s(static_cast<size_t>(m * n), 0);
        std::vector<int32_t> acc_v(static_cast<size_t>(m * n), 1);
        ScalarInt8GemmKernel().accumulate(m, n, kp, ops.qw.data(),
                                          ops.packed.data(), acc_s.data());
        ASSERT_FALSE(LeavesYmmUpperDirty([&] {
          avx2->accumulate(m, n, kp, ops.qw.data(), ops.packed.data(),
                           acc_v.data());
        })) << "accumulate m=" << m << " n=" << n << " k=" << k;
        ASSERT_EQ(std::memcmp(acc_s.data(), acc_v.data(),
                              acc_s.size() * sizeof(int32_t)),
                  0)
            << "m=" << m << " n=" << n << " k=" << k;
      }
    }
  }
}

TEST_F(Int8Test, Int8GemmBitwiseIdenticalAcrossKernels) {
  // The full driver (accumulate, then the requantize epilogue) over
  // many register tiles and k quads, automatic family against scalar.
  // The GEMM runs on the calling strand; the conv fans out across batch
  // items (ParallelTest.Int8InferenceBitwiseIdenticalAcrossThreadsAndKernels).
  const int64_t m = 128, n = 576, k = 1152;
  const QuantOperands ops = MakeOperands(m, n, k, 5);
  std::vector<float> bias(static_cast<size_t>(m));
  for (int64_t f = 0; f < m; ++f) {
    bias[static_cast<size_t>(f)] = 0.05f * static_cast<float>(f % 11) - 0.2f;
  }
  Int8Epilogue epi;
  epi.in_scale = 0.03f;
  epi.in_zp = 41;
  epi.wscale = ops.wscale.data();
  epi.wcolsum = ops.wcolsum.data();
  epi.bias = bias.data();
  epi.activation = GemmActivation::kLeaky;

  auto run = [&](bool scalar) {
    internal::SetScalarKernelsForTesting(scalar);
    std::vector<float> c(static_cast<size_t>(m * n), -9.0f);
    std::vector<int32_t> acc(static_cast<size_t>(m * n));
    Int8GemmPrepacked(m, n, k, ops.qw.data(), ops.packed.data(), epi,
                      c.data(), n, acc.data());
    internal::SetScalarKernelsForTesting(false);
    return c;
  };
  const std::vector<float> base = run(/*scalar=*/true);
  const std::vector<float> got = run(/*scalar=*/false);
  EXPECT_EQ(std::memcmp(got.data(), base.data(), got.size() * sizeof(float)),
            0);
}

// Runs the dispatched family's requantize epilogue, forced scalar or
// automatically selected; true when it left the upper YMM halves in use.
bool RunEpilogue(bool scalar, const Int8Epilogue& e, int64_t m, int64_t n,
                 const int32_t* acc, float* c) {
  internal::SetScalarKernelsForTesting(scalar);
  const bool dirty = LeavesYmmUpperDirty(
      [&] { SelectInt8GemmKernel().epilogue(e, m, n, acc, c, n); });
  internal::SetScalarKernelsForTesting(false);
  return dirty;
}

TEST_F(Int8Test, EpilogueFamiliesAgreeBitwiseIncludingMaskedTails) {
  if (Avx2Int8GemmKernel() == nullptr || !CpuInfo().avx2) {
    GTEST_SKIP() << "no AVX2 epilogue on this host";
  }
  Rng rng(909);
  const int64_t m = 9;
  std::vector<float> wscale(static_cast<size_t>(m));
  std::vector<int32_t> wcolsum(static_cast<size_t>(m));
  std::vector<float> bias(static_cast<size_t>(m));
  for (int64_t f = 0; f < m; ++f) {
    wscale[static_cast<size_t>(f)] = 0.001f + 0.01f * static_cast<float>(f);
    wcolsum[static_cast<size_t>(f)] = rng.NextInt(-4000, 4000);
    bias[static_cast<size_t>(f)] = 0.3f * static_cast<float>(f - 4);
  }
  // Every tail width 0..7 and every activation, with accumulators that
  // land on both sides of zero so the leaky/relu blends are exercised.
  for (const int64_t n : {8, 9, 10, 11, 12, 13, 14, 15, 33}) {
    std::vector<int32_t> acc(static_cast<size_t>(m * n));
    for (auto& a : acc) a = rng.NextInt(-300000, 300000);
    for (const GemmActivation act :
         {GemmActivation::kNone, GemmActivation::kLeaky,
          GemmActivation::kRelu}) {
      Int8Epilogue epi;
      epi.in_scale = 0.024f;
      epi.in_zp = 37;
      epi.wscale = wscale.data();
      epi.wcolsum = wcolsum.data();
      epi.bias = bias.data();
      epi.activation = act;
      std::vector<float> c_s(static_cast<size_t>(m * n), -1.0f);
      std::vector<float> c_v(static_cast<size_t>(m * n), -2.0f);
      RunEpilogue(/*scalar=*/true, epi, m, n, acc.data(), c_s.data());
      EXPECT_FALSE(
          RunEpilogue(/*scalar=*/false, epi, m, n, acc.data(), c_v.data()))
          << "epilogue left the upper YMM halves in use, n=" << n;
      ASSERT_EQ(
          std::memcmp(c_s.data(), c_v.data(), c_s.size() * sizeof(float)), 0)
          << "n=" << n << " act=" << static_cast<int>(act);
    }
  }
}

BuiltNetwork BuildThali(ExecMode mode = ExecMode::kInference) {
  Rng rng(4242);
  auto built = BuildNetworkFromCfg(YoloThaliCfg(YoloThaliOptions{}),
                                   /*batch_override=*/1, rng, mode);
  THALI_CHECK_OK(built.status());
  return std::move(built).value();
}

// Folds batch norm on every conv.
void FoldAll(Network& net) {
  for (int i = 0; i < net.num_layers(); ++i) {
    if (std::string_view(net.layer(i).kind()) == "convolutional") {
      static_cast<ConvLayer&>(net.layer(i)).FoldBatchNorm();
    }
  }
}

// Folds batch norm on every conv and calibrates the quantizable convs
// with one min/max pass over `input`, then replans so the quantized
// algorithms and their quantize-once chains take effect. Returns the
// number of convs armed.
int FoldAndCalibrate(Network& net, const Tensor& input) {
  FoldAll(net);
  net.set_calib_phase(CalibPhase::kRange);
  Tensor in = input;
  net.Forward(in, /*train=*/false);
  net.set_calib_phase(CalibPhase::kOff);
  int armed = 0;
  for (int i = 0; i < net.num_layers(); ++i) {
    Layer& l = net.layer(i);
    if (std::string_view(l.kind()) != "convolutional") continue;
    if (!l.plan().quantizable) continue;
    auto& conv = static_cast<ConvLayer&>(l);
    conv.FinalizeCalibration(100.0);
    if (conv.has_activation_range()) ++armed;
  }
  THALI_CHECK_OK(net.ReplanInference());
  return armed;
}

// The fixed input HeadOutputs forwards.
Tensor HeadInput(const Network& net) {
  Tensor input(net.input_shape());
  Rng irng(17);
  for (int64_t i = 0; i < input.size(); ++i) input[i] = irng.NextGaussian();
  return input;
}

TEST_F(Int8Test, PlanSelectsInt8OnlyForEligibleConvs) {
  BuiltNetwork built = BuildThali();
  Network& net = *built.net;
  ASSERT_TRUE(net.exec_plan().fused);
  // `armed`: the plan after calibration, when every quantizable conv
  // runs int8; before it, every conv runs fp32.
  const auto check_plan = [&net](bool armed) {
    int quantized_3x3 = 0, quantized_1x1 = 0, quantized_s2 = 0;
    int head_feeders = 0;
    for (int i = 0; i < net.num_layers(); ++i) {
      const LayerPlan& lp = net.exec_plan().layers[static_cast<size_t>(i)];
      if (std::string_view(net.layer(i).kind()) != "convolutional") {
        EXPECT_FALSE(lp.quantizable) << "layer " << i;
        EXPECT_FALSE(lp.int8) << "layer " << i;
        continue;
      }
      const auto& conv = static_cast<const ConvLayer&>(net.layer(i));
      const ConvLayer::Options& o = conv.options();
      if (o.ksize == 3 && o.pad == 1 && (o.stride == 1 || o.stride == 2)) {
        // A 3x3 at either stride (the u8 im2col walks any stride).
        EXPECT_TRUE(lp.quantizable) << "layer " << i;
        ++(o.stride == 1 ? quantized_3x3 : quantized_s2);
      } else if (conv.IsDirect1x1()) {
        // Every 1x1, the head feeders included: a yolo head reads fp32,
        // so a head feeder's output is a dequant edge.
        EXPECT_TRUE(lp.quantizable) << "layer " << i;
        ++quantized_1x1;
        if (std::string_view(net.layer(i + 1).kind()) == "yolo") {
          EXPECT_EQ(lp.out_dtype, DType::kF32) << "layer " << i;
          ++head_feeders;
        }
      } else {
        EXPECT_FALSE(lp.quantizable) << "layer " << i;
      }
      EXPECT_EQ(lp.int8, armed && lp.quantizable) << "layer " << i;
    }
    EXPECT_EQ(quantized_3x3, 13);  // every 3x3/s1/p1 conv of the model
    EXPECT_EQ(quantized_1x1, 10);  // every 1x1 conv, head feeders included
    EXPECT_EQ(quantized_s2, 2);    // the stride-2 stem convs 0-1
    EXPECT_EQ(head_feeders, 3);    // one per detection head
  };
  check_plan(/*armed=*/false);

  // Before calibration no dtype chain exists: every edge is fp32.
  EXPECT_EQ(net.exec_plan().chained_edges, 0);
  EXPECT_EQ(net.exec_plan().quantized_layers, 0);
  EXPECT_FALSE(net.exec_plan().input_u8);
  for (const LayerPlan& lp : net.exec_plan().layers) {
    EXPECT_EQ(lp.out_dtype, DType::kF32);
    EXPECT_EQ(lp.in_dtype, DType::kF32);
  }

  ASSERT_EQ(FoldAndCalibrate(net, HeadInput(net)), 25);
  check_plan(/*armed=*/true);

  // A training network's reference plan has nothing quantizable, so
  // calibrating cannot arm anything: the plan must contain no quantized
  // entry at all.
  BuiltNetwork off = BuildThali(ExecMode::kTraining);
  ASSERT_FALSE(off.net->exec_plan().fused);
  EXPECT_EQ(FoldAndCalibrate(*off.net, HeadInput(*off.net)), 0);
  for (const LayerPlan& lp : off.net->exec_plan().layers) {
    EXPECT_FALSE(lp.quantizable);
    EXPECT_FALSE(lp.int8);
  }
}

// Item `b` of `items` of every head's output, flattened head after head.
std::vector<float> HeadItem(const BuiltNetwork& built, int64_t b,
                            int64_t items) {
  std::vector<float> flat;
  for (const YoloLayer* head : built.yolo_layers) {
    const Tensor& out = head->output();
    const int64_t per = out.size() / items;
    flat.insert(flat.end(), out.data() + b * per, out.data() + (b + 1) * per);
  }
  return flat;
}

// Full thali forward on fixed input; heads flattened for comparison.
std::vector<float> HeadOutputs(BuiltNetwork& built) {
  built.net->Forward(HeadInput(*built.net), /*train=*/false);
  return HeadItem(built, 0, 1);
}

// The batch of `items` for `net`, item b's planes from items[b].
Tensor Stack(const Network& net, const std::vector<Tensor>& items) {
  Tensor batched(net.input_shape());
  const int64_t item = items[0].size();
  for (size_t b = 0; b < items.size(); ++b) {
    std::memcpy(batched.data() + static_cast<int64_t>(b) * item,
                items[b].data(), static_cast<size_t>(item) * sizeof(float));
  }
  return batched;
}

TEST_F(Int8Test, ResetCalibrationRestoresUncalibratedBytes) {
  // Dropping every range and replanning is the int8 opt-out: it must
  // reproduce a never-calibrated folded network byte for byte, so
  // calibrating once leaves nothing behind in the fp32 plan.
  BuiltNetwork never = BuildThali();
  FoldAll(*never.net);
  const std::vector<float> ref = HeadOutputs(never);

  BuiltNetwork reset = BuildThali();
  ASSERT_EQ(FoldAndCalibrate(*reset.net, HeadInput(*reset.net)), 25);
  ASSERT_GE(reset.net->exec_plan().quantized_layers, 49);
  const std::vector<float> armed = HeadOutputs(reset);
  for (int i = 0; i < reset.net->num_layers(); ++i) {
    if (std::string_view(reset.net->layer(i).kind()) == "convolutional") {
      static_cast<ConvLayer&>(reset.net->layer(i)).ResetCalibration();
    }
  }
  THALI_CHECK_OK(reset.net->ReplanInference());
  EXPECT_EQ(reset.net->exec_plan().quantized_layers, 0);
  const std::vector<float> got = HeadOutputs(reset);
  ASSERT_EQ(got.size(), ref.size());
  ASSERT_FALSE(ref.empty());
  EXPECT_NE(std::memcmp(armed.data(), ref.data(), ref.size() * sizeof(float)),
            0)
      << "the calibrated forward never ran quantized";
  EXPECT_EQ(std::memcmp(got.data(), ref.data(), ref.size() * sizeof(float)),
            0);
}

TEST_F(Int8Test, CalibrateInt8AloneArmsDefaultDetector) {
  // No env var and no hook: a default-built fused detector quantizes
  // exactly when it is calibrated.
  auto det = Detector::FromCfg(YoloThaliCfg(YoloThaliOptions{}));
  THALI_CHECK_OK(det.status());
  EXPECT_EQ(det->network().exec_plan().quantized_layers, 0);
  DatasetSpec spec;
  spec.num_images = 4;
  spec.seed = 99;
  const FoodDataset ds = FoodDataset::Generate(IndianFood10(), spec);
  const std::vector<int> idx = {0, 1, 2, 3};
  EXPECT_EQ(det->CalibrateInt8(ds, idx), 25);
  EXPECT_GE(det->network().exec_plan().quantized_layers, 49);
  EXPECT_TRUE(det->network().exec_plan().input_u8);
}

TEST_F(Int8Test, Int8ForwardRunsQuantizedAndTracksFp32) {
  // fp32 oracle: same seed, same folded weights, never calibrated.
  BuiltNetwork fp32 = BuildThali();
  FoldAll(*fp32.net);
  const std::vector<float> ref = HeadOutputs(fp32);

  BuiltNetwork int8 = BuildThali();
  const int armed = FoldAndCalibrate(*int8.net, HeadInput(*int8.net));
  ASSERT_GT(armed, 0);
  const std::vector<float> got = HeadOutputs(int8);
  ASSERT_EQ(got.size(), ref.size());

  // The quantized path must have actually run (outputs differ from
  // fp32)...
  EXPECT_NE(std::memcmp(got.data(), ref.data(), got.size() * sizeof(float)),
            0);
  // ...while staying close: relative L2 over the head activations.
  double num = 0.0, den = 0.0;
  for (size_t i = 0; i < ref.size(); ++i) {
    const double d = static_cast<double>(got[i]) - ref[i];
    num += d * d;
    den += static_cast<double>(ref[i]) * ref[i];
  }
  ASSERT_GT(den, 0.0);
  EXPECT_LT(std::sqrt(num / den), 0.15)
      << "int8 heads drifted " << std::sqrt(num / den) << " rel-L2 from fp32";

  // Scalar and AVX2 kernel families must agree bitwise end to end.
  internal::SetScalarKernelsForTesting(true);
  const std::vector<float> scalar_out = HeadOutputs(int8);
  internal::SetScalarKernelsForTesting(false);
  EXPECT_EQ(std::memcmp(scalar_out.data(), got.data(),
                        got.size() * sizeof(float)),
            0);
}

TEST_F(Int8Test, ReplanAfterCalibrationChainsMajorityOfThali) {
  BuiltNetwork int8 = BuildThali();
  Tensor input(int8.net->input_shape());
  Rng irng(41);
  for (int64_t i = 0; i < input.size(); ++i) input[i] = irng.NextGaussian();
  ASSERT_GT(FoldAndCalibrate(*int8.net, input), 0);

  const ExecPlan& plan = int8.net->exec_plan();
  // The tentpole acceptance floor: with the stride-2 stem convs
  // quantized and the network input chained as a u8 domain, 49 of the
  // 52 thali layers run quantized (25 quantized convs plus the u8
  // passthroughs between them; only the three yolo heads stay fp32),
  // with real chained edges and the head feeders' outputs as dequant
  // edges.
  EXPECT_GE(plan.quantized_layers, 49) << "of " << int8.net->num_layers();
  EXPECT_GT(plan.chained_edges, 0);
  EXPECT_GE(plan.dequant_edges, 3);  // one per yolo head at minimum
  // The input itself quantizes: layer 0 reads u8 bytes staged by
  // Network::Forward (or the detector's fused letterbox-quantize) in
  // conv 0's calibrated activation domain.
  EXPECT_TRUE(plan.input_u8);
  EXPECT_GT(plan.input_qscale, 0.0f);
  EXPECT_GE(plan.input_qzp, 0);
  EXPECT_LE(plan.input_qzp, 127);
  EXPECT_EQ(plan.layers[0].in_dtype, DType::kU8);
  EXPECT_EQ(plan.layers[0].in_qscale, plan.input_qscale);
  EXPECT_EQ(plan.layers[0].in_qzp, plan.input_qzp);
  int chained_convs = 0;
  for (int i = 0; i < int8.net->num_layers(); ++i) {
    const LayerPlan& lp = plan.layers[static_cast<size_t>(i)];
    if (lp.in_dtype == DType::kU8) {
      // A u8 input implies a u8 producer in the same domain.
      const bool conv = std::string_view(int8.net->layer(i).kind()) ==
                        "convolutional";
      if (conv) ++chained_convs;
      EXPECT_GT(lp.in_qscale, 0.0f) << "layer " << i;
      EXPECT_GE(lp.in_qzp, 0) << "layer " << i;
      EXPECT_LE(lp.in_qzp, 127) << "layer " << i;
    }
    if (lp.out_dtype == DType::kU8) {
      EXPECT_GE(lp.quant_root, 0) << "layer " << i;
      EXPECT_EQ(plan.layers[static_cast<size_t>(lp.quant_root)].out_dtype,
                DType::kU8)
          << "layer " << i;
    }
  }
  EXPECT_GT(chained_convs, 0);

  // Dropping the ranges must drop every chain again.
  for (int i = 0; i < int8.net->num_layers(); ++i) {
    if (std::string_view(int8.net->layer(i).kind()) != "convolutional") {
      continue;
    }
    static_cast<ConvLayer&>(int8.net->layer(i)).ResetCalibration();
  }
  THALI_CHECK_OK(int8.net->ReplanInference());
  EXPECT_EQ(int8.net->exec_plan().chained_edges, 0);
  for (const LayerPlan& lp : int8.net->exec_plan().layers) {
    EXPECT_EQ(lp.out_dtype, DType::kF32);
  }
  // And the fp32 fallbacks still forward cleanly.
  const std::vector<float> out = HeadOutputs(int8);
  EXPECT_FALSE(out.empty());
}

TEST_F(Int8Test, CalibrationPhaseRunsFp32PlanThenRearms) {
  BuiltNetwork int8 = BuildThali();
  ASSERT_GT(FoldAndCalibrate(*int8.net, HeadInput(*int8.net)), 0);
  ASSERT_GE(int8.net->exec_plan().quantized_layers, 49);
  const std::vector<float> armed = HeadOutputs(int8);

  // fp32 oracle: same seed, same folded weights, never calibrated.
  BuiltNetwork fp32 = BuildThali();
  FoldAll(*fp32.net);
  const std::vector<float> ref = HeadOutputs(fp32);

  // A calibration phase replans the chained network onto the fp32
  // algorithms: its forward is the uncalibrated forward, bit for bit...
  int8.net->set_calib_phase(CalibPhase::kRange);
  EXPECT_EQ(int8.net->exec_plan().quantized_layers, 0);
  const std::vector<float> observed = HeadOutputs(int8);
  ASSERT_EQ(observed.size(), ref.size());
  EXPECT_EQ(
      std::memcmp(observed.data(), ref.data(), ref.size() * sizeof(float)), 0);

  // ...and leaving it re-arms the same quantized plan.
  int8.net->set_calib_phase(CalibPhase::kOff);
  EXPECT_GE(int8.net->exec_plan().quantized_layers, 49);
  const std::vector<float> again = HeadOutputs(int8);
  ASSERT_EQ(again.size(), armed.size());
  EXPECT_EQ(
      std::memcmp(again.data(), armed.data(), armed.size() * sizeof(float)),
      0);
}

TEST_F(Int8Test, PercentileCalibrationTrimsInsideMinMaxRanges) {
  DatasetSpec spec;
  spec.num_images = 10;
  spec.seed = 321;
  const FoodDataset ds = FoodDataset::Generate(IndianFood10(), spec);
  BuiltNetwork built = BuildThali();
  std::vector<DetectionHead*> heads(built.yolo_layers.begin(),
                                    built.yolo_layers.end());
  Network& net = *built.net;
  Detector det(std::move(built.net), heads);
  const std::span<const int> indices(ds.train_indices());
  Detector::Int8CalibrationOptions copts;
  copts.max_images = 4;

  // Installed (min, max) per quantizable conv, in layer order.
  const auto ranges = [&net]() {
    std::vector<std::pair<float, float>> out;
    for (int i = 0; i < net.num_layers(); ++i) {
      if (!net.layer(i).plan().quantizable) continue;
      const auto& conv = static_cast<const ConvLayer&>(net.layer(i));
      EXPECT_TRUE(conv.has_activation_range()) << "layer " << i;
      out.emplace_back(conv.activation_range_min(),
                       conv.activation_range_max());
    }
    return out;
  };
  const int armed = det.CalibrateInt8(ds, indices, copts);
  ASSERT_EQ(armed, 25);
  const std::vector<std::pair<float, float>> minmax = ranges();
  ASSERT_EQ(minmax.size(), 25u);

  // The 100th percentile keeps the observed extremes exactly.
  copts.mode = Detector::Int8CalibrationOptions::Mode::kPercentile;
  copts.percentile = 100.0;
  ASSERT_EQ(det.CalibrateInt8(ds, indices, copts), armed);
  const std::vector<std::pair<float, float>> full = ranges();
  ASSERT_EQ(full.size(), minmax.size());
  for (size_t i = 0; i < full.size(); ++i) {
    EXPECT_EQ(full[i].first, minmax[i].first) << "conv " << i;
    EXPECT_EQ(full[i].second, minmax[i].second) << "conv " << i;
  }

  // Trimming the tails keeps every range inside its min/max range (up
  // to float rounding of the bin edges) and narrows at least one by a
  // whole histogram bin or more.
  copts.percentile = 99.9;
  ASSERT_EQ(det.CalibrateInt8(ds, indices, copts), armed);
  const std::vector<std::pair<float, float>> trimmed = ranges();
  ASSERT_EQ(trimmed.size(), minmax.size());
  int narrower = 0;
  for (size_t i = 0; i < trimmed.size(); ++i) {
    const float width = minmax[i].second - minmax[i].first;
    const float eps = 1e-6f * (std::fabs(minmax[i].first) +
                               std::fabs(minmax[i].second));
    EXPECT_GE(trimmed[i].first, minmax[i].first - eps) << "conv " << i;
    EXPECT_LE(trimmed[i].second, minmax[i].second + eps) << "conv " << i;
    if (trimmed[i].second - trimmed[i].first < width * (1.0f - 1.0f / 4096)) {
      ++narrower;
    }
  }
  EXPECT_GT(narrower, 0);
  EXPECT_GE(net.exec_plan().quantized_layers, 49);
}

TEST_F(Int8Test, U8OutEpilogueFamiliesAgreeBitwiseIncludingMish) {
  if (Avx2Int8GemmKernel() == nullptr || !CpuInfo().avx2) {
    GTEST_SKIP() << "no AVX2 epilogue on this host";
  }
  Rng rng(808);
  const int64_t m = 7;
  std::vector<float> wscale(static_cast<size_t>(m));
  std::vector<int32_t> wcolsum(static_cast<size_t>(m));
  std::vector<float> bias(static_cast<size_t>(m));
  for (int64_t f = 0; f < m; ++f) {
    wscale[static_cast<size_t>(f)] = 0.002f + 0.008f * static_cast<float>(f);
    wcolsum[static_cast<size_t>(f)] = rng.NextInt(-4000, 4000);
    bias[static_cast<size_t>(f)] = 0.25f * static_cast<float>(f - 3);
  }
  // Every tail width and all four fusable activations, requantizing to
  // u8 in an output domain with a nonzero zero point. The mish case
  // pins the scalar FastMish against the AVX2 FastMishVec bit for bit.
  for (const int64_t n : {8, 9, 10, 11, 12, 13, 14, 15, 40}) {
    std::vector<int32_t> acc(static_cast<size_t>(m * n));
    for (auto& a : acc) a = rng.NextInt(-300000, 300000);
    for (const GemmActivation act :
         {GemmActivation::kNone, GemmActivation::kLeaky,
          GemmActivation::kRelu, GemmActivation::kMish}) {
      Int8Epilogue epi;
      epi.in_scale = 0.019f;
      epi.in_zp = 52;
      epi.wscale = wscale.data();
      epi.wcolsum = wcolsum.data();
      epi.bias = bias.data();
      epi.activation = act;
      epi.out_inv_scale = 1.0f / 0.05f;
      epi.out_zp = 33;
      std::vector<uint8_t> u_s(static_cast<size_t>(m * n), 0xAA);
      std::vector<uint8_t> u_v(static_cast<size_t>(m * n), 0x55);
      epi.out_u8 = u_s.data();
      RunEpilogue(/*scalar=*/true, epi, m, n, acc.data(), nullptr);
      epi.out_u8 = u_v.data();
      EXPECT_FALSE(
          RunEpilogue(/*scalar=*/false, epi, m, n, acc.data(), nullptr))
          << "epilogue left the upper YMM halves in use, n=" << n;
      ASSERT_EQ(std::memcmp(u_s.data(), u_v.data(), u_s.size()), 0)
          << "n=" << n << " act=" << static_cast<int>(act);
      for (uint8_t v : u_s) ASSERT_LE(v, 127);
    }
  }

  // Requantized values past int32 saturate in both families: +-2^30
  // accumulators at unit scale times out_inv_scale 100 give +-1.07e11,
  // which must land on 127 / 0 rather than wrap. Nine columns put a
  // saturating lane in the masked tail too.
  const float unit_scale[1] = {1.0f};
  const int32_t zero_colsum[1] = {0};
  const int32_t big[9] = {1 << 30, -(1 << 30), 1 << 30, 1 << 30, -(1 << 30),
                          0,       1 << 30,    -(1 << 30), 1 << 30};
  for (const GemmActivation act :
       {GemmActivation::kNone, GemmActivation::kLeaky, GemmActivation::kRelu,
        GemmActivation::kMish}) {
    for (const bool scalar : {true, false}) {
      Int8Epilogue epi;
      epi.wscale = unit_scale;
      epi.wcolsum = zero_colsum;
      epi.activation = act;
      epi.out_inv_scale = 100.0f;
      epi.out_zp = 5;
      uint8_t u[9];
      epi.out_u8 = u;
      RunEpilogue(scalar, epi, 1, 9, big, nullptr);
      // relu and mish take a huge negative to (about) 0, which
      // quantizes to the zero point.
      const bool keeps_sign = act == GemmActivation::kNone ||
                              act == GemmActivation::kLeaky;
      for (int j = 0; j < 9; ++j) {
        const uint8_t want =
            big[j] > 0 ? 127 : big[j] < 0 && keeps_sign ? 0 : 5;
        EXPECT_EQ(u[j], want) << "scalar=" << scalar
                              << " act=" << static_cast<int>(act)
                              << " acc=" << big[j];
      }
    }
  }
}

TEST_F(Int8Test, CalibrationSurvivesRebatchAndMatchesBatchOne) {
  // Four distinct inputs, for the calibrated int8 plan and for the
  // folded fp32 plan: at batch 4, every item must reproduce its own
  // input's batch-1 heads bitwise. Items never interact, and each reads
  // its own planes — an item offset dropped anywhere hands later items
  // item 0's bytes.
  for (const bool int8 : {true, false}) {
    SCOPED_TRACE(int8 ? "calibrated int8" : "folded fp32");
    BuiltNetwork built = BuildThali();
    Network& net = *built.net;
    std::vector<Tensor> inputs;
    for (uint64_t v = 0; v < 4; ++v) {
      Tensor in(net.input_shape());
      Rng irng(23 + v);
      for (int64_t i = 0; i < in.size(); ++i) in[i] = irng.NextGaussian();
      inputs.push_back(std::move(in));
    }
    if (int8) {
      ASSERT_GT(FoldAndCalibrate(net, inputs[0]), 0);
      ASSERT_GT(net.exec_plan().chained_edges, 0);
    } else {
      FoldAll(net);
      ASSERT_TRUE(net.ReplanInference().ok());
      ASSERT_EQ(net.exec_plan().quantized_layers, 0);
    }

    std::vector<std::vector<float>> base;
    for (const Tensor& in : inputs) {
      net.Forward(in, /*train=*/false);
      base.push_back(HeadItem(built, 0, 1));
    }

    THALI_CHECK_OK(net.SetBatch(4));
    net.Forward(Stack(net, inputs), /*train=*/false);
    for (int64_t b = 0; b < 4; ++b) {
      const std::vector<float> got = HeadItem(built, b, 4);
      ASSERT_EQ(got.size(), base[b].size());
      EXPECT_EQ(std::memcmp(got.data(), base[b].data(),
                            got.size() * sizeof(float)),
                0)
          << "batch item " << b;
    }

    // ...and back to batch 1: bitwise identical to the first run.
    THALI_CHECK_OK(net.SetBatch(1));
    net.Forward(inputs[0], /*train=*/false);
    const std::vector<float> again = HeadItem(built, 0, 1);
    EXPECT_EQ(std::memcmp(again.data(), base[0].data(),
                          again.size() * sizeof(float)),
              0);
  }
}

// A small int8 net from cfg text: 12x12x3 input, the given sections,
// weights and nonzero biases drawn from `seed`.
BuiltNetwork BuildSmall(const std::string& sections, uint64_t seed) {
  Rng rng(1);
  auto built = BuildNetworkFromCfg(
      "[net]\nwidth=12\nheight=12\nchannels=3\nbatch=1\n" + sections,
      /*batch_override=*/1, rng, ExecMode::kInference);
  THALI_CHECK_OK(built.status());
  Network& net = *built->net;
  Rng wrng(seed);
  for (int i = 0; i < net.num_layers(); ++i) {
    if (std::string_view(net.layer(i).kind()) != "convolutional") continue;
    auto& conv = static_cast<ConvLayer&>(net.layer(i));
    for (Tensor* t : {&conv.weights(), &conv.biases()}) {
      for (int64_t j = 0; j < t->size(); ++j) {
        (*t)[j] = wrng.NextGaussian(0.0f, 0.3f);
      }
    }
    conv.MarkWeightsDirty();
  }
  return std::move(built).value();
}

Tensor SmallInput(const Network& net, uint64_t seed) {
  Tensor in(net.input_shape());
  Rng irng(seed);
  for (int64_t i = 0; i < in.size(); ++i) in[i] = irng.NextGaussian();
  return in;
}

constexpr char kConv3x3Leaky[] =
    "[convolutional]\nfilters=8\nsize=3\nstride=1\npad=1\n"
    "activation=leaky\n";
constexpr char kConv1x1Linear[] =
    "[convolutional]\nfilters=6\nsize=1\nstride=1\npad=0\n"
    "activation=linear\n";

TEST_F(Int8Test, UnchainedConvQuantizesLikeTheChainedInput) {
  // [conv3x3 -> conv1x1] chains the network input into conv 0:
  // Network::Forward quantizes it. Behind a size-1/stride-1 maxpool (an
  // identity) the same conv reads fp32 — a passthrough over the network
  // input can never be u8 — and quantizes its input itself. Same
  // weights, same calibrated domain, same shared quantizer: the outputs
  // must match bit for bit.
  BuiltNetwork chained =
      BuildSmall(std::string(kConv3x3Leaky) + kConv1x1Linear, 5);
  BuiltNetwork unchained = BuildSmall(
      std::string("[maxpool]\nsize=1\nstride=1\n") + kConv3x3Leaky +
          kConv1x1Linear,
      5);
  const Tensor input = SmallInput(*chained.net, 8);
  ASSERT_EQ(FoldAndCalibrate(*chained.net, input), 2);
  ASSERT_EQ(FoldAndCalibrate(*unchained.net, input), 2);
  const LayerPlan& a = chained.net->exec_plan().layers[0];
  const LayerPlan& b = unchained.net->exec_plan().layers[1];
  ASSERT_TRUE(chained.net->exec_plan().input_u8);
  ASSERT_EQ(a.in_dtype, DType::kU8);
  ASSERT_TRUE(b.int8);
  ASSERT_EQ(b.in_dtype, DType::kF32);  // quantizes its own input
  EXPECT_EQ(a.in_qscale, b.in_qscale);
  EXPECT_EQ(a.in_qzp, b.in_qzp);

  for (const bool scalar : {false, true}) {
    internal::SetScalarKernelsForTesting(scalar);
    const Tensor& x = chained.net->Forward(input, /*train=*/false);
    const Tensor& y = unchained.net->Forward(input, /*train=*/false);
    internal::SetScalarKernelsForTesting(false);
    ASSERT_EQ(x.size(), y.size());
    EXPECT_EQ(std::memcmp(x.data(), y.data(),
                          static_cast<size_t>(x.size()) * sizeof(float)),
              0)
        << "scalar=" << scalar;
  }
}

TEST_F(Int8Test, UnchainedInputsMatchBatchOnePerItem) {
  // Logistic has no epilogue form, so a logistic conv writes fp32 and
  // its int8 consumer must quantize that input itself, one item at a
  // time: conv 1 (a 3x3), conv 3 (a 1x1 between two convs) and conv 4
  // (a 1x1 writing the network output). At batch 4 every item must equal
  // its own batch-1 output.
  const std::string logistic3 =
      "[convolutional]\nfilters=8\nsize=3\nstride=1\npad=1\n"
      "activation=logistic\n";
  const std::string logistic1 =
      "[convolutional]\nfilters=8\nsize=1\nstride=1\npad=0\n"
      "activation=logistic\n";
  BuiltNetwork built = BuildSmall(logistic3 + kConv3x3Leaky + logistic1 +
                                      logistic1 + kConv1x1Linear,
                                  6);
  Network& net = *built.net;
  std::vector<Tensor> inputs;
  for (uint64_t v = 0; v < 4; ++v) inputs.push_back(SmallInput(net, 40 + v));
  ASSERT_EQ(FoldAndCalibrate(net, inputs[0]), 5);

  std::vector<std::vector<float>> base;
  for (const Tensor& in : inputs) {
    const Tensor& out = net.Forward(in, /*train=*/false);
    base.emplace_back(out.data(), out.data() + out.size());
  }
  THALI_CHECK_OK(net.SetBatch(4));
  const ExecPlan& plan = net.exec_plan();
  for (const int i : {1, 3, 4}) {
    const LayerPlan& lp = plan.layers[static_cast<size_t>(i)];
    EXPECT_TRUE(lp.int8) << "layer " << i;
    EXPECT_EQ(lp.in_dtype, DType::kF32) << "layer " << i;
  }

  const Tensor& out = net.Forward(Stack(net, inputs), /*train=*/false);
  const int64_t per = out.size() / 4;
  for (int64_t b = 0; b < 4; ++b) {
    ASSERT_EQ(base[b].size(), static_cast<size_t>(per));
    EXPECT_EQ(std::memcmp(out.data() + b * per, base[b].data(),
                          static_cast<size_t>(per) * sizeof(float)),
              0)
        << "batch item " << b;
  }
}

TEST_F(Int8Test, CalibrationRoundTripsThroughFile) {
  BuiltNetwork a = BuildThali();
  Tensor input(a.net->input_shape());
  Rng irng(31);
  for (int64_t i = 0; i < input.size(); ++i) input[i] = irng.NextGaussian();
  const int armed = FoldAndCalibrate(*a.net, input);
  ASSERT_GT(armed, 0);

  const std::string path = ::testing::TempDir() + "thali_int8_test.cal";
  THALI_CHECK_OK(SaveCalibration(*a.net, path));

  BuiltNetwork b = BuildThali();
  auto loaded = LoadCalibration(*b.net, path);
  THALI_CHECK_OK(loaded.status());
  EXPECT_EQ(*loaded, armed);
  for (int i = 0; i < a.net->num_layers(); ++i) {
    if (std::string_view(a.net->layer(i).kind()) != "convolutional") continue;
    const auto& ca = static_cast<const ConvLayer&>(a.net->layer(i));
    const auto& cb = static_cast<const ConvLayer&>(b.net->layer(i));
    ASSERT_EQ(ca.has_activation_range(), cb.has_activation_range()) << i;
    if (!ca.has_activation_range()) continue;
    EXPECT_EQ(ca.activation_range_min(), cb.activation_range_min()) << i;
    EXPECT_EQ(ca.activation_range_max(), cb.activation_range_max()) << i;
  }

  // The workspace slots follow the plan: each holds exactly the largest
  // WorkspaceSize() of the current plan's layers, so they shrink once
  // the loaded ranges arm int8 on the folded network and grow back when
  // the calibration is reset.
  const auto largest_need = [](const Network& net) {
    int64_t need = 0;
    for (int i = 0; i < net.num_layers(); ++i) {
      need = std::max(need, net.layer(i).WorkspaceSize());
    }
    return need;
  };
  const int64_t fp32_floats = b.net->workspace_size();
  EXPECT_EQ(fp32_floats, largest_need(*b.net));
  FoldAll(*b.net);
  THALI_CHECK_OK(b.net->ReplanInference());
  ASSERT_GT(b.net->exec_plan().quantized_layers, 0);
  EXPECT_EQ(b.net->workspace_size(), largest_need(*b.net));
  EXPECT_LT(b.net->workspace_size(), fp32_floats);
  for (int i = 0; i < b.net->num_layers(); ++i) {
    if (std::string_view(b.net->layer(i).kind()) != "convolutional") continue;
    static_cast<ConvLayer&>(b.net->layer(i)).ResetCalibration();
  }
  THALI_CHECK_OK(b.net->ReplanInference());
  EXPECT_EQ(b.net->exec_plan().quantized_layers, 0);
  EXPECT_EQ(b.net->workspace_size(), largest_need(*b.net));
  EXPECT_EQ(b.net->workspace_size(), fp32_floats);

  // A corrupt file must fail loudly, not half-arm the network: a
  // truncated header, a file cut inside entry 2, and an entry 2 with an
  // inverted range or naming a non-conv layer. The target is folded, so
  // any range that slipped in would arm its conv on the next replan.
  auto data = ReadFileToString(path);
  THALI_CHECK_OK(data.status());
  constexpr size_t kHeader = 16, kEntry = 12;
  ASSERT_GE(data->size(), kHeader + 2 * kEntry);
  const size_t entry2 = kHeader + kEntry;
  std::string inverted = *data;
  float range[2];
  std::memcpy(range, inverted.data() + entry2 + 4, sizeof(range));
  range[0] = range[1] + 1.0f;
  std::memcpy(inverted.data() + entry2 + 4, range, sizeof(float));
  std::string non_conv = *data;
  int32_t route = -1;
  for (int i = 0; i < a.net->num_layers() && route < 0; ++i) {
    if (std::string_view(a.net->layer(i).kind()) == "route") route = i;
  }
  ASSERT_GE(route, 0);
  std::memcpy(non_conv.data() + entry2, &route, sizeof(route));
  const std::vector<std::pair<const char*, std::string>> corrupt = {
      {"truncated header", "THALICAL\x01"},
      {"cut inside entry 2", data->substr(0, entry2 + 6)},
      {"entry 2 min > max", inverted},
      {"entry 2 names a route", non_conv}};
  for (const auto& [what, bytes] : corrupt) {
    const std::string bad = ::testing::TempDir() + "thali_int8_test_bad.cal";
    THALI_CHECK_OK(WriteStringToFile(bad, bytes));
    BuiltNetwork c = BuildThali();
    FoldAll(*c.net);
    EXPECT_FALSE(LoadCalibration(*c.net, bad).ok()) << what;
    for (int i = 0; i < c.net->num_layers(); ++i) {
      if (std::string_view(c.net->layer(i).kind()) != "convolutional") {
        continue;
      }
      EXPECT_FALSE(static_cast<const ConvLayer&>(c.net->layer(i))
                       .has_activation_range())
          << what << ": layer " << i;
    }
    THALI_CHECK_OK(c.net->ReplanInference());
    EXPECT_EQ(c.net->exec_plan().quantized_layers, 0) << what;
  }
}

TEST_F(Int8Test, CalibrateInt8KeepsMapWithinOnePointOfFp32) {
  // Short transfer-training run, then the trained checkpoint evaluated
  // through the fp32 and the calibrated int8 inference stacks: the
  // acceptance bar is |mAP(int8) - mAP(fp32)| <= 1.0 point.
  SetMaxParallelism(4);
  DatasetSpec spec;
  spec.num_images = 16;
  spec.seed = 321;
  FoodDataset ds = FoodDataset::Generate(IndianFood10(), spec);

  YoloThaliOptions yo;
  yo.classes = 10;
  yo.batch = 2;
  yo.max_batches = 12;
  yo.burn_in = 3;
  TransferTrainer::Options topts;
  topts.cfg_text = YoloThaliCfg(yo);
  topts.log_every = 0;
  auto trainer = TransferTrainer::Create(topts);
  THALI_CHECK_OK(trainer.status());
  THALI_CHECK_OK(trainer->Train(ds, /*iterations=*/12));
  const std::string wpath = ::testing::TempDir() + "thali_int8_map.weights";
  THALI_CHECK_OK(trainer->SaveWeightsTo(wpath));

  auto build_eval = [&]() {
    Rng rng(7);
    auto built = BuildNetworkFromCfg(topts.cfg_text, /*batch_override=*/1,
                                     rng, ExecMode::kInference);
    THALI_CHECK_OK(built.status());
    auto loaded = LoadWeights(*built->net, wpath);
    THALI_CHECK_OK(loaded.status());
    THALI_CHECK_GT(*loaded, 0);
    return std::move(built).value();
  };

  BuiltNetwork fp32 = build_eval();
  FoldAll(*fp32.net);
  std::vector<DetectionHead*> fp32_heads(fp32.yolo_layers.begin(),
                                         fp32.yolo_layers.end());
  const float map_fp32 =
      EvaluateDetections(*fp32.net, fp32_heads, ds, ds.val_indices(), 10,
                         EvalOptions{})
          .map;

  BuiltNetwork int8 = build_eval();
  std::vector<DetectionHead*> int8_heads(int8.yolo_layers.begin(),
                                         int8.yolo_layers.end());
  Network& int8_net = *int8.net;
  Detector det(std::move(int8.net), int8_heads);
  Detector::Int8CalibrationOptions copts;
  copts.max_images = static_cast<int>(ds.train_indices().size());
  const int armed = det.CalibrateInt8(
      ds, std::span<const int>(ds.train_indices()), copts);
  ASSERT_GT(armed, 0);
  const float map_int8 =
      EvaluateDetections(int8_net, int8_heads, ds, ds.val_indices(), 10,
                         EvalOptions{})
          .map;

  EXPECT_LE(std::fabs(map_int8 - map_fp32), 0.01f)
      << "fp32 mAP " << map_fp32 << " vs int8 mAP " << map_int8;
}

}  // namespace
}  // namespace thali
