#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <climits>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include "base/cpu_features.h"
#include "base/rng.h"
#include "nn/maxpool_layer.h"
#include "nn/network.h"
#include "tensor/act_kernels.h"
#include "tensor/gemm.h"
#include "tensor/gemm_microkernel.h"
#include "tensor/gemm_pack.h"
#include "tensor/im2col.h"
#include "tensor/ops.h"
#include "tensor/pool.h"
#include "tensor/shape.h"
#include "tensor/tensor.h"
#include "ymm_state.h"

namespace thali {
namespace {

TEST(Shape, BasicProperties) {
  Shape s({2, 3, 4});
  EXPECT_EQ(s.rank(), 3);
  EXPECT_EQ(s.dim(0), 2);
  EXPECT_EQ(s[2], 4);
  EXPECT_EQ(s.num_elements(), 24);
  EXPECT_EQ(s.ToString(), "[2, 3, 4]");
  EXPECT_EQ(Shape{}.num_elements(), 1);
}

TEST(Shape, Equality) {
  EXPECT_EQ(Shape({2, 3}), Shape({2, 3}));
  EXPECT_NE(Shape({2, 3}), Shape({3, 2}));
}

TEST(Tensor, ZeroInitialized) {
  Tensor t(Shape({3, 4}));
  EXPECT_EQ(t.size(), 12);
  for (int64_t i = 0; i < t.size(); ++i) EXPECT_EQ(t[i], 0.0f);
}

TEST(Tensor, FillReshapeResize) {
  Tensor t(Shape({2, 6}));
  t.Fill(3.5f);
  EXPECT_EQ(t[11], 3.5f);
  t.Reshape(Shape({3, 4}));
  EXPECT_EQ(t.shape(), Shape({3, 4}));
  EXPECT_EQ(t[0], 3.5f);  // storage preserved
  t.Resize(Shape({5}));
  EXPECT_EQ(t.size(), 5);
  EXPECT_EQ(t[0], 0.0f);  // re-zeroed on size change
}

TEST(Tensor, ResizeFromDefaultAllocatesSingleElement) {
  // Regression: a default Tensor has a rank-0 shape (element product 1)
  // but no storage; Resize to a 1-element shape must still allocate.
  Tensor t;
  t.Resize(Shape({1}));
  EXPECT_EQ(t.size(), 1);
  t[0] = 2.0f;
  EXPECT_EQ(t[0], 2.0f);
}

TEST(Tensor, At4MatchesLinearIndex) {
  Tensor t(Shape({2, 3, 4, 5}));
  for (int64_t i = 0; i < t.size(); ++i) t[i] = static_cast<float>(i);
  EXPECT_EQ(t.at4(1, 2, 3, 4), static_cast<float>(1 * 60 + 2 * 20 + 3 * 5 + 4));
}

// Reference triple-loop GEMM for validation.
void NaiveGemm(bool ta, bool tb, int m, int n, int k, float alpha,
               const float* a, int lda, const float* b, int ldb, float beta,
               float* c, int ldc) {
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      double sum = 0;
      for (int p = 0; p < k; ++p) {
        const float av = ta ? a[p * lda + i] : a[i * lda + p];
        const float bv = tb ? b[j * ldb + p] : b[p * ldb + j];
        sum += static_cast<double>(av) * bv;
      }
      c[i * ldc + j] = alpha * static_cast<float>(sum) + beta * c[i * ldc + j];
    }
  }
}

// gtest prints a parameter without a PrintTo overload as its raw bytes,
// and gtest_discover_tests names each CTest case after that string. The
// two bytes after the flags used to be uninitialised padding, which gave
// the cases a different name in every build; `name_tag` fills them with
// the values the registered test names carry, so the names stay fixed.
struct GemmCase {
  bool ta, tb;
  unsigned char name_tag[2];
  int m, n, k;
  float alpha, beta;
};
static_assert(sizeof(GemmCase) == 24 && offsetof(GemmCase, m) == 4,
              "GemmCase must have no padding: its bytes name the tests");

class GemmSweep : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmSweep, MatchesNaive) {
  const GemmCase gc = GetParam();
  Rng rng(31 + gc.m + gc.n * 10 + gc.k * 100);
  const int a_rows = gc.ta ? gc.k : gc.m;
  const int a_cols = gc.ta ? gc.m : gc.k;
  const int b_rows = gc.tb ? gc.n : gc.k;
  const int b_cols = gc.tb ? gc.k : gc.n;

  std::vector<float> a(static_cast<size_t>(a_rows) * a_cols);
  std::vector<float> b(static_cast<size_t>(b_rows) * b_cols);
  std::vector<float> c(static_cast<size_t>(gc.m) * gc.n);
  for (auto& v : a) v = rng.NextGaussian();
  for (auto& v : b) v = rng.NextGaussian();
  for (auto& v : c) v = rng.NextGaussian();
  std::vector<float> expected = c;

  Gemm(gc.ta, gc.tb, gc.m, gc.n, gc.k, gc.alpha, a.data(), a_cols, b.data(),
       b_cols, gc.beta, c.data(), gc.n);
  NaiveGemm(gc.ta, gc.tb, gc.m, gc.n, gc.k, gc.alpha, a.data(), a_cols,
            b.data(), b_cols, gc.beta, expected.data(), gc.n);

  for (size_t i = 0; i < c.size(); ++i) {
    EXPECT_NEAR(c[i], expected[i], 1e-3f) << "at " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmSweep,
    ::testing::Values(
        GemmCase{false, false, {0x00, 0x00}, 1, 1, 1, 1.0f, 0.0f},
        GemmCase{false, false, {0x00, 0x00}, 7, 9, 5, 1.0f, 0.0f},
        GemmCase{false, false, {0x00, 0x00}, 16, 33, 64, 0.5f, 1.0f},
        GemmCase{false, false, {0x00, 0x00}, 65, 130, 129, 1.0f, 0.0f},
        GemmCase{true, false, {0x00, 0x6E}, 8, 12, 6, 1.0f, 1.0f},
        GemmCase{true, false, {0x00, 0x00}, 31, 17, 23, 2.0f, 0.0f},
        GemmCase{false, true, {0x01, 0x1B}, 9, 11, 13, 1.0f, 0.0f},
        GemmCase{false, true, {0x70, 0x00}, 24, 48, 36, 1.0f, 0.5f},
        GemmCase{true, true, {0x00, 0x00}, 5, 6, 7, 1.0f, 0.0f},
        GemmCase{false, false, {0x04, 0x00}, 3, 128, 200, 1.0f, 2.0f}));

TEST(Gemm, ZeroSizedDimensionsAreNoops) {
  float c[4] = {1, 2, 3, 4};
  Gemm(false, false, 0, 2, 3, 1.0f, nullptr, 3, nullptr, 2, 0.0f, c, 2);
  Gemm(false, false, 2, 2, 0, 1.0f, nullptr, 0, nullptr, 2, 1.0f, c, 2);
  EXPECT_EQ(c[0], 1.0f);  // k=0 with beta=1 leaves C untouched
}

// Every edge class of every kernel family the host runs, at the family's
// own tile geometry, on both B sources. For tiles of tile_m x tile_n,
// m = 2 * tile_m + mr (the last row tile has mr rows) and n = tile_n + nr
// (full tiles, then an nr-column edge) or n = nr; k = 300 spans two KC
// blocks, so a tile may only be finished after its last one. B holds
// exactly k*n floats and is read in place, so a read past a live column
// of the last row is an out-of-bounds read under ASan; its transposed copy
// goes through the packed strips. Every GEMM result must equal
// internal::GemmReference bitwise, with the bias + activation epilogue
// equal to the same family's separate passes, and the AVX-512 family
// must give the AVX2 family's bytes. Every entry of a vector family's
// table, and Gemm / GemmPrepackedOn over it, must return with the upper
// YMM and ZMM halves clean (tests/ymm_state.h).
TEST(GemmEdgeSweep, EveryEdgeClassOnPackedAndInPlaceB) {
  constexpr int64_t k = 300;
  static_assert(k > kGemmKC, "the sweep needs two k blocks");
  constexpr float alpha = 0.7f, beta = 0.5f;
  constexpr GemmActivation kActs[] = {
      GemmActivation::kNone, GemmActivation::kLeaky, GemmActivation::kRelu,
      GemmActivation::kMish};
  const std::vector<const GemmKernel*> families = RunnableGemmKernels();
  const bool has_avx2 =
      std::find(families.begin(), families.end(), Avx2GemmKernel()) !=
      families.end();
  for (const GemmKernel* family : families) {
    const GemmKernel& kernel = *family;
    const bool scalar = &kernel == &ScalarGemmKernel();
    // The scalar family's oracles (reference chain, activation passes)
    // are the forced-scalar ones.
    internal::SetScalarKernelsForTesting(scalar);
    const bool dispatched = &kernel == &SelectGemmKernel();
    const int tile_m = kernel.panels * kGemmMR;
    const int tile_n = kernel.strips * kGemmNR;
    for (int mr = 1; mr <= tile_m; ++mr) {
      const int64_t m = 2 * tile_m + mr;
      for (int nr = 1; nr <= tile_n; ++nr) {
        for (const int64_t n : {int64_t{tile_n} + nr, int64_t{nr}}) {
          SCOPED_TRACE(::testing::Message() << kernel.name << " m=" << m
                                            << " n=" << n << " mr=" << mr
                                            << " nr=" << nr);
          Rng rng(static_cast<uint64_t>(100 * mr + n));
          std::vector<float> a(static_cast<size_t>(m * k));
          std::vector<float> b(static_cast<size_t>(k * n));
          std::vector<float> bt(b.size());
          std::vector<float> c0(static_cast<size_t>(m * n));
          std::vector<float> bias(static_cast<size_t>(m));
          for (auto& v : a) v = rng.NextGaussian();
          for (auto& v : b) v = rng.NextGaussian();
          for (auto& v : c0) v = rng.NextGaussian();
          for (auto& v : bias) v = rng.NextGaussian();
          for (int64_t p = 0; p < k; ++p) {
            for (int64_t j = 0; j < n; ++j) {
              bt[static_cast<size_t>(j * k + p)] =
                  b[static_cast<size_t>(p * n + j)];
            }
          }
          const size_t bytes = c0.size() * sizeof(float);
          std::vector<float> ref;
          std::vector<float> c;

          if (dispatched) {
            ref = c0;
            internal::GemmReference(false, false, m, n, k, alpha, a.data(), k,
                                    b.data(), n, beta, ref.data(), n);
            for (const bool tb : {false, true}) {
              c = c0;
              EXPECT_FALSE(LeavesYmmUpperDirty([&] {
                Gemm(false, tb, m, n, k, alpha, a.data(), k,
                     tb ? bt.data() : b.data(), tb ? k : n, beta, c.data(),
                     n);
              })) << "Gemm tb=" << tb;
              EXPECT_EQ(std::memcmp(c.data(), ref.data(), bytes), 0)
                  << "Gemm tb=" << tb;
            }
          }

          std::vector<float> packed(
              static_cast<size_t>(GemmPackedWeightFloats(m, k)));
          GemmPackWeights(a.data(), m, k, packed.data());
          ref = c0;
          internal::GemmReference(false, false, m, n, k, 1.0f, a.data(), k,
                                  b.data(), n, beta, ref.data(), n);
          c = c0;
          EXPECT_FALSE(LeavesYmmUpperDirty([&] {
            internal::GemmPrepackedOn(kernel, m, n, k, packed.data(),
                                      b.data(), n, beta, c.data(), n);
          })) << "GemmPrepackedOn";
          EXPECT_EQ(std::memcmp(c.data(), ref.data(), bytes), 0)
              << "GemmPrepackedOn";

          // The epilogue: the reference, then the bias pass and the
          // activation pass of this family.
          const GemmEpilogue epilogue{bias.data(), kActs[(mr + nr) % 4]};
          for (int64_t i = 0; i < m; ++i) {
            for (int64_t j = 0; j < n; ++j) ref[i * n + j] += bias[i];
          }
          switch (epilogue.activation) {
            case GemmActivation::kNone:
              break;
            case GemmActivation::kLeaky:
              FastLeakyInPlace(ref.data(), m * n);
              break;
            case GemmActivation::kRelu:
              FastReluInPlace(ref.data(), m * n);
              break;
            case GemmActivation::kMish:
              FastMishInPlace(ref.data(), m * n);
              break;
          }
          c = c0;
          EXPECT_FALSE(LeavesYmmUpperDirty([&] {
            internal::GemmPrepackedOn(kernel, m, n, k, packed.data(),
                                      b.data(), n, beta, c.data(), n,
                                      &epilogue);
          })) << "GemmPrepackedOn + epilogue";
          EXPECT_EQ(std::memcmp(c.data(), ref.data(), bytes), 0)
              << "GemmPrepackedOn + epilogue "
              << static_cast<int>(epilogue.activation);
          if (&kernel == Avx512GemmKernel() && has_avx2) {
            std::vector<float> c2 = c0;
            internal::GemmPrepackedOn(*Avx2GemmKernel(), m, n, k,
                                      packed.data(), b.data(), n, beta,
                                      c2.data(), n, &epilogue);
            EXPECT_EQ(std::memcmp(c.data(), c2.data(), bytes), 0)
                << "AVX-512 vs AVX2 + epilogue";
          }

          // The table entries themselves, on the first k block of the
          // packed A (its panels sit kGemmKC deep): the edge of this class,
          // the full tile once B has its columns, and the finish.
          if (scalar) continue;
          c = c0;
          EXPECT_FALSE(LeavesYmmUpperDirty([&] {
            kernel.edge(kGemmKC, packed.data(), b.data(), n, kGemmNR,
                        c.data(), n, mr, nr);
          })) << "edge";
          EXPECT_FALSE(LeavesYmmUpperDirty([&] {
            kernel.finish(c.data(), n, mr, nr, bias.data(),
                          epilogue.activation);
          })) << "finish";
          if (n < tile_n) continue;
          EXPECT_FALSE(LeavesYmmUpperDirty([&] {
            kernel.tile(kGemmKC, packed.data(), b.data(), n, kGemmNR,
                        c.data(), n);
          })) << "tile";
        }
      }
    }
  }
  internal::SetScalarKernelsForTesting(false);
}

TEST(Im2Col, IdentityFor1x1) {
  // 1x1 kernel, stride 1, no pad: col matrix equals the image.
  const int c = 2, h = 3, w = 4;
  std::vector<float> im(static_cast<size_t>(c) * h * w);
  for (size_t i = 0; i < im.size(); ++i) im[i] = static_cast<float>(i);
  std::vector<float> col(im.size(), -1.0f);
  Im2ColStrided(im.data(), c, h, w, 1, 1, 0, col.data());
  EXPECT_EQ(im, col);
}

TEST(Im2Col, KnownValues3x3) {
  // 1 channel, 3x3 image, 3x3 kernel, pad 1: center row of the col matrix
  // (kh=1,kw=1) must be the image itself; corner rows carry zero padding.
  std::vector<float> im = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  std::vector<float> col(9 * 9);
  Im2ColStrided(im.data(), 1, 3, 3, 3, 1, 1, col.data());
  // Row 4 = (kh=1, kw=1): identity.
  for (int i = 0; i < 9; ++i) EXPECT_EQ(col[4 * 9 + i], im[static_cast<size_t>(i)]);
  // Row 0 = (kh=0, kw=0): top-left tap. Output (0,0) reads im(-1,-1) = 0.
  EXPECT_EQ(col[0], 0.0f);
  // Output (2,2) of row 0 reads im(1,1) = 5.
  EXPECT_EQ(col[8], 5.0f);
}

TEST(Im2Col, Col2ImIsAdjoint) {
  // <Col2Im(c), x> == <c, Im2ColStrided(x)> for random tensors: the
  // scatter-add must be the exact transpose of the gather.
  Rng rng(5);
  const int c = 3, h = 7, w = 6, k = 3, stride = 2, pad = 1;
  const int out_h = static_cast<int>(ConvOutSize(h, k, stride, pad));
  const int out_w = static_cast<int>(ConvOutSize(w, k, stride, pad));
  const size_t im_size = static_cast<size_t>(c) * h * w;
  const size_t col_size = static_cast<size_t>(c) * k * k * out_h * out_w;

  std::vector<float> x(im_size), cvec(col_size);
  for (auto& v : x) v = rng.NextGaussian();
  for (auto& v : cvec) v = rng.NextGaussian();

  std::vector<float> col_x(col_size, 0.0f);
  Im2ColStrided(x.data(), c, h, w, k, stride, pad, col_x.data());
  std::vector<float> im_c(im_size, 0.0f);
  Col2Im(cvec.data(), c, h, w, k, stride, pad, im_c.data());

  double lhs = 0, rhs = 0;
  for (size_t i = 0; i < im_size; ++i) lhs += static_cast<double>(im_c[i]) * x[i];
  for (size_t i = 0; i < col_size; ++i) rhs += static_cast<double>(cvec[i]) * col_x[i];
  EXPECT_NEAR(lhs, rhs, 1e-2);
}

TEST(Im2Col, ConvOutSize) {
  EXPECT_EQ(ConvOutSize(96, 3, 2, 1), 48);
  EXPECT_EQ(ConvOutSize(96, 3, 1, 1), 96);
  EXPECT_EQ(ConvOutSize(96, 1, 1, 0), 96);
  EXPECT_EQ(ConvOutSize(5, 3, 2, 0), 2);
}

TEST(Ops, AxpyScaleSums) {
  Tensor x(Shape({4}), {1, 2, 3, 4});
  Tensor y(Shape({4}), {10, 10, 10, 10});
  Axpy(2.0f, x, y);
  EXPECT_EQ(y[3], 18.0f);
  Scale(0.5f, y);
  EXPECT_EQ(y[0], 6.0f);
  EXPECT_FLOAT_EQ(Sum(x), 10.0f);
  EXPECT_FLOAT_EQ(Mean(x), 2.5f);
  EXPECT_FLOAT_EQ(MinValue(x), 1.0f);
  EXPECT_FLOAT_EQ(MaxValue(x), 4.0f);
  EXPECT_FLOAT_EQ(L2Norm(Tensor(Shape({2}), {3, 4})), 5.0f);
}

TEST(Ops, MaxAbsDiff) {
  Tensor a(Shape({3}), {1, 2, 3});
  Tensor b(Shape({3}), {1, 2.5f, 2});
  EXPECT_FLOAT_EQ(MaxAbsDiff(a, b), 1.0f);
}

TEST(Ops, SoftmaxNormalizesAndIsStable) {
  float x[3] = {1000.0f, 1001.0f, 1002.0f};  // would overflow naive exp
  float y[3];
  Softmax(x, 3, y);
  float sum = y[0] + y[1] + y[2];
  EXPECT_NEAR(sum, 1.0f, 1e-5f);
  EXPECT_GT(y[2], y[1]);
  EXPECT_GT(y[1], y[0]);
}

TEST(Ops, SigmoidKnownValues) {
  EXPECT_FLOAT_EQ(Sigmoid(0.0f), 0.5f);
  EXPECT_NEAR(Sigmoid(10.0f), 1.0f, 1e-4f);
  EXPECT_NEAR(Sigmoid(-10.0f), 0.0f, 1e-4f);
}

// ---- Max pool kernel (tensor/pool.h) ----

struct PoolCase {
  int64_t batch, channels, h, w;
  int size, stride, padding;  // padding -1: Darknet's size - 1
};

// The yolov4-thali pools at batch 1, then the edges of the geometry.
const PoolCase kPoolCases[] = {
    {1, 32, 24, 24, 2, 2, -1}, {1, 64, 12, 12, 2, 2, -1},
    {1, 128, 6, 6, 2, 2, -1},  {1, 64, 3, 3, 5, 1, -1},
    {1, 64, 3, 3, 9, 1, -1},   {1, 64, 3, 3, 13, 1, -1},
    // odd maps: a clipped last column / row
    {1, 3, 7, 5, 2, 2, -1},    {2, 2, 9, 7, 3, 2, -1},
    {1, 2, 5, 5, 3, 1, -1},    {1, 2, 11, 13, 3, 4, 2},
    // 1x1, 1xN, Nx1
    {1, 2, 1, 1, 2, 2, -1},    {1, 1, 1, 1, 5, 1, -1},
    {1, 2, 1, 9, 2, 2, -1},    {1, 2, 1, 9, 3, 1, -1},
    {1, 2, 9, 1, 2, 2, -1},
    // stride > size: taps between windows are never read
    {1, 2, 9, 9, 2, 3, -1},    {1, 2, 10, 7, 1, 3, -1},
    // padding = 0
    {1, 2, 8, 8, 2, 2, 0},     {1, 2, 7, 7, 3, 2, 0},
    {1, 2, 5, 5, 5, 1, 0},
    // size > map: every window is the whole plane
    {1, 3, 3, 3, 13, 1, -1},   {1, 2, 5, 5, 31, 1, -1},
    // padding > size: leading and trailing windows are empty
    {1, 2, 4, 4, 2, 2, 6},     {1, 2, 3, 5, 2, 1, 9},
    {1, 2, 3, 3, 5, 7, 16},  // the one live window is the whole plane
    // batch x channels > 1
    {3, 4, 6, 5, 3, 2, -1},
};

// Input values dense in ties: +0 and -0 in either order, NaN, +-inf and
// -FLT_MAX (never chosen), so the tie-break and the "nothing chosen"
// rule are exercised in every window.
float PoolInputValue(Rng& rng) {
  static const float kValues[] = {
      0.0f, -0.0f, 0.0f, -0.0f, 1.0f, -1.0f, 2.5f,
      std::numeric_limits<float>::quiet_NaN(),
      -std::numeric_limits<float>::infinity(),
      std::numeric_limits<float>::infinity(), -FLT_MAX, -FLT_MAX, FLT_MAX};
  return kValues[rng.NextInt(0, static_cast<int>(std::size(kValues)) - 1)];
}

// Fills planes with PoolInputValue, except that one plane in three is
// uniform: all -FLT_MAX, all NaN, or all -inf (an fp32 window that
// chooses nothing writes 0.0f).
std::vector<float> PoolInput(const PoolCase& pc, uint64_t seed) {
  Rng rng(seed);
  const int64_t plane = pc.h * pc.w;
  std::vector<float> in(static_cast<size_t>(pc.batch * pc.channels * plane));
  for (int64_t p = 0; p < pc.batch * pc.channels; ++p) {
    float* d = in.data() + p * plane;
    switch (p % 6) {
      case 1:
        std::fill(d, d + plane, -FLT_MAX);
        break;
      case 3:
        std::fill(d, d + plane, std::numeric_limits<float>::quiet_NaN());
        break;
      case 5:
        std::fill(d, d + plane, -std::numeric_limits<float>::infinity());
        break;
      default:
        for (int64_t i = 0; i < plane; ++i) d[i] = PoolInputValue(rng);
    }
  }
  return in;
}

// A one-layer network holding the case's pool in `mode`.
std::unique_ptr<Network> PoolNet(const PoolCase& pc, ExecMode mode) {
  auto net = std::make_unique<Network>(static_cast<int>(pc.w),
                                       static_cast<int>(pc.h),
                                       static_cast<int>(pc.channels),
                                       static_cast<int>(pc.batch));
  net->Add(std::make_unique<MaxPoolLayer>(
      MaxPoolLayer::Options{pc.size, pc.stride, pc.padding}));
  THALI_CHECK_OK(net->Finalize(mode));
  return net;
}

// The clipped windows MaxPoolLayer::Configure derives for this case.
PoolGeometry PoolCaseGeometry(const PoolCase& pc) {
  auto net = PoolNet(pc, ExecMode::kInference);
  return static_cast<const MaxPoolLayer&>(net->layer(0)).geometry();
}

// The kernel on exact-size buffers, so ASan sees any over-read or
// over-write of the input, the scratch or the output.
std::vector<float> KernelPoolF32(const PoolGeometry& g,
                                 const std::vector<float>& in,
                                 int64_t planes) {
  std::vector<float> rows(static_cast<size_t>(MaxPoolScratch(g)));
  std::vector<float> out(static_cast<size_t>(planes * g.y.out * g.x.out));
  MaxPoolF32(g, in.data(), planes, rows.data(), out.data());
  return out;
}

std::vector<uint8_t> KernelPoolU8(const PoolGeometry& g,
                                  const std::vector<uint8_t>& in,
                                  int64_t planes, uint8_t zp) {
  std::vector<uint8_t> rows(static_cast<size_t>(MaxPoolScratch(g)));
  std::vector<uint8_t> out(static_cast<size_t>(planes * g.y.out * g.x.out));
  MaxPoolU8(g, in.data(), planes, zp, rows.data(), out.data());
  return out;
}

// The u8 oracle: the quantize-once chain's loop MaxPoolLayer::Forward
// ran before the separable kernel.
std::vector<uint8_t> ReferencePoolU8(const std::vector<uint8_t>& in,
                                     int64_t planes, int64_t ih, int64_t iw,
                                     int64_t oh, int64_t ow, int size,
                                     int stride, int padding, uint8_t zp) {
  const int64_t offset = -padding / 2;
  std::vector<uint8_t> out(static_cast<size_t>(planes * oh * ow));
  int64_t qi = 0;
  for (int64_t p = 0; p < planes; ++p) {
    const uint8_t* plane = in.data() + p * ih * iw;
    for (int64_t y = 0; y < oh; ++y) {
      for (int64_t x = 0; x < ow; ++x, ++qi) {
        int best = -1;
        for (int64_t ky = 0; ky < size; ++ky) {
          const int64_t sy = y * stride + offset + ky;
          if (sy < 0 || sy >= ih) continue;
          for (int64_t kx = 0; kx < size; ++kx) {
            const int64_t sx = x * stride + offset + kx;
            if (sx < 0 || sx >= iw) continue;
            const int v = plane[sy * iw + sx];
            if (v > best) best = v;
          }
        }
        out[static_cast<size_t>(qi)] =
            best >= 0 ? static_cast<uint8_t>(best) : zp;
      }
    }
  }
  return out;
}

TEST(MaxPoolKernel, AxisRangesMatchTheirDefinition) {
  for (int64_t in = 1; in <= 9; ++in) {
    for (int64_t size = 1; size <= 12; ++size) {
      for (int64_t stride = 1; stride <= 4; ++stride) {
        for (int64_t padding = 0; padding <= 14; ++padding) {
          const int64_t out = (in + padding - size) / stride + 1;
          if (out <= 0) continue;
          const PoolAxis a =
              MakePoolAxis(in, out, size, stride, -padding / 2);
          SCOPED_TRACE(testing::Message() << "in=" << in << " size=" << size
                                          << " stride=" << stride
                                          << " padding=" << padding);
          ASSERT_LE(a.live0, a.full0);
          ASSERT_LE(a.full0, a.full1);
          ASSERT_LE(a.full1, a.live1);
          for (int64_t i = 0; i < out; ++i) {
            const int64_t start = i * stride - padding / 2;
            const bool live = start + size > 0 && start < in;
            const bool full = start >= 0 && start + size <= in;
            EXPECT_EQ(live, i >= a.live0 && i < a.live1) << "i=" << i;
            if (a.full1 > a.full0) {
              EXPECT_EQ(full, i >= a.full0 && i < a.full1) << "i=" << i;
            } else {
              EXPECT_FALSE(full) << "i=" << i;
            }
            if (live) {
              EXPECT_EQ(a.Lo(i), std::max<int64_t>(start, 0));
              EXPECT_EQ(a.Hi(i), std::min(start + size, in));
            }
          }
        }
      }
    }
  }
}

TEST(MaxPoolKernel, F32MatchesTrainingLayerBitwise) {
  for (const PoolCase& pc : kPoolCases) {
    SCOPED_TRACE(testing::Message()
                 << pc.batch << "x" << pc.channels << "x" << pc.h << "x"
                 << pc.w << " size=" << pc.size << " stride=" << pc.stride
                 << " padding=" << pc.padding);
    const std::vector<float> in = PoolInput(pc, 17);
    auto train = PoolNet(pc, ExecMode::kTraining);
    const Tensor& want = train->Forward(
        Tensor(Shape({pc.batch, pc.channels, pc.h, pc.w}), in), false);
    const std::vector<float> got =
        KernelPoolF32(PoolCaseGeometry(pc), in, pc.batch * pc.channels);
    ASSERT_EQ(static_cast<int64_t>(got.size()), want.size());
    // memcmp, not ==: +0 and -0 must come out as the oracle chose them.
    EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * 4), 0);
  }
}

TEST(MaxPoolKernel, InferenceLayerMatchesTrainingLayerBitwise) {
  for (const PoolCase& pc : kPoolCases) {
    SCOPED_TRACE(testing::Message()
                 << pc.batch << "x" << pc.channels << "x" << pc.h << "x"
                 << pc.w << " size=" << pc.size << " stride=" << pc.stride
                 << " padding=" << pc.padding);
    const Tensor input(Shape({pc.batch, pc.channels, pc.h, pc.w}),
                       PoolInput(pc, 29));
    auto train = PoolNet(pc, ExecMode::kTraining);
    auto infer = PoolNet(pc, ExecMode::kInference);
    const Tensor& want = train->Forward(input, false);
    const Tensor& got = infer->Forward(input, false);
    ASSERT_EQ(got.shape(), want.shape());
    EXPECT_EQ(std::memcmp(got.data(), want.data(),
                          static_cast<size_t>(got.size()) * 4),
              0);
  }
}

TEST(MaxPoolKernel, U8MatchesReferenceLoop) {
  const uint8_t zp = 37;
  for (const PoolCase& pc : kPoolCases) {
    SCOPED_TRACE(testing::Message()
                 << pc.batch << "x" << pc.channels << "x" << pc.h << "x"
                 << pc.w << " size=" << pc.size << " stride=" << pc.stride
                 << " padding=" << pc.padding);
    const int64_t padding = pc.padding < 0 ? pc.size - 1 : pc.padding;
    const int64_t oh = (pc.h + padding - pc.size) / pc.stride + 1;
    const int64_t ow = (pc.w + padding - pc.size) / pc.stride + 1;
    const int64_t planes = pc.batch * pc.channels;
    Rng rng(41);
    // Few distinct bytes (0 included), so windows tie often.
    std::vector<uint8_t> in(static_cast<size_t>(planes * pc.h * pc.w));
    for (auto& v : in) v = static_cast<uint8_t>(rng.NextInt(0, 4) * 31);
    const std::vector<uint8_t> want =
        ReferencePoolU8(in, planes, pc.h, pc.w, oh, ow, pc.size, pc.stride,
                        static_cast<int>(padding), zp);
    EXPECT_EQ(KernelPoolU8(PoolCaseGeometry(pc), in, planes, zp), want);
  }
}

TEST(MaxPoolKernel, RowsFoldBeforeColumnsToKeepRasterTieBreak) {
  // One 2x2 window [[-1, +0], [-0, -1]]: raster order meets +0 first and
  // keeps it (-0 is not strictly greater). Folding columns first would
  // meet -0 first and keep that.
  const PoolGeometry g = PoolCaseGeometry({1, 1, 2, 2, 2, 2, 0});
  EXPECT_FALSE(std::signbit(KernelPoolF32(g, {-1.0f, 0.0f, -0.0f, -1.0f},
                                          1)[0]));
  EXPECT_TRUE(std::signbit(KernelPoolF32(g, {-1.0f, -0.0f, 0.0f, -1.0f},
                                         1)[0]));
  // A NaN tap is never chosen; a window of nothing but NaN, -inf and
  // -FLT_MAX writes 0.0f.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(KernelPoolF32(g, {nan, -3.0f, nan, -7.0f}, 1)[0], -3.0f);
  const float nothing = KernelPoolF32(g, {nan, -inf, -FLT_MAX, nan}, 1)[0];
  EXPECT_EQ(nothing, 0.0f);
  EXPECT_FALSE(std::signbit(nothing));
}

TEST(MaxPoolKernel, HugeWindowCostsOnlyItsClippedSpan) {
  // size = INT_MAX (Darknet padding size - 1) clips every window to the
  // whole 3x5 plane, as size 11 does; the loops must not walk the
  // unclipped window, which would take 2^31 steps per row.
  const PoolCase huge{1, 6, 3, 5, INT_MAX, 1, -1};
  const PoolCase whole{1, 6, 3, 5, 11, 1, -1};
  const std::vector<float> in = PoolInput(whole, 5);
  auto train = PoolNet(whole, ExecMode::kTraining);
  const Tensor& want =
      train->Forward(Tensor(Shape({1, 6, 3, 5}), in), false);
  ASSERT_EQ(want.shape(), Shape({1, 6, 3, 5}));
  const std::vector<float> got =
      KernelPoolF32(PoolCaseGeometry(huge), in, 6);
  EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * 4), 0);
}

}  // namespace
}  // namespace thali
