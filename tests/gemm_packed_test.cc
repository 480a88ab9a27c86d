// Conformance tests for the packed GEMM driver (tensor/gemm.cc) against
// the unpacked reference kernels of the dispatched family
// (internal::GemmReference): by the determinism contract in
// gemm_microkernel.h the two must agree bitwise, for every transpose
// combination, adversarial shape and alpha/beta edge case.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "base/cpu_features.h"
#include "base/rng.h"
#include "base/thread_pool.h"
#include "image/image_prepost.h"
#include "tensor/act_kernels.h"
#include "tensor/gemm.h"
#include "tensor/gemm_int8.h"
#include "tensor/gemm_microkernel.h"
#include "tensor/gemm_pack.h"

namespace thali {
namespace {

std::vector<float> RandomVec(int64_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(static_cast<size_t>(n));
  for (auto& x : v) x = rng.NextGaussian();
  return v;
}

// Restores dispatch and parallelism after every test.
class GemmPackedTest : public ::testing::Test {
 protected:
  void TearDown() override {
    internal::SetScalarKernelsForTesting(false);
    SetMaxParallelism(1);
  }
};

void ExpectPackedMatchesReference(bool ta, bool tb, int64_t m, int64_t n,
                                  int64_t k, float alpha, float beta) {
  const auto a = RandomVec((ta ? k * m : m * k) + (k == 0 ? 1 : 0), 11);
  const auto b = RandomVec((tb ? n * k : k * n) + (k == 0 ? 1 : 0), 22);
  const auto c0 = RandomVec(m * n, 33);
  const int64_t lda = ta ? m : k;
  const int64_t ldb = tb ? k : n;

  std::vector<float> c_packed = c0;
  Gemm(ta, tb, m, n, k, alpha, a.data(), lda, b.data(), ldb, beta,
       c_packed.data(), n);

  std::vector<float> c_ref = c0;
  internal::GemmReference(ta, tb, m, n, k, alpha, a.data(), lda, b.data(),
                          ldb, beta, c_ref.data(), n);

  EXPECT_EQ(
      std::memcmp(c_packed.data(), c_ref.data(), c_packed.size() * sizeof(float)),
      0)
      << "ta=" << ta << " tb=" << tb << " m=" << m << " n=" << n << " k=" << k
      << " alpha=" << alpha << " beta=" << beta;
}

// The fp32 GEMM family this host should dispatch to: the widest one
// whose ISA the CPU reports.
const char* WidestGemmFamily() {
  const CpuFeatures& cpu = CpuInfo();
  if (Avx512GemmKernel() != nullptr && cpu.avx512f && cpu.fma) {
    return "avx512-fma-12x32";
  }
  if (Avx2GemmKernel() != nullptr && cpu.avx2 && cpu.fma) {
    return "avx2-fma-6x16";
  }
  return "scalar-6x16";
}

struct ShapeCase {
  int64_t m, n, k;
};

// Adversarial sizes: unit dims, tile edges (MR=6, NR=16) +/- 1, primes,
// and k straddling the KC=256 cache block.
constexpr ShapeCase kShapes[] = {
    {1, 1, 1},   {5, 17, 3},   {6, 16, 64},  {7, 15, 37},
    {12, 33, 1}, {37, 61, 67}, {1, 16, 259}, {61, 2, 2},
};

constexpr struct {
  float alpha, beta;
} kAlphaBeta[] = {
    {1.0f, 0.0f},  {1.0f, 1.0f},  {0.0f, 0.5f},
    {0.7f, -0.3f}, {2.0f, 0.5f},
};

TEST_F(GemmPackedTest, MatchesReferenceOnAllTransposesAndEdges) {
  for (const auto& s : kShapes) {
    for (const auto& ab : kAlphaBeta) {
      for (const bool ta : {false, true}) {
        for (const bool tb : {false, true}) {
          ExpectPackedMatchesReference(ta, tb, s.m, s.n, s.k, ab.alpha,
                                       ab.beta);
        }
      }
    }
  }
}

TEST_F(GemmPackedTest, MatchesReferenceOnCacheBlockStraddlers) {
  // m straddles MC=120, n straddles NC=512, k straddles KC=256.
  ExpectPackedMatchesReference(false, false, 131, 531, 307, 1.0f, 0.0f);
  ExpectPackedMatchesReference(false, true, 121, 513, 259, 0.7f, 1.0f);
  ExpectPackedMatchesReference(true, false, 126, 520, 257, 1.0f, 0.5f);
}

TEST_F(GemmPackedTest, DegenerateAlphaZeroBetaOneLeavesCUntouched) {
  const auto a = RandomVec(6 * 8, 1);
  const auto b = RandomVec(8 * 10, 2);
  const auto c0 = RandomVec(6 * 10, 3);
  std::vector<float> c = c0;
  Gemm(false, false, 6, 10, 8, 0.0f, a.data(), 8, b.data(), 10, 1.0f,
       c.data(), 10);
  EXPECT_EQ(std::memcmp(c.data(), c0.data(), c.size() * sizeof(float)), 0);
}

TEST_F(GemmPackedTest, KZeroOnlyScalesByBeta) {
  const float dummy = 0.0f;
  const auto c0 = RandomVec(7 * 9, 4);
  std::vector<float> c = c0;
  Gemm(false, false, 7, 9, 0, 1.0f, &dummy, 1, &dummy, 9, 0.5f, c.data(), 9);
  for (size_t i = 0; i < c.size(); ++i) {
    EXPECT_EQ(c[i], c0[i] * 0.5f) << i;
  }
}

// The fused epilogue against the conv layer's separate passes (bias,
// then leaky/ReLU by the layer's formulas or mish through
// FastMishInPlace), on the dispatched family and on the scalar family,
// at k in one KC block and over two. Rows 3 and 17 feed the epilogue
// chosen values: their A row is -0 and B is positive, so with beta = 1
// and a -0 bias each such element is exactly its C0 value — values on
// mish's saturated branch (x >= 20), ±0, ±inf and NaN.
TEST_F(GemmPackedTest, PrepackedWithEpilogueMatchesSeparatePasses) {
  const std::vector<float> kSpecial = {
      20.0f,   19.999998f, 20.5f, 88.0f, 88.8f,   1e30f,
      0.0f,    -0.0f,      0.5f,  -0.5f, -20.0f,  -87.5f,
      -100.0f, 1e-40f,     -1e-40f,
      std::numeric_limits<float>::infinity(),
      -std::numeric_limits<float>::infinity(),
      std::numeric_limits<float>::quiet_NaN(),
      -std::numeric_limits<float>::quiet_NaN()};
  const int64_t m = 19, n = 333;  // ragged on every tile boundary
  const int64_t special_rows[] = {3, 17};
  for (const bool scalar : {false, true}) {
    internal::SetScalarKernelsForTesting(scalar);
    for (const int64_t k : {int64_t{75}, kGemmKC + 44}) {
      auto a = RandomVec(m * k, 5);
      auto b = RandomVec(k * n, 6);
      for (auto& v : b) v = std::fabs(v) + 0.125f;
      auto bias = RandomVec(m, 7);
      auto c0 = RandomVec(m * n, 8);
      for (const int64_t r : special_rows) {
        std::fill(a.begin() + r * k, a.begin() + (r + 1) * k, -0.0f);
        bias[static_cast<size_t>(r)] = -0.0f;
        for (int64_t j = 0; j < n; ++j) {
          c0[static_cast<size_t>(r * n + j)] =
              kSpecial[static_cast<size_t>(j) % kSpecial.size()];
        }
      }
      std::vector<float> packed(
          static_cast<size_t>(GemmPackedWeightFloats(m, k)));
      GemmPackWeights(a.data(), m, k, packed.data());

      for (const GemmActivation act :
           {GemmActivation::kNone, GemmActivation::kLeaky,
            GemmActivation::kRelu, GemmActivation::kMish}) {
        GemmEpilogue epilogue;
        epilogue.bias = bias.data();
        epilogue.activation = act;
        std::vector<float> c_fused = c0;
        GemmPrepacked(m, n, k, packed.data(), b.data(), n, 1.0f,
                      c_fused.data(), n, &epilogue);

        // Staged: plain GEMM, then the conv layer's bias and activation
        // passes, op for op.
        std::vector<float> c_staged = c0;
        Gemm(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n, 1.0f,
             c_staged.data(), n);
        for (int64_t i = 0; i < m; ++i) {
          float* ci = c_staged.data() + i * n;
          const float bi = bias[static_cast<size_t>(i)];
          for (int64_t j = 0; j < n; ++j) ci[j] += bi;
        }
        for (const int64_t r : special_rows) {
          ASSERT_EQ(std::memcmp(c_staged.data() + r * n, c0.data() + r * n,
                                n * sizeof(float)),
                    0)
              << "row " << r << " does not carry its chosen values";
        }
        if (act == GemmActivation::kMish) {
          FastMishInPlace(c_staged.data(), m * n);
        }
        for (auto& x : c_staged) {
          if (act == GemmActivation::kLeaky) x = x > 0 ? x : 0.1f * x;
          if (act == GemmActivation::kRelu) x = x > 0 ? x : 0.0f;
        }
        EXPECT_EQ(std::memcmp(c_fused.data(), c_staged.data(),
                              c_fused.size() * sizeof(float)),
                  0)
            << GemmKernelName() << " k=" << k << " activation "
            << static_cast<int>(act);
      }
    }
  }
}

TEST_F(GemmPackedTest, PrepackedMatchesPlainGemmAcrossThreadCounts) {
  const int64_t m = 32, n = 170, k = 288;
  const auto a = RandomVec(m * k, 8);
  const auto b = RandomVec(k * n, 9);
  std::vector<float> packed(static_cast<size_t>(GemmPackedWeightFloats(m, k)));
  GemmPackWeights(a.data(), m, k, packed.data());

  std::vector<float> base(static_cast<size_t>(m * n), 0.0f);
  Gemm(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f,
       base.data(), n);
  for (const int threads : {1, 2, 4}) {
    SetMaxParallelism(threads);
    std::vector<float> c(static_cast<size_t>(m * n), 0.0f);
    GemmPrepacked(m, n, k, packed.data(), b.data(), n, 0.0f, c.data(), n);
    EXPECT_EQ(std::memcmp(c.data(), base.data(), c.size() * sizeof(float)), 0)
        << threads << " threads";
  }
}

TEST_F(GemmPackedTest, DispatchPicksTheWidestFamilyTheCpuRuns) {
  const char* want = WidestGemmFamily();
  EXPECT_STREQ(GemmKernelName(), want);
  EXPECT_EQ(SelectGemmKernel().fused, std::strcmp(want, "scalar-6x16") != 0);
}

TEST_F(GemmPackedTest, ForcedScalarFamilyIsSelfConsistent) {
  internal::SetScalarKernelsForTesting(true);
  EXPECT_STREQ(GemmKernelName(), "scalar-6x16");
  ExpectPackedMatchesReference(false, false, 23, 45, 130, 1.0f, 0.0f);
  ExpectPackedMatchesReference(true, true, 17, 29, 31, 0.7f, 1.0f);
  internal::SetScalarKernelsForTesting(false);
}

TEST_F(GemmPackedTest, ScalarSwitchMovesEveryKernelFamilyAtOnce) {
  // One switch forces all four SIMD families scalar, and releasing it
  // brings back exactly what each family's own capability test detects.
  const CpuFeatures& cpu = CpuInfo();
  const bool avx2_fma = cpu.avx2 && cpu.fma;
  const auto detected = [&] {
    EXPECT_STREQ(GemmKernelName(), WidestGemmFamily());
    EXPECT_STREQ(SelectInt8GemmKernel().name,
                 Avx2Int8GemmKernel() != nullptr && cpu.avx2
                     ? "avx2-ubsw-6x8"
                     : "scalar-int8");
    EXPECT_STREQ(ActKernelName(), avx2_fma ? "avx2-act" : "scalar-act");
    EXPECT_STREQ(ResizeKernelName(),
                 avx2_fma ? "avx2-resize" : "scalar-resize");
  };
  detected();
  internal::SetScalarKernelsForTesting(true);
  EXPECT_STREQ(GemmKernelName(), "scalar-6x16");
  EXPECT_STREQ(SelectInt8GemmKernel().name, "scalar-int8");
  EXPECT_STREQ(ActKernelName(), "scalar-act");
  EXPECT_STREQ(ResizeKernelName(), "scalar-resize");
  internal::SetScalarKernelsForTesting(false);
  detected();
}

TEST_F(GemmPackedTest, PackedWeightLayoutRoundTrips) {
  // Spot-check the blob layout contract: block pc at pc*padded_m, tile t
  // at t*MR*kcb inside it, element (p, r) at p*MR + r.
  const int64_t m = 8, k = 300;  // 2 row tiles, 2 KC blocks
  const auto a = RandomVec(m * k, 15);
  std::vector<float> packed(static_cast<size_t>(GemmPackedWeightFloats(m, k)));
  GemmPackWeights(a.data(), m, k, packed.data());
  const int64_t padded_m = GemmPackedRowTiles(m) * kGemmMR;
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t p = 0; p < k; ++p) {
      const int64_t pc = (p / kGemmKC) * kGemmKC;
      const int64_t kcb = std::min(kGemmKC, k - pc);
      const int64_t t = i / kGemmMR;
      const float got = packed[static_cast<size_t>(
          pc * padded_m + t * kGemmMR * kcb + (p - pc) * kGemmMR +
          (i % kGemmMR))];
      ASSERT_EQ(got, a[static_cast<size_t>(i * k + p)])
          << "i=" << i << " p=" << p;
    }
  }
}

}  // namespace
}  // namespace thali
