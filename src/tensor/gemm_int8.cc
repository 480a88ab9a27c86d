#include "tensor/gemm_int8.h"

#include <algorithm>
#include <cmath>

#include "base/cpu_features.h"
#include "base/logging.h"
#include "tensor/act_kernels_impl.h"

namespace thali {

namespace {

// Round to nearest, ties to even, saturating (see kInt8RoundLimit).
// The float clamp keeps SSE maxps/minps operand order, so NaN becomes
// the lower limit here exactly as in the AVX2 epilogue; inside the
// limits lrintf is identical to SSE cvtps2dq in the default rounding
// mode, so the two families agree bit for bit.
inline int32_t RoundNearestEven(float v) {
  v = v > -kInt8RoundLimit ? v : -kInt8RoundLimit;
  v = v < kInt8RoundLimit ? v : kInt8RoundLimit;
  return static_cast<int32_t>(std::lrintf(v));
}

// Scalar reference family. Walks the exact packed panel layout the AVX2
// kernel consumes; plain i32 sums, so (with the saturation-free 7-bit
// activation bound) the two families agree bit for bit.
void AccumulateScalar(int64_t m, int64_t n, int64_t kp, const int8_t* qw,
                      const uint8_t* packed, int32_t* acc) {
  const int64_t nfull = n / 8;
  const int64_t ntail = n - nfull * 8;
  const uint8_t* tails = packed + nfull * kp * 8;
  for (int64_t i = 0; i < m; ++i) {
    const int8_t* w = qw + i * kp;
    int32_t* ai = acc + i * n;
    for (int64_t u = 0; u < nfull; ++u) {
      const uint8_t* strip = packed + u * kp * 8;
      for (int64_t l = 0; l < 8; ++l) {
        int32_t sum = 0;
        for (int64_t p = 0; p < kp; ++p) {
          sum += static_cast<int32_t>(w[p]) *
                 static_cast<int32_t>(strip[(p >> 2) * 32 + l * 4 + (p & 3)]);
        }
        ai[u * 8 + l] = sum;
      }
    }
    for (int64_t t = 0; t < ntail; ++t) {
      const uint8_t* col = tails + t * kp;
      int32_t sum = 0;
      for (int64_t p = 0; p < kp; ++p) {
        sum += static_cast<int32_t>(w[p]) * static_cast<int32_t>(col[p]);
      }
      ai[nfull * 8 + t] = sum;
    }
  }
}

void PackScalar(const uint8_t* qcol, int64_t k, int64_t n, uint8_t* packed) {
  Int8PackActEdges(qcol, k, n, /*p0=*/0, packed);
}

// The reference quantizer every family matches bit for bit.
void QuantizeScalar(const float* x, int64_t count, float inv_scale,
                    int32_t zp, uint8_t* u) {
  for (int64_t i = 0; i < count; ++i) {
    const int32_t v = RoundNearestEven(x[i] * inv_scale) + zp;
    u[i] = static_cast<uint8_t>(std::clamp(v, 0, 127));
  }
}

}  // namespace

void Int8QuantizeWeights(const float* w, int64_t m, int64_t k, int8_t* qw,
                         float* scale, int32_t* colsum) {
  const int64_t kp = Int8PackedK(k);
  for (int64_t f = 0; f < m; ++f) {
    const float* row = w + f * k;
    float maxabs = 0.0f;
    for (int64_t p = 0; p < k; ++p) {
      maxabs = std::max(maxabs, std::fabs(row[p]));
    }
    const float s = maxabs > 0.0f ? maxabs / 127.0f : 1.0f;
    const float inv = 1.0f / s;
    int8_t* q = qw + f * kp;
    int32_t sum = 0;
    for (int64_t p = 0; p < k; ++p) {
      const int32_t v =
          std::clamp(RoundNearestEven(row[p] * inv), -127, 127);
      q[p] = static_cast<int8_t>(v);
      sum += v;
    }
    for (int64_t p = k; p < kp; ++p) q[p] = 0;
    scale[f] = s;
    colsum[f] = sum;
  }
}

void Int8RangeToScaleZp(float range_min, float range_max, float* scale,
                        int32_t* zp) {
  // Widen to include 0 so conv zero padding quantizes exactly to zp.
  const float lo = std::min(range_min, 0.0f);
  const float hi = std::max(range_max, 0.0f);
  const float s = std::max((hi - lo) / 127.0f, 1e-8f);
  *scale = s;
  *zp = std::clamp(RoundNearestEven(-lo / s), 0, 127);
}

void Int8QuantizeActivations(const float* x, int64_t count, float inv_scale,
                             int32_t zp, uint8_t* u) {
  SelectInt8GemmKernel().quantize(x, count, inv_scale, zp, u);
}

void Int8PackActEdges(const uint8_t* qcol, int64_t k, int64_t n, int64_t p0,
                      uint8_t* packed) {
  const int64_t kp = Int8PackedK(k);
  const int64_t nfull = n / 8;
  const int64_t ntail = n - nfull * 8;
  for (int64_t u = 0; u < nfull; ++u) {
    uint8_t* strip = packed + u * kp * 8;
    const uint8_t* src = qcol + u * 8;
    for (int64_t p = p0; p < k; ++p) {
      uint8_t* quad = strip + (p >> 2) * 32 + (p & 3);
      const uint8_t* row = src + p * n;
      for (int64_t l = 0; l < 8; ++l) quad[l * 4] = row[l];
    }
    for (int64_t p = std::max(p0, k); p < kp; ++p) {
      uint8_t* quad = strip + (p >> 2) * 32 + (p & 3);
      for (int64_t l = 0; l < 8; ++l) quad[l * 4] = 0;
    }
  }
  uint8_t* tails = packed + nfull * kp * 8;
  for (int64_t t = 0; t < ntail; ++t) {
    uint8_t* col = tails + t * kp;
    const int64_t j = nfull * 8 + t;
    for (int64_t p = 0; p < k; ++p) col[p] = qcol[p * n + j];
    for (int64_t p = k; p < kp; ++p) col[p] = 0;
  }
}

void Int8PackActCols(const uint8_t* qcol, int64_t k, int64_t n,
                     uint8_t* packed) {
  SelectInt8GemmKernel().pack(qcol, k, n, packed);
}

namespace {

// Scalar reference epilogue. The AVX2 version in gemm_int8_avx2.cc
// repeats this exact elementwise float sequence with 8-lane ops (no
// FMA; mish through the shared FastMish family), so the two are
// bit-identical — asserted by the epilogue conformance test.
void EpilogueScalar(const Int8Epilogue& e, int64_t m, int64_t n,
                    const int32_t* acc, float* c, int64_t ldc) {
  const bool u8_out = e.out_u8 != nullptr;
  for (int64_t i = 0; i < m; ++i) {
    const int32_t* ai = acc + i * n;
    const float s = e.in_scale * e.wscale[i];
    const int32_t comp = e.in_zp * e.wcolsum[i];
    const float bias = e.bias != nullptr ? e.bias[i] : 0.0f;
    for (int64_t j = 0; j < n; ++j) {
      float v = static_cast<float>(ai[j] - comp) * s + bias;
      switch (e.activation) {
        case GemmActivation::kLeaky:
          v = v > 0 ? v : 0.1f * v;
          break;
        case GemmActivation::kRelu:
          v = v > 0 ? v : 0.0f;
          break;
        case GemmActivation::kMish:
          v = act_detail::FastMish(v);
          break;
        default:
          break;  // kNone
      }
      if (u8_out) {
        // Requantize into the consumer domain — the exact
        // Int8QuantizeActivations formula, element for element.
        const int32_t q = RoundNearestEven(v * e.out_inv_scale) + e.out_zp;
        e.out_u8[i * ldc + j] = static_cast<uint8_t>(std::clamp(q, 0, 127));
      } else {
        c[i * ldc + j] = v;
      }
    }
  }
}

const Int8GemmKernel kScalarInt8Kernel = {"scalar-int8", AccumulateScalar,
                                          PackScalar, QuantizeScalar,
                                          EpilogueScalar};

}  // namespace

const Int8GemmKernel& ScalarInt8GemmKernel() { return kScalarInt8Kernel; }

const Int8GemmKernel& SelectInt8GemmKernel() {
  static const Int8GemmKernel* const detected = [] {
    const Int8GemmKernel* avx2 = Avx2Int8GemmKernel();
    if (avx2 != nullptr && CpuInfo().avx2) return avx2;
    return &kScalarInt8Kernel;
  }();
  return SimdKernelsAllowed() ? *detected : kScalarInt8Kernel;
}

void Int8GemmPrepacked(int64_t m, int64_t n, int64_t k, const int8_t* qw,
                       const uint8_t* packed, const Int8Epilogue& e, float* c,
                       int64_t ldc, int32_t* acc) {
  THALI_CHECK_GT(m, 0);
  THALI_CHECK_GT(n, 0);
  THALI_CHECK_GT(k, 0);
  const Int8GemmKernel& kernel = SelectInt8GemmKernel();
  const int64_t kp = Int8PackedK(k);
  kernel.accumulate(m, n, kp, qw, packed, acc);
  kernel.epilogue(e, m, n, acc, c, ldc);
}

}  // namespace thali
