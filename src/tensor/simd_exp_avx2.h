#ifndef THALI_TENSOR_SIMD_EXP_AVX2_H_
#define THALI_TENSOR_SIMD_EXP_AVX2_H_

// 8-lane FastExp / FastMish and activation bodies shared by the AVX2 TUs
// (act_kernels_avx2.cc, gemm_int8_avx2.cc and gemm_microkernel_avx2.cc,
// all built with per-file -mavx2 -mfma). Each vector op mirrors the
// scalar formulas in act_kernels_impl.h operation for operation — same op
// order, same rounding mode, multiply+add (never fmadd) — so a lane's
// result is bitwise identical to act_detail::FastExp / FastMish. Keeping
// one definition here is what lets the int8 requantize epilogue, the
// fp32 GEMM's tile finish and the standalone activation pass agree bit
// for bit.

#if defined(__AVX2__)

#include <immintrin.h>

#include "tensor/act_kernels_impl.h"
#include "tensor/gemm.h"

namespace thali {
namespace simd_detail {

inline __m256 FastExpVec(__m256 x) {
  const __m256 hi = _mm256_set1_ps(act_detail::kExpHi);
  const __m256 lo = _mm256_set1_ps(act_detail::kExpLo);
  x = _mm256_min_ps(x, hi);
  x = _mm256_max_ps(x, lo);
  __m256 fx =
      _mm256_round_ps(_mm256_mul_ps(x, _mm256_set1_ps(act_detail::kLog2e)),
                      _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  x = _mm256_sub_ps(x, _mm256_mul_ps(fx, _mm256_set1_ps(act_detail::kExpC1)));
  x = _mm256_sub_ps(x, _mm256_mul_ps(fx, _mm256_set1_ps(act_detail::kExpC2)));
  const __m256 z = _mm256_mul_ps(x, x);
  __m256 y = _mm256_set1_ps(act_detail::kExpP0);
  y = _mm256_add_ps(_mm256_mul_ps(y, x), _mm256_set1_ps(act_detail::kExpP1));
  y = _mm256_add_ps(_mm256_mul_ps(y, x), _mm256_set1_ps(act_detail::kExpP2));
  y = _mm256_add_ps(_mm256_mul_ps(y, x), _mm256_set1_ps(act_detail::kExpP3));
  y = _mm256_add_ps(_mm256_mul_ps(y, x), _mm256_set1_ps(act_detail::kExpP4));
  y = _mm256_add_ps(_mm256_mul_ps(y, x), _mm256_set1_ps(act_detail::kExpP5));
  y = _mm256_add_ps(_mm256_mul_ps(y, z), x);
  y = _mm256_add_ps(y, _mm256_set1_ps(1.0f));
  const __m256i n = _mm256_cvtps_epi32(fx);
  const __m256i pow2 =
      _mm256_slli_epi32(_mm256_add_epi32(n, _mm256_set1_epi32(127)), 23);
  return _mm256_mul_ps(y, _mm256_castsi256_ps(pow2));
}

// mish(x) = x * E(E+2)/(E(E+2)+2) with E = FastExpVec(x). Saturated
// lanes (x >= 20) return x exactly, matching both the scalar fast path
// and the libm reference's tanh==1 branch. The blended-away num may be
// inf (exp overflow after the clamp); its NaN quotient never escapes
// the dead lane.
inline __m256 FastMishVec(__m256 v) {
  const __m256 two = _mm256_set1_ps(2.0f);
  const __m256 sat = _mm256_set1_ps(20.0f);
  const __m256 e = FastExpVec(v);
  const __m256 num = _mm256_mul_ps(e, _mm256_add_ps(e, two));
  const __m256 m =
      _mm256_mul_ps(v, _mm256_div_ps(num, _mm256_add_ps(num, two)));
  const __m256 saturated = _mm256_cmp_ps(v, sat, _CMP_GE_OQ);
  return _mm256_blendv_ps(m, v, saturated);
}

// The activation of 8 lanes: leaky `v > 0 ? v : 0.1f * v` and ReLU
// `v > 0 ? v : 0` by an ordered compare and a blend, mish by FastMishVec,
// kNone the identity.
template <GemmActivation Act>
inline __m256 ActivateVec(__m256 v) {
  if constexpr (Act == GemmActivation::kLeaky) {
    const __m256 pos = _mm256_cmp_ps(v, _mm256_setzero_ps(), _CMP_GT_OQ);
    return _mm256_blendv_ps(_mm256_mul_ps(_mm256_set1_ps(0.1f), v), v, pos);
  } else if constexpr (Act == GemmActivation::kRelu) {
    const __m256 zero = _mm256_setzero_ps();
    return _mm256_blendv_ps(zero, v, _mm256_cmp_ps(v, zero, _CMP_GT_OQ));
  } else if constexpr (Act == GemmActivation::kMish) {
    return FastMishVec(v);
  } else {
    return v;
  }
}

}  // namespace simd_detail
}  // namespace thali

#endif  // __AVX2__

#endif  // THALI_TENSOR_SIMD_EXP_AVX2_H_
