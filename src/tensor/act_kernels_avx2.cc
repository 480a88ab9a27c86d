// AVX2 activation kernel family. Like gemm_microkernel_avx2.cc this is
// the only activation TU compiled with -mavx2 -mfma (per-file
// COMPILE_OPTIONS in src/tensor/CMakeLists.txt) and is reached only
// through runtime dispatch guarded by CpuInfo().
//
// Every vector body below mirrors the scalar formulas in
// act_kernels_impl.h operation for operation — same op order, same
// rounding mode, multiply+add (never fmadd) in the polynomial — so a
// lane's result is bitwise identical to the scalar remainder loop and
// to the scalar family. See act_kernels.h for why that matters.

#include "tensor/act_kernels.h"
#include "tensor/act_kernels_impl.h"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include "tensor/simd_exp_avx2.h"

namespace thali {

namespace {

using act_detail::ActKernel;
using simd_detail::ActivateVec;

// The vector bodies are shared with the int8 requantize epilogue and the
// fp32 GEMM's tile finish (simd_exp_avx2.h), so all produce the same bits
// as the scalar family.
template <GemmActivation Act>
int64_t ActivateVectorPart(float* x, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(x + i, ActivateVec<Act>(_mm256_loadu_ps(x + i)));
  }
  return i;
}

void LeakyAvx2(float* x, int64_t n) {
  const int64_t i = ActivateVectorPart<GemmActivation::kLeaky>(x, n);
  act_detail::LeakyScalar(x + i, n - i);
}

void ReluAvx2(float* x, int64_t n) {
  const int64_t i = ActivateVectorPart<GemmActivation::kRelu>(x, n);
  act_detail::ReluScalar(x + i, n - i);
}

void MishAvx2(float* x, int64_t n) {
  const int64_t i = ActivateVectorPart<GemmActivation::kMish>(x, n);
  act_detail::MishScalar(x + i, n - i);
}

int64_t CollectAtLeastAvx2(const float* x, int64_t n, float threshold,
                           int32_t* out) {
  // _CMP_NLT_UQ is the bit-exact vector form of !(x < threshold):
  // not-less-than, unordered (NaN) compares true, same as the scalar
  // body, so both families collect the same indices.
  const __m256 thr = _mm256_set1_ps(threshold);
  int64_t m = 0;
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(x + i);
    unsigned mask = static_cast<unsigned>(
        _mm256_movemask_ps(_mm256_cmp_ps(v, thr, _CMP_NLT_UQ)));
    while (mask != 0) {
      const int lane = __builtin_ctz(mask);
      out[m++] = static_cast<int32_t>(i + lane);
      mask &= mask - 1;
    }
  }
  for (; i < n; ++i) {
    if (!(x[i] < threshold)) out[m++] = static_cast<int32_t>(i);
  }
  return m;
}

const ActKernel kAvx2ActKernel = {
    /*name=*/"avx2-act",
    /*leaky=*/&LeakyAvx2,
    /*relu=*/&ReluAvx2,
    /*mish=*/&MishAvx2,
    /*collect=*/&CollectAtLeastAvx2,
};

}  // namespace

const act_detail::ActKernel* Avx2ActKernel() { return &kAvx2ActKernel; }

}  // namespace thali

#else  // !(__AVX2__ && __FMA__)

namespace thali {

const act_detail::ActKernel* Avx2ActKernel() { return nullptr; }

}  // namespace thali

#endif
