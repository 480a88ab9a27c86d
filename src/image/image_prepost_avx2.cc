// AVX2+FMA bilinear row kernel (built with per-file -mavx2 -mfma,
// reached only through the runtime dispatch in image_prepost.cc).
//
// Eight output pixels per iteration: the four taps arrive via
// _mm256_i32gather_ps on the precomputed column index tables, then two
// horizontal lerps and one vertical lerp as FMAs:
//
//   top = fma(wx, b - a, a)      bot = fma(wx, d - c, c)
//   v   = fma(wy, bot - top, top)
//
// This reassociates the seed's 4-tap sum, so the family is NOT bitwise
// identical to the scalar reference — outputs agree to a few ulps (the
// lerp forms are algebraically equal), covered by the documented
// letterbox tolerance in tests/prepost_test.cc. The scalar remainder
// loop below uses the same lerp form so a row is internally consistent.
//
// The rows are byte addresses at any alignment: a gather reads each lane
// from base + 4 * index with no alignment requirement, and the remainder
// loads through memcpy (LoadTap).

#include "image/image_prepost_impl.h"

#if defined(__AVX2__)

#include <immintrin.h>

namespace thali {
namespace prepost_detail {

namespace {

void ResizeRowAvx2(const uint8_t* r0, const uint8_t* r1, float wy,
                   const int32_t* ix0, const int32_t* ix1, const float* wx,
                   int nw, float* dst) {
  // The gather intrinsic spells its base as a float pointer; it is only
  // an address here and is never dereferenced as one.
  const float* g0 = reinterpret_cast<const float*>(r0);
  const float* g1 = reinterpret_cast<const float*>(r1);
  const __m256 vwy = _mm256_set1_ps(wy);
  int x = 0;
  for (; x + 8 <= nw; x += 8) {
    const __m256i i0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ix0 + x));
    const __m256i i1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ix1 + x));
    const __m256 w = _mm256_loadu_ps(wx + x);
    const __m256 a = _mm256_i32gather_ps(g0, i0, 4);
    const __m256 b = _mm256_i32gather_ps(g0, i1, 4);
    const __m256 c = _mm256_i32gather_ps(g1, i0, 4);
    const __m256 d = _mm256_i32gather_ps(g1, i1, 4);
    const __m256 top = _mm256_fmadd_ps(w, _mm256_sub_ps(b, a), a);
    const __m256 bot = _mm256_fmadd_ps(w, _mm256_sub_ps(d, c), c);
    const __m256 v = _mm256_fmadd_ps(vwy, _mm256_sub_ps(bot, top), top);
    _mm256_storeu_ps(dst + x, v);
  }
  for (; x < nw; ++x) {
    const float w = wx[x];
    const float a = LoadTap(r0, ix0[x]);
    const float b = LoadTap(r0, ix1[x]);
    const float c = LoadTap(r1, ix0[x]);
    const float d = LoadTap(r1, ix1[x]);
    const float top = __builtin_fmaf(w, b - a, a);
    const float bot = __builtin_fmaf(w, d - c, c);
    dst[x] = __builtin_fmaf(wy, bot - top, top);
  }
}

const ResizeKernel kAvx2ResizeKernel = {
    /*name=*/"avx2-resize",
    /*row=*/&ResizeRowAvx2,
};

}  // namespace

const ResizeKernel* Avx2ResizeKernel() { return &kAvx2ResizeKernel; }

}  // namespace prepost_detail
}  // namespace thali

#else  // !defined(__AVX2__)

namespace thali {
namespace prepost_detail {

const ResizeKernel* Avx2ResizeKernel() { return nullptr; }

}  // namespace prepost_detail
}  // namespace thali

#endif  // defined(__AVX2__)
