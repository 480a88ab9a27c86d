#ifndef THALI_IMAGE_IMAGE_PREPOST_IMPL_H_
#define THALI_IMAGE_IMAGE_PREPOST_IMPL_H_

#include <cstdint>
#include <cstring>

// Kernel-family plumbing shared by image_prepost.cc and the AVX2 TU.

namespace thali {
namespace prepost_detail {

// One bilinear output row over precomputed column taps:
//
//   dst[x] = (1-wy) * ((1-wx[x]) * r0[ix0[x]] + wx[x] * r0[ix1[x]])
//          +    wy  * ((1-wx[x]) * r1[ix0[x]] + wx[x] * r1[ix1[x]])
//
// The scalar family spells the sum exactly like that (the seed Resize
// expression); the AVX2 family computes the algebraically equal lerp
// form fma(wy, bot-top, top) with gathered taps. `r0` and `r1` are the
// byte addresses of two source rows of floats, at any alignment; the
// column tables index floats within a row.
using ResizeRowFn = void (*)(const uint8_t* r0, const uint8_t* r1, float wy,
                             const int32_t* ix0, const int32_t* ix1,
                             const float* wx, int nw, float* dst);

// Float `i` of a byte row, loaded without assuming alignment.
inline float LoadTap(const uint8_t* row, int32_t i) {
  float v;
  std::memcpy(&v, row + static_cast<int64_t>(i) * sizeof(float), sizeof(v));
  return v;
}

struct ResizeKernel {
  const char* name;
  ResizeRowFn row;
};

// nullptr when this build has no AVX2 TU (non-x86 targets).
const ResizeKernel* Avx2ResizeKernel();

}  // namespace prepost_detail
}  // namespace thali

#endif  // THALI_IMAGE_IMAGE_PREPOST_IMPL_H_
