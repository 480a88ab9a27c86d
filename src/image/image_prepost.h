#ifndef THALI_IMAGE_IMAGE_PREPOST_H_
#define THALI_IMAGE_IMAGE_PREPOST_H_

#include <cstdint>

#include "image/image.h"

namespace thali {

// Pre-processing fast path: table-driven bilinear letterbox writing
// straight into a consumer-owned CHW buffer (the detector's staging
// tensor), plus a fused letterbox+quantize variant for int8 plans whose
// first conv consumes u8 network input.
//
// Every entry point reads its source through an ImageView, whose pixel
// block may start at any byte alignment: a served request letterboxes
// straight from the receive buffer of its THL1 frame. The row kernels
// therefore take byte rows and load each tap through std::memcpy
// (scalar) or a gather from the byte address (AVX2); no pixel is copied
// to realign it.
//
// Runtime dispatch mirrors the PR-3 kernel families (tensor/act_kernels):
// one portable scalar family plus an AVX2 gather+FMA family in its own
// -mavx2 TU, detected once per process from CpuInfo() (or forced scalar
// by internal::SetScalarKernelsForTesting). The scalar family
// evaluates the seed bilinear resize expression operation for
// operation — same index/weight derivation, same 4-tap sum order — so
// its output is bitwise identical to the seed loop, which the parity
// tests keep as their oracle (tests/seed_prepost.h). The AVX2 family
// reassociates the taps into lerp FMAs and is covered by a small
// per-element tolerance instead.

// Geometry of a letterbox (LetterboxImage's scale and padding), exposed
// so callers can remap boxes without holding the resized Image.
struct LetterboxGeometry {
  float scale = 1.0f;  // src pixels -> canvas pixels
  int new_w = 1;       // resized region size inside the canvas
  int new_h = 1;
  int pad_x = 0;       // left padding in canvas pixels
  int pad_y = 0;       // top padding in canvas pixels
};

LetterboxGeometry ComputeLetterboxGeometry(int src_w, int src_h, int target_w,
                                           int target_h);

// Bilinear-resizes every channel plane of `src` into `dst`, which must
// hold src.channels() * new_h * new_w floats (CHW). No allocation beyond
// the per-call weight/index tables.
void ResizeIntoPlanes(ImageView src, int new_w, int new_h, float* dst);

// Letterboxes `src` into `dst`, which must hold
// src.channels() * target_h * target_w floats (CHW): aspect-preserving
// resize centered on a 0.5-grey canvas, touching pad bands exactly once
// (never the full canvas). Returns the geometry for box remapping.
LetterboxGeometry LetterboxIntoPlanes(ImageView src, int target_w,
                                      int target_h, float* dst);

// Fused letterbox + quantize: as LetterboxIntoPlanes, but every element
// is emitted in the 7-bit unsigned domain of tensor/gemm_int8.h,
// u = clamp(rne(v * inv_scale) + zp, 0, 127), via the shared
// Int8QuantizeActivations so the bytes are exactly what quantizing the
// fp32 letterbox output would have produced (per kernel family). `dst`
// holds src.channels() * target_h * target_w bytes.
LetterboxGeometry LetterboxIntoQuantizedPlanes(ImageView src, int target_w,
                                               int target_h, float inv_scale,
                                               int32_t zp, uint8_t* dst);

// Quantizes `src` as it is (an image already at the network size) into
// src.size() bytes of `dst`, through Int8QuantizeActivations: the bytes
// equal quantizing an aligned copy of the pixels.
void QuantizeIntoPlanes(ImageView src, float inv_scale, int32_t zp,
                        uint8_t* dst);

// Name of the dispatched resize kernel family (for logs/reports).
const char* ResizeKernelName();

}  // namespace thali

#endif  // THALI_IMAGE_IMAGE_PREPOST_H_
