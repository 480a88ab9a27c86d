#ifndef THALI_TENSOR_POOL_H_
#define THALI_TENSOR_POOL_H_

#include <algorithm>
#include <cstdint>

namespace thali {

// Inference max pooling as a separable, clipped-window kernel (DESIGN.md
// "Pooling"). A row pass takes every input row's max over each clipped
// column span; a column pass combines the clipped rows of each output.
//
// One pooled axis with Darknet geometry: output i covers the taps
// [i*stride + offset, i*stride + offset + size), clipped to [0, in).
// Windows are clipped once, here: outputs [live0, live1) have a nonempty
// clipped span, and outputs [full0, full1) (a subrange of the live ones,
// possibly empty) a window lying wholly inside the input, whose taps the
// kernel walks without bounds checks. Outputs outside [live0, live1)
// pool nothing.
struct PoolAxis {
  int64_t in = 0;
  int64_t out = 0;
  int64_t size = 1;
  int64_t stride = 1;
  int64_t offset = 0;
  int64_t live0 = 0;
  int64_t live1 = 0;
  int64_t full0 = 0;
  int64_t full1 = 0;

  // Clipped span [Lo(i), Hi(i)) of output i.
  int64_t Lo(int64_t i) const {
    return std::max<int64_t>(0, i * stride + offset);
  }
  int64_t Hi(int64_t i) const {
    return std::min(in, i * stride + offset + size);
  }
};

// size >= 1 and stride >= 1; offset <= 0 (Darknet's -padding/2).
PoolAxis MakePoolAxis(int64_t in, int64_t out, int64_t size, int64_t stride,
                      int64_t offset);

struct PoolGeometry {
  PoolAxis y;
  PoolAxis x;
};

// Elements (floats or bytes, matching the pooled dtype) of row-pass
// scratch the kernels need: one plane of row maxima.
inline int64_t MaxPoolScratch(const PoolGeometry& g) {
  return g.y.in * g.x.out;
}

// Pools `planes` consecutive planes of y.in x x.in elements into planes
// of y.out x x.out. `rows` is MaxPoolScratch(g) elements of scratch.
//
// Bitwise contract, shared with the training loop in nn/maxpool_layer.cc
// (the fp32 oracle): every window keeps the first tap in raster order
// that is strictly greater than the running best, so NaN taps and taps
// <= -FLT_MAX are never chosen and +0.0 / -0.0 ties resolve to the
// earlier tap. Folding each row before the rows keeps that choice; the
// other order would not. An fp32 window that chose nothing (empty, or
// only unchosen taps) writes 0.0f; an empty u8 window writes `empty`.
void MaxPoolF32(const PoolGeometry& g, const float* in, int64_t planes,
                float* rows, float* out);
void MaxPoolU8(const PoolGeometry& g, const uint8_t* in, int64_t planes,
               uint8_t empty, uint8_t* rows, uint8_t* out);

}  // namespace thali

#endif  // THALI_TENSOR_POOL_H_
