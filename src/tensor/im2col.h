#ifndef THALI_TENSOR_IM2COL_H_
#define THALI_TENSOR_IM2COL_H_

#include <cstdint>

namespace thali {

// Unrolls one dense CHW image into a column matrix of shape
// (channels*ksize*ksize) x (out_h*out_w), so a convolution at any
// `stride` becomes a GEMM with the (out_channels) x
// (channels*ksize*ksize) weight matrix. `pad` is symmetric zero padding;
// out-of-image taps read as 0.
void Im2ColStrided(const float* im, int64_t channels, int64_t height,
                   int64_t width, int64_t ksize, int64_t stride, int64_t pad,
                   float* col);

// Im2ColStrided over quantized u8 planes, from the same body. Out-of-image
// taps read as `pad_value` — the activation zero point, which quantizes
// the real x = 0 exactly (see tensor/gemm_int8.h).
void Im2ColStridedU8(const uint8_t* im, int64_t channels, int64_t height,
                     int64_t width, int64_t ksize, int64_t stride,
                     int64_t pad, uint8_t pad_value, uint8_t* col);

// Inverse scatter-add of Im2ColStrided, used on the backward pass:
// accumulates the column-matrix gradient back into the (pre-zeroed)
// image gradient buffer.
void Col2Im(const float* col, int64_t channels, int64_t height, int64_t width,
            int64_t ksize, int64_t stride, int64_t pad, float* im);

// Output spatial size of a convolution/pool with the given geometry.
inline int64_t ConvOutSize(int64_t in, int64_t ksize, int64_t stride,
                           int64_t pad) {
  return (in + 2 * pad - ksize) / stride + 1;
}

}  // namespace thali

#endif  // THALI_TENSOR_IM2COL_H_
