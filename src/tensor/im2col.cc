#include "tensor/im2col.h"

#include <algorithm>

namespace thali {

namespace {

// Output positions [lo, hi) of one tap whose input index
// o * stride - pad + tap lands inside [0, in). Empty ranges come back
// with lo == hi.
struct TapRange {
  int64_t lo, hi;
};

TapRange InBoundsOutputs(int64_t in, int64_t out, int64_t tap,
                         int64_t stride, int64_t pad) {
  const int64_t first = pad - tap;  // -(input index of output 0)
  const int64_t lo = first > 0 ? (first + stride - 1) / stride : 0;
  const int64_t last = in - 1 + pad - tap;
  const int64_t hi = last >= 0 ? std::min(out, last / stride + 1) : 0;
  return {std::min(lo, hi), hi};
}

// dst[j] = src[j * Stride] for j < count. A compile-time stride lets the
// stride-2 stem convs' gather vectorize.
template <int64_t Stride, typename T>
void GatherStrided(const T* src, int64_t count, T* dst) {
  for (int64_t j = 0; j < count; ++j) dst[j] = src[j * Stride];
}

template <typename T>
void GatherStrided(const T* src, int64_t count, int64_t stride, T* dst) {
  for (int64_t j = 0; j < count; ++j) dst[j] = src[j * stride];
}

// The one im2col body behind Im2ColStrided (fp32) and Im2ColStridedU8. It
// only moves elements: every output is an input element or `pad_value`.
template <typename T>
void Im2ColImpl(const T* im, int64_t channels, int64_t height, int64_t width,
                int64_t ksize, int64_t stride, int64_t pad, T pad_value,
                T* col) {
  const int64_t out_h = ConvOutSize(height, ksize, stride, pad);
  const int64_t out_w = ConvOutSize(width, ksize, stride, pad);
  const int64_t cols = out_h * out_w;
  const int64_t plane = height * width;

  // Maps of at most 16 outputs (the 3x3 tail of yolov4-thali): there a
  // call per tap costs more than its elements, so every output is a
  // lookup into a copy of the channel plane with the pad value appended
  // at index `plane` (byte indices, hence planes under 256 elements). The
  // table depends only on the geometry; building it is the one place
  // that tests bounds, once per entry and not once per channel.
  constexpr int64_t kMaxLookups = 1024;
  const int64_t lookups = ksize * ksize * cols;  // one channel's rows
  if (cols <= 16 && lookups <= kMaxLookups && plane < 256) {
    uint8_t src_of[kMaxLookups];
    uint8_t* t = src_of;
    for (int64_t kh = 0; kh < ksize; ++kh) {
      for (int64_t kw = 0; kw < ksize; ++kw) {
        for (int64_t oh = 0; oh < out_h; ++oh) {
          const int64_t ih = oh * stride - pad + kh;
          for (int64_t ow = 0; ow < out_w; ++ow) {
            const int64_t iw = ow * stride - pad + kw;
            const bool inside =
                ih >= 0 && ih < height && iw >= 0 && iw < width;
            *t++ = static_cast<uint8_t>(inside ? ih * width + iw : plane);
          }
        }
      }
    }
    T padded[256];
    padded[plane] = pad_value;
    for (int64_t c = 0; c < channels; ++c) {
      std::copy_n(im + c * plane, plane, padded);
      T* out = col + c * lookups;
      for (int64_t i = 0; i < lookups; ++i) out[i] = padded[src_of[i]];
    }
    return;
  }

  // A same-size stride-1 tap is the whole input plane shifted by
  // d = dh * width + dw: one copy moves it, wrapping the dw border
  // columns into the neighbouring rows, and the patches below overwrite
  // exactly those elements and the out-of-range rows with the pad value.
  // This spares the 24x24 to 6x6 maps one call per 6-24-element row.
  const bool same_size = stride == 1 && out_h == height && out_w == width;
  // Taps outer, channels inner: the in-bounds ranges (two divisions
  // each) depend only on the tap.
  for (int64_t kh = 0; kh < ksize; ++kh) {
    const TapRange rh = InBoundsOutputs(height, out_h, kh, stride, pad);
    for (int64_t kw = 0; kw < ksize; ++kw) {
      const TapRange rw = InBoundsOutputs(width, out_w, kw, stride, pad);
      const int64_t interior = rw.hi - rw.lo;
      const int64_t d = (kh - pad) * width + (kw - pad);
      const int64_t len = plane - (d < 0 ? -d : d);
      for (int64_t c = 0; c < channels; ++c) {
        const T* imc = im + c * plane;
        T* out = col + ((c * ksize + kh) * ksize + kw) * cols;
        if (same_size) {
          if (len > 0) {
            std::copy_n(imc + std::max<int64_t>(0, d), len,
                        out + std::max<int64_t>(0, -d));
          }
        } else if (interior > 0) {
          for (int64_t oh = rh.lo; oh < rh.hi; ++oh) {
            // First in-bounds input element of this output row: never
            // left of the row start, so no pointer leaves the plane.
            const T* src = imc + (oh * stride - pad + kh) * width +
                           (rw.lo * stride - pad + kw);
            T* o = out + oh * out_w + rw.lo;
            if (stride == 1) {
              std::copy_n(src, interior, o);
            } else if (stride == 2) {
              GatherStrided<2>(src, interior, o);
            } else {
              GatherStrided(src, interior, stride, o);
            }
          }
        }
        // Border columns of the in-range rows, column by column: a fill
        // per row would cost a call per one or two elements.
        for (int64_t ow = 0; ow < rw.lo; ++ow) {
          for (int64_t oh = rh.lo; oh < rh.hi; ++oh) {
            out[oh * out_w + ow] = pad_value;
          }
        }
        for (int64_t ow = rw.hi; ow < out_w; ++ow) {
          for (int64_t oh = rh.lo; oh < rh.hi; ++oh) {
            out[oh * out_w + ow] = pad_value;
          }
        }
        // Out-of-range rows last: the same-size copy may have spilled
        // into them.
        std::fill_n(out, rh.lo * out_w, pad_value);
        std::fill_n(out + rh.hi * out_w, (out_h - rh.hi) * out_w, pad_value);
      }
    }
  }
}

}  // namespace

void Im2ColStrided(const float* im, int64_t channels, int64_t height,
                   int64_t width, int64_t ksize, int64_t stride, int64_t pad,
                   float* col) {
  Im2ColImpl<float>(im, channels, height, width, ksize, stride, pad, 0.0f,
                    col);
}

void Im2ColStridedU8(const uint8_t* im, int64_t channels, int64_t height,
                     int64_t width, int64_t ksize, int64_t stride,
                     int64_t pad, uint8_t pad_value, uint8_t* col) {
  Im2ColImpl<uint8_t>(im, channels, height, width, ksize, stride, pad,
                      pad_value, col);
}

void Col2Im(const float* col, int64_t channels, int64_t height, int64_t width,
            int64_t ksize, int64_t stride, int64_t pad, float* im) {
  const int64_t out_h = ConvOutSize(height, ksize, stride, pad);
  const int64_t out_w = ConvOutSize(width, ksize, stride, pad);
  const int64_t cols = out_h * out_w;

  int64_t row = 0;
  for (int64_t c = 0; c < channels; ++c) {
    float* imc = im + c * height * width;
    for (int64_t kh = 0; kh < ksize; ++kh) {
      for (int64_t kw = 0; kw < ksize; ++kw, ++row) {
        const float* in = col + row * cols;
        for (int64_t oh = 0; oh < out_h; ++oh) {
          const int64_t ih = oh * stride - pad + kh;
          if (ih < 0 || ih >= height) {
            in += out_w;
            continue;
          }
          float* imrow = imc + ih * width;
          int64_t iw = -pad + kw;
          for (int64_t ow = 0; ow < out_w; ++ow, iw += stride) {
            if (iw >= 0 && iw < width) imrow[iw] += *in;
            ++in;
          }
        }
      }
    }
  }
}

}  // namespace thali
