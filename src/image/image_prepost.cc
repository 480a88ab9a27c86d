#include "image/image_prepost.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "base/cpu_features.h"
#include "base/logging.h"
#include "image/image_prepost_impl.h"
#include "tensor/gemm_int8.h"

namespace thali {

namespace {

using prepost_detail::ResizeKernel;

// The seed resize expression with the per-column indices/weights read
// from tables instead of recomputed. The table entries hold the exact
// floats the seed loop computes (same fx = x*sx derivation), each tap is
// loaded through memcpy (the row may be unaligned) and the whole build
// runs -ffp-contract=off, so this is bitwise identical to the seed loop
// (kept as the test oracle in tests/seed_prepost.h).
void ResizeRowScalar(const uint8_t* r0, const uint8_t* r1, float wy,
                     const int32_t* ix0, const int32_t* ix1, const float* wx,
                     int nw, float* dst) {
  using prepost_detail::LoadTap;
  for (int x = 0; x < nw; ++x) {
    const float w = wx[x];
    const float v =
        (1 - wy) * ((1 - w) * LoadTap(r0, ix0[x]) + w * LoadTap(r0, ix1[x])) +
        wy * ((1 - w) * LoadTap(r1, ix0[x]) + w * LoadTap(r1, ix1[x]));
    dst[x] = v;
  }
}

const ResizeKernel kScalarResizeKernel = {
    /*name=*/"scalar-resize",
    /*row=*/&ResizeRowScalar,
};

const ResizeKernel* DetectResizeKernel() {
  const ResizeKernel* avx2 = prepost_detail::Avx2ResizeKernel();
  if (avx2 != nullptr && CpuInfo().avx2 && CpuInfo().fma) return avx2;
  return &kScalarResizeKernel;
}

const ResizeKernel& SelectResizeKernel() {
  static const ResizeKernel* const detected = DetectResizeKernel();
  return SimdKernelsAllowed() ? *detected : kScalarResizeKernel;
}

// Per-axis bilinear taps: for destination coordinate i, the two source
// indices and the interpolation weight — the exact values the seed loop
// derives per pixel (fx = i*s; i0 = (int)fx; i1 = min(i0+1, src_n-1);
// w = fx - i0), computed once per geometry instead of per element.
struct AxisTable {
  std::vector<int32_t> i0, i1;
  std::vector<float> w;
};

void BuildAxisTable(int src_n, int dst_n, AxisTable* t) {
  const float s =
      dst_n > 1 ? static_cast<float>(src_n - 1) / (dst_n - 1) : 0.0f;
  t->i0.resize(static_cast<size_t>(dst_n));
  t->i1.resize(static_cast<size_t>(dst_n));
  t->w.resize(static_cast<size_t>(dst_n));
  for (int i = 0; i < dst_n; ++i) {
    const float f = i * s;
    const int j = static_cast<int>(f);
    t->i0[static_cast<size_t>(i)] = j;
    t->i1[static_cast<size_t>(i)] = std::min(j + 1, src_n - 1);
    t->w[static_cast<size_t>(i)] = f - j;
  }
}

// Runs the row kernel for every (channel, row) of a resize of `src` to
// (new_w, new_h). `dest(c, y)` returns the float row the kernel writes
// (a staging row, or a scratch row the `post` hook consumes);
// `post(c, y, row)` runs after the kernel finishes that row (the
// quantized variant requantizes there; the plain variants pass a no-op).
template <typename DestRow, typename PostRow>
void ForEachResizedRow(ImageView src, int new_w, int new_h,
                       const DestRow& dest, const PostRow& post) {
  AxisTable xt, yt;
  BuildAxisTable(src.width(), new_w, &xt);
  BuildAxisTable(src.height(), new_h, &yt);
  const ResizeKernel& kernel = SelectResizeKernel();
  for (int c = 0; c < src.channels(); ++c) {
    for (int y = 0; y < new_h; ++y) {
      const uint8_t* r0 = src.row(c, yt.i0[y]);
      const uint8_t* r1 = src.row(c, yt.i1[y]);
      float* dst_row = dest(c, y);
      kernel.row(r0, r1, yt.w[y], xt.i0.data(), xt.i1.data(), xt.w.data(),
                 new_w, dst_row);
      post(c, y, dst_row);
    }
  }
}

void NoPost(int, int, const float*) {}

constexpr float kPadGrey = 0.5f;

}  // namespace

LetterboxGeometry ComputeLetterboxGeometry(int src_w, int src_h, int target_w,
                                           int target_h) {
  LetterboxGeometry g;
  g.scale = std::min(static_cast<float>(target_w) / src_w,
                     static_cast<float>(target_h) / src_h);
  g.new_w = std::max(1, static_cast<int>(src_w * g.scale));
  g.new_h = std::max(1, static_cast<int>(src_h * g.scale));
  g.pad_x = (target_w - g.new_w) / 2;
  g.pad_y = (target_h - g.new_h) / 2;
  return g;
}

void ResizeIntoPlanes(ImageView src, int new_w, int new_h, float* dst) {
  THALI_CHECK(!src.empty());
  const int64_t dplane = static_cast<int64_t>(new_w) * new_h;
  ForEachResizedRow(
      src, new_w, new_h,
      [&](int c, int y) {
        return dst + c * dplane + static_cast<int64_t>(y) * new_w;
      },
      NoPost);
}

LetterboxGeometry LetterboxIntoPlanes(ImageView src, int target_w,
                                      int target_h, float* dst) {
  THALI_CHECK(!src.empty());
  const LetterboxGeometry g =
      ComputeLetterboxGeometry(src.width(), src.height(), target_w, target_h);
  const int64_t dplane = static_cast<int64_t>(target_w) * target_h;
  // Pad bands first (only the bands — the resized interior is written
  // exactly once by the row kernel, never pre-filled).
  for (int c = 0; c < src.channels(); ++c) {
    float* plane = dst + c * dplane;
    std::fill(plane, plane + static_cast<int64_t>(g.pad_y) * target_w,
              kPadGrey);
    float* bottom = plane + static_cast<int64_t>(g.pad_y + g.new_h) * target_w;
    std::fill(bottom, plane + dplane, kPadGrey);
    for (int y = 0; y < g.new_h; ++y) {
      float* row = plane + static_cast<int64_t>(g.pad_y + y) * target_w;
      std::fill(row, row + g.pad_x, kPadGrey);
      std::fill(row + g.pad_x + g.new_w, row + target_w, kPadGrey);
    }
  }
  ForEachResizedRow(
      src, g.new_w, g.new_h,
      [&](int c, int y) {
        return dst + c * dplane +
               static_cast<int64_t>(g.pad_y + y) * target_w + g.pad_x;
      },
      NoPost);
  return g;
}

LetterboxGeometry LetterboxIntoQuantizedPlanes(ImageView src, int target_w,
                                               int target_h, float inv_scale,
                                               int32_t zp, uint8_t* dst) {
  THALI_CHECK(!src.empty());
  const LetterboxGeometry g =
      ComputeLetterboxGeometry(src.width(), src.height(), target_w, target_h);
  const int64_t dplane = static_cast<int64_t>(target_w) * target_h;
  // The pad byte is the quantized grey, through the one shared quantizer
  // so it matches what quantizing an fp32 pad band would produce.
  uint8_t pad_byte = 0;
  Int8QuantizeActivations(&kPadGrey, 1, inv_scale, zp, &pad_byte);
  for (int c = 0; c < src.channels(); ++c) {
    uint8_t* plane = dst + c * dplane;
    std::memset(plane, pad_byte,
                static_cast<size_t>(g.pad_y) * static_cast<size_t>(target_w));
    uint8_t* bottom =
        plane + static_cast<int64_t>(g.pad_y + g.new_h) * target_w;
    std::memset(bottom, pad_byte, static_cast<size_t>(plane + dplane - bottom));
    for (int y = 0; y < g.new_h; ++y) {
      uint8_t* row = plane + static_cast<int64_t>(g.pad_y + y) * target_w;
      std::memset(row, pad_byte, static_cast<size_t>(g.pad_x));
      std::memset(row + g.pad_x + g.new_w, pad_byte,
                  static_cast<size_t>(target_w - g.pad_x - g.new_w));
    }
  }
  // Resize one row at a time into a scratch row, then quantize it into
  // place — the fp32 letterbox output never materializes as a whole.
  std::vector<float> row_scratch(static_cast<size_t>(g.new_w));
  ForEachResizedRow(
      src, g.new_w, g.new_h, [&](int, int) { return row_scratch.data(); },
      [&](int c, int y, const float* row) {
        uint8_t* out = dst + c * dplane +
                       static_cast<int64_t>(g.pad_y + y) * target_w + g.pad_x;
        Int8QuantizeActivations(row, g.new_w, inv_scale, zp, out);
      });
  return g;
}

void QuantizeIntoPlanes(ImageView src, float inv_scale, int32_t zp,
                        uint8_t* dst) {
  THALI_CHECK(!src.empty());
  // Loaded a chunk at a time into aligned floats: the quantizer takes a
  // float*, and the view's bytes may sit at any alignment.
  constexpr int64_t kChunk = 256;
  float chunk[kChunk];
  const int64_t n = src.size();
  for (int64_t i = 0; i < n; i += kChunk) {
    const int64_t len = std::min(kChunk, n - i);
    std::memcpy(chunk, src.bytes() + i * static_cast<int64_t>(sizeof(float)),
                static_cast<size_t>(len) * sizeof(float));
    Int8QuantizeActivations(chunk, len, inv_scale, zp, dst + i);
  }
}

const char* ResizeKernelName() { return SelectResizeKernel().name; }

}  // namespace thali
