#include "tensor/pool.h"

#include <cfloat>

namespace thali {

namespace {

int64_t FloorDiv(int64_t a, int64_t b) {
  return a >= 0 ? a / b : -((-a + b - 1) / b);
}
int64_t CeilDiv(int64_t a, int64_t b) { return -FloorDiv(-a, b); }

// The running-best step of every window: `tap` replaces `best` only when
// strictly greater, so a NaN tap never does. GCC lowers it to
// maxps(tap, best) / pmaxub, which have exactly these semantics.
template <typename T>
inline T Take(T tap, T best) {
  return tap > best ? tap : best;
}

// dst[j] = the fold from `init` over taps src[j*stride + k], k in
// [0, size), for n full windows. Tap-major, so every inner loop runs
// across windows and vectorizes; kStride > 0 fixes the stride at
// compile time, which turns the strided loads into shuffles.
template <typename T, int kStride>
void WindowTaps(const T* __restrict src, int64_t stride, int64_t size,
                int64_t n, T init, T* __restrict dst) {
  const int64_t s = kStride > 0 ? kStride : stride;
  if (size == 1) {
    for (int64_t j = 0; j < n; ++j) dst[j] = Take(src[j * s], init);
    return;
  }
  for (int64_t j = 0; j < n; ++j) {
    dst[j] = Take(src[j * s + 1], Take(src[j * s], init));
  }
  for (int64_t k = 2; k < size; ++k) {
    for (int64_t j = 0; j < n; ++j) dst[j] = Take(src[j * s + k], dst[j]);
  }
}

// d[j] = the fold of column j over `taps` >= 1 rows r, r + ld, ...; with
// kFinish, a result still at `init` chose nothing and becomes `empty`.
template <typename T, bool kFinish>
void FoldRows(const T* __restrict r, int64_t ld, int64_t taps, int64_t n,
              T init, T empty, T* __restrict d) {
  const auto finish = [init, empty](T v) {
    if constexpr (kFinish) {
      return v > init ? v : empty;
    } else {
      return v;
    }
  };
  if (taps == 1) {
    for (int64_t j = 0; j < n; ++j) d[j] = finish(r[j]);
    return;
  }
  const T* last = r + (taps - 1) * ld;
  if (taps == 2) {
    for (int64_t j = 0; j < n; ++j) d[j] = finish(Take(last[j], r[j]));
    return;
  }
  for (int64_t j = 0; j < n; ++j) d[j] = Take(r[ld + j], r[j]);
  for (int64_t t = 2; t + 1 < taps; ++t) {
    const T* row = r + t * ld;
    for (int64_t j = 0; j < n; ++j) d[j] = Take(row[j], d[j]);
  }
  for (int64_t j = 0; j < n; ++j) d[j] = finish(Take(last[j], d[j]));
}

// n full windows of axis a, the first one starting at src.
template <typename T>
void FullWindows(const PoolAxis& a, const T* src, int64_t n, T init, T* dst) {
  switch (a.stride) {
    case 1:
      WindowTaps<T, 1>(src, 1, a.size, n, init, dst);
      break;
    case 2:
      WindowTaps<T, 2>(src, 2, a.size, n, init, dst);
      break;
    default:
      WindowTaps<T, 0>(src, a.stride, a.size, n, init, dst);
      break;
  }
}

// Row pass of one input row: dst[i] for every live output i of axis x.
// Only the border windows are clipped; each walks its span once.
template <typename T>
void RowPass(const PoolAxis& x, const T* src, T init, T* dst) {
  const auto clipped = [&](int64_t i) {
    T best = init;
    for (int64_t t = x.Lo(i); t < x.Hi(i); ++t) best = Take(src[t], best);
    dst[i] = best;
  };
  for (int64_t i = x.live0; i < x.full0; ++i) clipped(i);
  if (x.full1 > x.full0) {
    FullWindows(x, src + x.full0 * x.stride + x.offset, x.full1 - x.full0,
                init, dst + x.full0);
  }
  for (int64_t i = x.full1; i < x.live1; ++i) clipped(i);
}

// Every live window clips to the whole plane (a pool wider than its map,
// as SPP's on a 3x3 map): one window per axis, so each plane folds its
// rows, then the row maxima, into one value that every live output
// takes. The same sequence of steps as the general passes.
template <typename T, bool kFinish>
void WholePlanePool(const PoolGeometry& g, const T* in, int64_t planes,
                    T init, T empty, T* out) {
  const PoolAxis& y = g.y;
  const PoolAxis& x = g.x;
  const int64_t ow = x.out;
  for (int64_t p = 0; p < planes; ++p) {
    const T* plane = in + p * y.in * x.in;
    T best = init;
    for (int64_t r = 0; r < y.in; ++r) {
      T row = init;
      for (int64_t t = 0; t < x.in; ++t) row = Take(plane[r * x.in + t], row);
      best = Take(row, best);
    }
    if constexpr (kFinish) best = best > init ? best : empty;
    T* o = out + p * y.out * ow;
    std::fill(o, o + y.live0 * ow, empty);
    for (int64_t i = y.live0; i < y.live1; ++i) {
      T* orow = o + i * ow;
      std::fill(orow, orow + x.live0, empty);
      std::fill(orow + x.live0, orow + x.live1, best);
      std::fill(orow + x.live1, orow + ow, empty);
    }
    std::fill(o + y.live1 * ow, o + y.out * ow, empty);
  }
}

// The whole kernel for one dtype. The row pass starts every window from
// `init`; with kFinish (fp32) a window still at `init` chose nothing and
// writes `empty`, as does every output whose clipped window is empty.
template <typename T, bool kFinish>
void MaxPool(const PoolGeometry& g, const T* in, int64_t planes, T init,
             T empty, T* rows, T* out) {
  const PoolAxis& y = g.y;
  const PoolAxis& x = g.x;
  const int64_t ow = x.out;
  const int64_t in_plane = y.in * x.in;
  const int64_t out_plane = y.out * ow;
  if (y.live0 == y.live1 || x.live0 == x.live1) {
    std::fill(out, out + planes * out_plane, empty);
    return;
  }
  if (x.Lo(x.live1 - 1) == 0 && x.Hi(x.live0) == x.in &&
      y.Lo(y.live1 - 1) == 0 && y.Hi(y.live0) == y.in) {
    WholePlanePool<T, kFinish>(g, in, planes, init, empty, out);
    return;
  }
  // The input rows that live outputs read.
  const int64_t r0 = y.Lo(y.live0);
  const int64_t r1 = y.Hi(y.live1 - 1);
  // Every window full and each row exactly out*stride taps wide: the
  // windows of consecutive rows continue one another, so the row pass of
  // a plane is a single run.
  const bool one_run = x.full0 == 0 && x.full1 == ow && ow * x.stride == x.in;
  const bool edge_cols = x.live0 > 0 || x.live1 < ow;
  const int64_t n = x.live1 - x.live0;
  for (int64_t p = 0; p < planes; ++p) {
    const T* plane = in + p * in_plane;
    T* o = out + p * out_plane;
    if (one_run) {
      FullWindows(x, plane + r0 * x.in + x.offset, (r1 - r0) * ow, init,
                  rows + r0 * ow);
    } else {
      for (int64_t r = r0; r < r1; ++r) {
        RowPass(x, plane + r * x.in, init, rows + r * ow);
      }
    }
    // Column pass: fold each live output's clipped rows, first to last.
    std::fill(o, o + y.live0 * ow, empty);
    for (int64_t i = y.live0; i < y.live1; ++i) {
      T* orow = o + i * ow;
      if (edge_cols) {
        std::fill(orow, orow + x.live0, empty);
        std::fill(orow + x.live1, orow + ow, empty);
      }
      FoldRows<T, kFinish>(rows + y.Lo(i) * ow + x.live0, ow,
                           y.Hi(i) - y.Lo(i), n, init, empty,
                           orow + x.live0);
    }
    std::fill(o + y.live1 * ow, o + out_plane, empty);
  }
}

}  // namespace

PoolAxis MakePoolAxis(int64_t in, int64_t out, int64_t size, int64_t stride,
                      int64_t offset) {
  PoolAxis a;
  a.in = in;
  a.out = out;
  a.size = size;
  a.stride = stride;
  a.offset = offset;
  // Live: i*stride + offset + size > 0 and i*stride + offset < in.
  a.live0 = std::clamp<int64_t>(FloorDiv(-offset - size, stride) + 1, 0, out);
  a.live1 = std::clamp<int64_t>(CeilDiv(in - offset, stride), a.live0, out);
  // Full: i*stride + offset >= 0 and i*stride + offset + size <= in. A
  // full window is live, so the clamps only place an empty range.
  a.full0 = std::clamp<int64_t>(CeilDiv(-offset, stride), a.live0, a.live1);
  a.full1 = std::clamp<int64_t>(FloorDiv(in - offset - size, stride) + 1,
                                a.full0, a.live1);
  return a;
}

void MaxPoolF32(const PoolGeometry& g, const float* in, int64_t planes,
                float* rows, float* out) {
  MaxPool<float, true>(g, in, planes, -FLT_MAX, 0.0f, rows, out);
}

void MaxPoolU8(const PoolGeometry& g, const uint8_t* in, int64_t planes,
               uint8_t empty, uint8_t* rows, uint8_t* out) {
  MaxPool<uint8_t, false>(g, in, planes, 0, empty, rows, out);
}

}  // namespace thali
