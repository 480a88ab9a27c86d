// AVX2+FMA kernel family. This translation unit is the only one in the
// library compiled with -mavx2 -mfma (per-file COMPILE_OPTIONS in
// src/tensor/CMakeLists.txt); everything it exports is reached through
// runtime dispatch (SelectGemmKernel) guarded by CpuInfo(), so the
// binary still runs on baseline x86-64 hosts.

#include "tensor/gemm_microkernel.h"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include "tensor/gemm_tile_impl.h"
#include "tensor/simd_exp_avx2.h"

namespace thali {

namespace {

using gemm_detail::FmaOp;

// Every tile is one A panel by one B strip, so the strip stride is
// unused. It reads kc rows of op(B) at row stride ldb: a zero-padded
// packed strip (ldb = kGemmNR) or the caller's row-major B in place. B
// loads are unaligned, and ragged columns mask-load B, so a dead lane is
// exactly zero from either source — the value the strip's padding holds.
//
// kMaskTable + (16 - nr) yields 16 lane masks whose first nr entries are
// live (all-ones).
alignas(32) constexpr int32_t kMaskTable[32] = {
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    0,  0,  0,  0,  0,  0,  0,  0,  0,  0,  0,  0,  0,  0,  0,  0};

// One C row's accumulators: columns 0-7 in lo, 8-15 in hi.
struct RowAcc {
  __m256 lo, hi;
};

// mr x nr register tile (mr <= 6, nr <= 16): kHalves 8-lane halves per C
// row, the last one mask-loaded and mask-stored when kMasked, and one
// ascending-k stream of rank-1 updates. A masked half reads B through the
// mask too, so its dead lanes are zero and columns past nr are never
// touched. Each C element sees exactly the canonical fused chain —
// vector lanes are independent elements, so the SIMD width never mixes
// accumulation orders. Templating over the row count keeps ragged
// row-edges (m % 6 != 0) on vector code.
//
// The accumulators are six named RowAcc locals, NOT an array: GCC
// register-allocates named locals but keeps an array's backing store
// live, spilling every accumulator to the stack each k-step (12 extra
// stores per iteration, enough to turn an FMA-bound loop into a
// store-port-bound one).
//
// The tile takes the column count, not a ready __m256i mask: GCC emits
// no vzeroupper in a function with a 256-bit argument, nor before a
// tail call into one, so a by-value mask would return with the upper
// YMM halves dirty, and the caller's next SSE instruction would pay the
// AVX-SSE transition. Every entry of this file returns clean
// (tests/ymm_state.h).
template <int MR_, int kHalves, bool kMasked>
void TileAvx2(int64_t kc, const float* a, const float* b, int64_t ldb,
              float* c, int64_t ldc, int nr) {
  static_assert(MR_ >= 1 && MR_ <= kGemmMR, "row count exceeds panel stride");
  static_assert(kHalves == 1 || kHalves == 2, "a row is two 8-lane halves");
  // The last half's mask: kMaskTable + (16 - nr) masks columns 0-7, and
  // eight entries further on, columns 8-15.
  const __m256i mask =
      kMasked ? _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
                    kMaskTable + (8 + 8 * kHalves - nr)))
              : _mm256_setzero_si256();
  const auto load = [mask](const float* p) {
    RowAcc v;
    if constexpr (kHalves == 1 && kMasked) {
      v.lo = _mm256_maskload_ps(p, mask);
    } else {
      v.lo = _mm256_loadu_ps(p);
    }
    if constexpr (kHalves == 2 && kMasked) {
      v.hi = _mm256_maskload_ps(p + 8, mask);
    } else if constexpr (kHalves == 2) {
      v.hi = _mm256_loadu_ps(p + 8);
    }
    return v;
  };
  const auto store = [mask](float* p, const RowAcc& v) {
    if constexpr (kHalves == 1 && kMasked) {
      _mm256_maskstore_ps(p, mask, v.lo);
    } else {
      _mm256_storeu_ps(p, v.lo);
    }
    if constexpr (kHalves == 2 && kMasked) {
      _mm256_maskstore_ps(p + 8, mask, v.hi);
    } else if constexpr (kHalves == 2) {
      _mm256_storeu_ps(p + 8, v.hi);
    }
  };
  const auto update = [](RowAcc& r, const float* ap, const RowAcc& bv) {
    const __m256 ar = _mm256_broadcast_ss(ap);
    r.lo = _mm256_fmadd_ps(ar, bv.lo, r.lo);
    if constexpr (kHalves == 2) r.hi = _mm256_fmadd_ps(ar, bv.hi, r.hi);
  };
  RowAcc r0, r1, r2, r3, r4, r5;
  r0 = load(c);
  if constexpr (MR_ > 1) r1 = load(c + ldc);
  if constexpr (MR_ > 2) r2 = load(c + 2 * ldc);
  if constexpr (MR_ > 3) r3 = load(c + 3 * ldc);
  if constexpr (MR_ > 4) r4 = load(c + 4 * ldc);
  if constexpr (MR_ > 5) r5 = load(c + 5 * ldc);
  const float* ap = a;
  const float* bp = b;
  const auto step = [&] {
    const RowAcc bv = load(bp);
    update(r0, ap, bv);
    if constexpr (MR_ > 1) update(r1, ap + 1, bv);
    if constexpr (MR_ > 2) update(r2, ap + 2, bv);
    if constexpr (MR_ > 3) update(r3, ap + 3, bv);
    if constexpr (MR_ > 4) update(r4, ap + 4, bv);
    if constexpr (MR_ > 5) update(r5, ap + 5, bv);
    ap += kGemmMR;
    bp += ldb;
  };
  if constexpr (MR_ == kGemmMR && kHalves == 2 && kMasked) {
    // 12 accumulators, two B halves, a broadcast and the mask fill all 16
    // ymm registers. Unrolled, this loop let GCC 12 spill an accumulator,
    // a store and reload on its FMA chain every other k step (up to 1.17x
    // the time); rolled, everything stays in registers.
#pragma GCC unroll 1
    for (int64_t p = 0; p < kc; ++p) step();
  } else {
    for (int64_t p = 0; p < kc; ++p) step();
  }
  store(c, r0);
  if constexpr (MR_ > 1) store(c + ldc, r1);
  if constexpr (MR_ > 2) store(c + 2 * ldc, r2);
  if constexpr (MR_ > 3) store(c + 3 * ldc, r3);
  if constexpr (MR_ > 4) store(c + 4 * ldc, r4);
  if constexpr (MR_ > 5) store(c + 5 * ldc, r5);
}

// The kernel table's full 6 x 16 tile.
void FullTileAvx2(int64_t kc, const float* a, const float* b, int64_t ldb,
                  int64_t /*b_strip*/, float* c, int64_t ldc) {
  TileAvx2<kGemmMR, 2, false>(kc, a, b, ldb, c, ldc, kGemmNR);
}

// nr == 9 — the yolo-head 3x3-spatial edge. The masked two-half tile
// above burns a second FMA per row on a register with one live lane;
// here the 9th column of all MR_ rows instead accumulates in a single
// register whose lane i is C[i][8] (the A panel already stores the MR_
// row entries of each k step contiguously, so one masked load yields
// that column vector). Per k step: MR_ + 1 FMAs instead of 2*MR_. Lane
// i's chain is still the canonical k-ascending fused multiply-add seeded
// from C, so results stay bitwise identical to the reference; dead lanes
// MR_..7 are never stored.
template <int MR_>
void TileAvx2Nine(int64_t kc, const float* a, const float* b, int64_t ldb,
                  float* c, int64_t ldc) {
  static_assert(MR_ >= 1 && MR_ <= kGemmMR, "row count exceeds panel stride");
  const __m256i amask = _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(kMaskTable + (16 - MR_)));
  __m256 c00, c10, c20, c30, c40, c50;
  c00 = _mm256_loadu_ps(c);
  if constexpr (MR_ > 1) c10 = _mm256_loadu_ps(c + ldc);
  if constexpr (MR_ > 2) c20 = _mm256_loadu_ps(c + 2 * ldc);
  if constexpr (MR_ > 3) c30 = _mm256_loadu_ps(c + 3 * ldc);
  if constexpr (MR_ > 4) c40 = _mm256_loadu_ps(c + 4 * ldc);
  if constexpr (MR_ > 5) c50 = _mm256_loadu_ps(c + 5 * ldc);
  alignas(32) float hi[8] = {0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f};
  for (int i = 0; i < MR_; ++i) hi[i] = c[i * ldc + 8];
  __m256 chi = _mm256_load_ps(hi);
  const float* ap = a;
  const float* bp = b;
  for (int64_t p = 0; p < kc; ++p) {
    const __m256 b0 = _mm256_loadu_ps(bp);
    const __m256 av = _mm256_maskload_ps(ap, amask);
    chi = _mm256_fmadd_ps(av, _mm256_broadcast_ss(bp + 8), chi);
    __m256 ar = _mm256_broadcast_ss(ap);
    c00 = _mm256_fmadd_ps(ar, b0, c00);
    if constexpr (MR_ > 1) {
      ar = _mm256_broadcast_ss(ap + 1);
      c10 = _mm256_fmadd_ps(ar, b0, c10);
    }
    if constexpr (MR_ > 2) {
      ar = _mm256_broadcast_ss(ap + 2);
      c20 = _mm256_fmadd_ps(ar, b0, c20);
    }
    if constexpr (MR_ > 3) {
      ar = _mm256_broadcast_ss(ap + 3);
      c30 = _mm256_fmadd_ps(ar, b0, c30);
    }
    if constexpr (MR_ > 4) {
      ar = _mm256_broadcast_ss(ap + 4);
      c40 = _mm256_fmadd_ps(ar, b0, c40);
    }
    if constexpr (MR_ > 5) {
      ar = _mm256_broadcast_ss(ap + 5);
      c50 = _mm256_fmadd_ps(ar, b0, c50);
    }
    ap += kGemmMR;
    bp += ldb;
  }
  _mm256_storeu_ps(c, c00);
  if constexpr (MR_ > 1) _mm256_storeu_ps(c + ldc, c10);
  if constexpr (MR_ > 2) _mm256_storeu_ps(c + 2 * ldc, c20);
  if constexpr (MR_ > 3) _mm256_storeu_ps(c + 3 * ldc, c30);
  if constexpr (MR_ > 4) _mm256_storeu_ps(c + 4 * ldc, c40);
  if constexpr (MR_ > 5) _mm256_storeu_ps(c + 5 * ldc, c50);
  _mm256_store_ps(hi, chi);
  for (int i = 0; i < MR_; ++i) c[i * ldc + 8] = hi[i];
}

// Rows 1-6 of an edge tile: full width, nr == 9 (its own kernel), one
// masked half (nr <= 8) or a full half plus a masked one.
template <int MR_>
void EdgeRowsAvx2(int64_t kc, const float* a, const float* b, int64_t ldb,
                  float* c, int64_t ldc, int nr) {
  if (nr == kGemmNR) {
    return TileAvx2<MR_, 2, false>(kc, a, b, ldb, c, ldc, nr);
  }
  if (nr == 9) return TileAvx2Nine<MR_>(kc, a, b, ldb, c, ldc);
  if (nr <= 8) return TileAvx2<MR_, 1, true>(kc, a, b, ldb, c, ldc, nr);
  TileAvx2<MR_, 2, true>(kc, a, b, ldb, c, ldc, nr);
}

void EdgeAvx2(int64_t kc, const float* a, const float* b, int64_t ldb,
              int64_t b_strip, float* c, int64_t ldc, int mr, int nr) {
  switch (mr) {
    case 1:
      return EdgeRowsAvx2<1>(kc, a, b, ldb, c, ldc, nr);
    case 2:
      return EdgeRowsAvx2<2>(kc, a, b, ldb, c, ldc, nr);
    case 3:
      return EdgeRowsAvx2<3>(kc, a, b, ldb, c, ldc, nr);
    case 4:
      return EdgeRowsAvx2<4>(kc, a, b, ldb, c, ldc, nr);
    case 5:
      return EdgeRowsAvx2<5>(kc, a, b, ldb, c, ldc, nr);
    case 6:
      return EdgeRowsAvx2<6>(kc, a, b, ldb, c, ldc, nr);
  }
  // Unreachable for valid 1 <= mr <= 6; keep the scalar fused chain as a
  // defensive fallback (bitwise-identical to the vector lanes).
  gemm_detail::EdgeGeneric<FmaOp>(kc, a, b, ldb, b_strip, c, ldc, mr, nr);
}

// Tile epilogue from L1, right after the tile's last store: bias, then
// the activation, per 8-lane half of each row; a ragged half reads and
// writes through its mask. (Folded into TileAvx2's registers, it made
// GCC spill in the 6 x 16 tile's k loop.)
template <GemmActivation Act>
void FinishActAvx2(float* c, int64_t ldc, int mr, int nr,
                   const float* bias) {
  for (int r = 0; r < mr; ++r) {
    float* cr = c + r * ldc;
    const __m256 bv = _mm256_set1_ps(bias != nullptr ? bias[r] : 0.0f);
    int j = 0;
    for (; j + 8 <= nr; j += 8) {
      __m256 v = _mm256_loadu_ps(cr + j);
      if (bias != nullptr) v = _mm256_add_ps(v, bv);
      _mm256_storeu_ps(cr + j, simd_detail::ActivateVec<Act>(v));
    }
    if (j < nr) {
      const __m256i mask = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(kMaskTable + (16 - (nr - j))));
      __m256 v = _mm256_maskload_ps(cr + j, mask);
      if (bias != nullptr) v = _mm256_add_ps(v, bv);
      _mm256_maskstore_ps(cr + j, mask, simd_detail::ActivateVec<Act>(v));
    }
  }
}

void FinishAvx2(float* c, int64_t ldc, int mr, int nr, const float* bias,
                GemmActivation act) {
  switch (act) {
    case GemmActivation::kNone:
      return FinishActAvx2<GemmActivation::kNone>(c, ldc, mr, nr, bias);
    case GemmActivation::kLeaky:
      return FinishActAvx2<GemmActivation::kLeaky>(c, ldc, mr, nr, bias);
    case GemmActivation::kRelu:
      return FinishActAvx2<GemmActivation::kRelu>(c, ldc, mr, nr, bias);
    case GemmActivation::kMish:
      return FinishActAvx2<GemmActivation::kMish>(c, ldc, mr, nr, bias);
  }
}

const GemmKernel kAvx2Kernel = {
    /*name=*/"avx2-fma-6x16",
    /*fused=*/true,
    /*panels=*/1,
    /*strips=*/1,
    /*tile=*/&FullTileAvx2,
    /*edge=*/&EdgeAvx2,
    /*finish=*/&FinishAvx2,
    /*ref_nn=*/&gemm_detail::RefNn<FmaOp>,
    /*ref_tn=*/&gemm_detail::RefTn<FmaOp>,
    /*ref_nt=*/&gemm_detail::RefNt<FmaOp>,
    /*ref_tt=*/&gemm_detail::RefTt<FmaOp>,
};

}  // namespace

const GemmKernel* Avx2GemmKernel() { return &kAvx2Kernel; }

}  // namespace thali

#else  // !(__AVX2__ && __FMA__): non-x86 target or compiler without the
       // per-file flags; the family simply does not exist in this build.

namespace thali {

const GemmKernel* Avx2GemmKernel() { return nullptr; }

}  // namespace thali

#endif
