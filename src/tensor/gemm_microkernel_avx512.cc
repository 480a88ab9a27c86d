// AVX-512F kernel family: 12 x 32 register tiles, two A panels by two B
// strips, on the same fused chain as the AVX2 family, so the two give the
// same bits. This translation unit is the only one in the library
// compiled with -mavx512f (per-file COMPILE_OPTIONS in
// src/tensor/CMakeLists.txt); everything it exports is reached through
// runtime dispatch (SelectGemmKernel) guarded by CpuInfo(), so the binary
// still runs on baseline x86-64 hosts.

#include "tensor/gemm_microkernel.h"

#if defined(__AVX512F__) && defined(__FMA__)

// GCC 12's avx512fintrin.h passes a self-initialized _mm512_undefined_*()
// as the pass-through operand of unmasked intrinsics (_mm512_min_ps,
// _mm512_max_ps, _mm512_roundscale_ps, _mm512_cvtps_epi32,
// _mm512_slli_epi32), which -Wmaybe-uninitialized reports once they are
// inlined at -O3. No lane of that operand is ever read.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <immintrin.h>
#pragma GCC diagnostic pop

#include "tensor/act_kernels_impl.h"
#include "tensor/gemm_tile_impl.h"

namespace thali {

namespace {

using gemm_detail::FmaOp;

constexpr int kLanes = 16;
constexpr int kTileRows = 2 * kGemmMR;
constexpr int kTileCols = 2 * kGemmNR;
static_assert(kGemmNR == kLanes, "a B strip is one zmm");

// The first `live` lanes, 1 <= live <= 16.
inline __mmask16 LiveLanes(int live) {
  return static_cast<__mmask16>((1u << live) - 1u);
}

// One C row's accumulators: columns 0-15 in lo, 16-31 in hi.
struct RowAcc {
  __m512 lo, hi;
};

// mr x nr register tile (mr <= 12, nr <= 32): kVecs 16-lane vectors per
// C row, the last one mask-loaded and mask-stored when kMasked, and one
// ascending-k stream of rank-1 updates. Rows 0-5 broadcast their A value
// from the first panel and rows 6-11 from the second (a + MR * kc);
// vector 0 reads B strip 0 at b and vector 1 strip 1 at b + b_strip. A
// masked vector reads B through the mask too, so its dead lanes are zero
// and columns past nr are never touched. Each C element sees exactly the
// canonical fused chain — lanes are independent elements — so this
// family is bitwise equal to the AVX2 one.
//
// The accumulators are twelve named RowAcc locals, NOT an array (see
// TileAvx2): 24 accumulators, two B vectors and a broadcast keep 27 of
// the 32 zmm registers busy in the k loop, and none spills.
//
// The tile takes the column count and builds its mask itself, so every
// entry returns through vzeroupper (tests/ymm_state.h).
template <int MR_, int kVecs, bool kMasked>
void TileAvx512(int64_t kc, const float* a, const float* b, int64_t ldb,
                int64_t b_strip, float* c, int64_t ldc, int nr) {
  static_assert(MR_ >= 1 && MR_ <= kTileRows, "rows exceed two panels");
  static_assert(kVecs == 1 || kVecs == 2, "a row is two 16-lane vectors");
  const __mmask16 mask =
      kMasked ? LiveLanes(nr - kLanes * (kVecs - 1)) : __mmask16{0xFFFF};
  // `hi` is read only when kVecs == 2; a one-vector tile passes `lo`.
  const auto load = [mask](const float* lo, const float* hi) {
    RowAcc v;
    if constexpr (kVecs == 1 && kMasked) {
      v.lo = _mm512_maskz_loadu_ps(mask, lo);
    } else {
      v.lo = _mm512_loadu_ps(lo);
    }
    if constexpr (kVecs == 2 && kMasked) {
      v.hi = _mm512_maskz_loadu_ps(mask, hi);
    } else if constexpr (kVecs == 2) {
      v.hi = _mm512_loadu_ps(hi);
    }
    return v;
  };
  const auto load_c = [&](int row) {
    const float* p = c + row * ldc;
    return load(p, kVecs == 2 ? p + kLanes : p);
  };
  const auto store_c = [mask, c, ldc](int row, const RowAcc& v) {
    float* p = c + row * ldc;
    if constexpr (kVecs == 1 && kMasked) {
      _mm512_mask_storeu_ps(p, mask, v.lo);
    } else {
      _mm512_storeu_ps(p, v.lo);
    }
    if constexpr (kVecs == 2 && kMasked) {
      _mm512_mask_storeu_ps(p + kLanes, mask, v.hi);
    } else if constexpr (kVecs == 2) {
      _mm512_storeu_ps(p + kLanes, v.hi);
    }
  };
  const auto update = [](RowAcc& r, const float* ap, const RowAcc& bv) {
    const __m512 ar = _mm512_set1_ps(*ap);
    r.lo = _mm512_fmadd_ps(ar, bv.lo, r.lo);
    if constexpr (kVecs == 2) r.hi = _mm512_fmadd_ps(ar, bv.hi, r.hi);
  };
  RowAcc r0, r1, r2, r3, r4, r5, r6, r7, r8, r9, r10, r11;
  r0 = load_c(0);
  if constexpr (MR_ > 1) r1 = load_c(1);
  if constexpr (MR_ > 2) r2 = load_c(2);
  if constexpr (MR_ > 3) r3 = load_c(3);
  if constexpr (MR_ > 4) r4 = load_c(4);
  if constexpr (MR_ > 5) r5 = load_c(5);
  if constexpr (MR_ > 6) r6 = load_c(6);
  if constexpr (MR_ > 7) r7 = load_c(7);
  if constexpr (MR_ > 8) r8 = load_c(8);
  if constexpr (MR_ > 9) r9 = load_c(9);
  if constexpr (MR_ > 10) r10 = load_c(10);
  if constexpr (MR_ > 11) r11 = load_c(11);
  const float* ap = a;
  // The second panel exists only when the tile has rows in it.
  const float* aq = MR_ > kGemmMR ? a + kGemmMR * kc : a;
  const float* bp = b;
  for (int64_t p = 0; p < kc; ++p) {
    const RowAcc bv = load(bp, kVecs == 2 ? bp + b_strip : bp);
    update(r0, ap, bv);
    if constexpr (MR_ > 1) update(r1, ap + 1, bv);
    if constexpr (MR_ > 2) update(r2, ap + 2, bv);
    if constexpr (MR_ > 3) update(r3, ap + 3, bv);
    if constexpr (MR_ > 4) update(r4, ap + 4, bv);
    if constexpr (MR_ > 5) update(r5, ap + 5, bv);
    if constexpr (MR_ > 6) update(r6, aq, bv);
    if constexpr (MR_ > 7) update(r7, aq + 1, bv);
    if constexpr (MR_ > 8) update(r8, aq + 2, bv);
    if constexpr (MR_ > 9) update(r9, aq + 3, bv);
    if constexpr (MR_ > 10) update(r10, aq + 4, bv);
    if constexpr (MR_ > 11) update(r11, aq + 5, bv);
    ap += kGemmMR;
    aq += kGemmMR;
    bp += ldb;
  }
  store_c(0, r0);
  if constexpr (MR_ > 1) store_c(1, r1);
  if constexpr (MR_ > 2) store_c(2, r2);
  if constexpr (MR_ > 3) store_c(3, r3);
  if constexpr (MR_ > 4) store_c(4, r4);
  if constexpr (MR_ > 5) store_c(5, r5);
  if constexpr (MR_ > 6) store_c(6, r6);
  if constexpr (MR_ > 7) store_c(7, r7);
  if constexpr (MR_ > 8) store_c(8, r8);
  if constexpr (MR_ > 9) store_c(9, r9);
  if constexpr (MR_ > 10) store_c(10, r10);
  if constexpr (MR_ > 11) store_c(11, r11);
}

// The kernel table's full 12 x 32 tile.
void FullTileAvx512(int64_t kc, const float* a, const float* b, int64_t ldb,
                    int64_t b_strip, float* c, int64_t ldc) {
  TileAvx512<kTileRows, 2, false>(kc, a, b, ldb, b_strip, c, ldc, kTileCols);
}

// Rows 1-12 of an edge tile: one masked vector (nr <= 16) or a full
// vector and a masked one (a full-width mask when nr == 32). A masked
// load costs what a plain one does, so no unmasked edge instance is kept.
template <int MR_>
void EdgeRowsAvx512(int64_t kc, const float* a, const float* b, int64_t ldb,
                    int64_t b_strip, float* c, int64_t ldc, int nr) {
  if (nr <= kLanes) {
    return TileAvx512<MR_, 1, true>(kc, a, b, ldb, b_strip, c, ldc, nr);
  }
  TileAvx512<MR_, 2, true>(kc, a, b, ldb, b_strip, c, ldc, nr);
}

void EdgeAvx512(int64_t kc, const float* a, const float* b, int64_t ldb,
                int64_t b_strip, float* c, int64_t ldc, int mr, int nr) {
  switch (mr) {
    case 1:
      return EdgeRowsAvx512<1>(kc, a, b, ldb, b_strip, c, ldc, nr);
    case 2:
      return EdgeRowsAvx512<2>(kc, a, b, ldb, b_strip, c, ldc, nr);
    case 3:
      return EdgeRowsAvx512<3>(kc, a, b, ldb, b_strip, c, ldc, nr);
    case 4:
      return EdgeRowsAvx512<4>(kc, a, b, ldb, b_strip, c, ldc, nr);
    case 5:
      return EdgeRowsAvx512<5>(kc, a, b, ldb, b_strip, c, ldc, nr);
    case 6:
      return EdgeRowsAvx512<6>(kc, a, b, ldb, b_strip, c, ldc, nr);
    case 7:
      return EdgeRowsAvx512<7>(kc, a, b, ldb, b_strip, c, ldc, nr);
    case 8:
      return EdgeRowsAvx512<8>(kc, a, b, ldb, b_strip, c, ldc, nr);
    case 9:
      return EdgeRowsAvx512<9>(kc, a, b, ldb, b_strip, c, ldc, nr);
    case 10:
      return EdgeRowsAvx512<10>(kc, a, b, ldb, b_strip, c, ldc, nr);
    case 11:
      return EdgeRowsAvx512<11>(kc, a, b, ldb, b_strip, c, ldc, nr);
    case 12:
      return EdgeRowsAvx512<12>(kc, a, b, ldb, b_strip, c, ldc, nr);
  }
}

// 16-lane copies of FastExpVec / FastMishVec (simd_exp_avx2.h): the
// scalar formulas of act_kernels_impl.h op for op — same order,
// round-to-nearest through roundscale, multiply + add (never fmadd) — so
// a lane is bitwise equal to act_detail::FastMish and to the AVX2 lanes.
inline __m512 FastExpVec512(__m512 x) {
  x = _mm512_min_ps(x, _mm512_set1_ps(act_detail::kExpHi));
  x = _mm512_max_ps(x, _mm512_set1_ps(act_detail::kExpLo));
  const __m512 fx = _mm512_roundscale_ps(
      _mm512_mul_ps(x, _mm512_set1_ps(act_detail::kLog2e)),
      _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  x = _mm512_sub_ps(x, _mm512_mul_ps(fx, _mm512_set1_ps(act_detail::kExpC1)));
  x = _mm512_sub_ps(x, _mm512_mul_ps(fx, _mm512_set1_ps(act_detail::kExpC2)));
  const __m512 z = _mm512_mul_ps(x, x);
  __m512 y = _mm512_set1_ps(act_detail::kExpP0);
  y = _mm512_add_ps(_mm512_mul_ps(y, x), _mm512_set1_ps(act_detail::kExpP1));
  y = _mm512_add_ps(_mm512_mul_ps(y, x), _mm512_set1_ps(act_detail::kExpP2));
  y = _mm512_add_ps(_mm512_mul_ps(y, x), _mm512_set1_ps(act_detail::kExpP3));
  y = _mm512_add_ps(_mm512_mul_ps(y, x), _mm512_set1_ps(act_detail::kExpP4));
  y = _mm512_add_ps(_mm512_mul_ps(y, x), _mm512_set1_ps(act_detail::kExpP5));
  y = _mm512_add_ps(_mm512_mul_ps(y, z), x);
  y = _mm512_add_ps(y, _mm512_set1_ps(1.0f));
  const __m512i n = _mm512_cvtps_epi32(fx);
  const __m512i pow2 =
      _mm512_slli_epi32(_mm512_add_epi32(n, _mm512_set1_epi32(127)), 23);
  return _mm512_mul_ps(y, _mm512_castsi512_ps(pow2));
}

inline __m512 FastMishVec512(__m512 v) {
  const __m512 two = _mm512_set1_ps(2.0f);
  const __m512 e = FastExpVec512(v);
  const __m512 num = _mm512_mul_ps(e, _mm512_add_ps(e, two));
  const __m512 m =
      _mm512_mul_ps(v, _mm512_div_ps(num, _mm512_add_ps(num, two)));
  const __mmask16 saturated =
      _mm512_cmp_ps_mask(v, _mm512_set1_ps(20.0f), _CMP_GE_OQ);
  return _mm512_mask_blend_ps(saturated, m, v);
}

// The activation of one 16-lane vector, op for op the scalar family's
// formulas (act_kernels_impl.h).
template <GemmActivation Act>
__m512 Activate(__m512 v) {
  if constexpr (Act == GemmActivation::kLeaky) {
    const __mmask16 pos =
        _mm512_cmp_ps_mask(v, _mm512_setzero_ps(), _CMP_GT_OQ);
    return _mm512_mask_blend_ps(
        pos, _mm512_mul_ps(_mm512_set1_ps(0.1f), v), v);
  } else if constexpr (Act == GemmActivation::kRelu) {
    return _mm512_maskz_mov_ps(
        _mm512_cmp_ps_mask(v, _mm512_setzero_ps(), _CMP_GT_OQ), v);
  } else if constexpr (Act == GemmActivation::kMish) {
    return FastMishVec512(v);
  } else {
    return v;
  }
}

// Tile epilogue from L1, right after the tile's last store: bias, then
// the activation, per 16-lane vector of each row, the ragged one through
// its mask.
template <GemmActivation Act>
void FinishActAvx512(float* c, int64_t ldc, int mr, int nr,
                     const float* bias) {
  for (int r = 0; r < mr; ++r) {
    float* cr = c + r * ldc;
    const __m512 bv = _mm512_set1_ps(bias != nullptr ? bias[r] : 0.0f);
    for (int j = 0; j < nr; j += kLanes) {
      const __mmask16 live = LiveLanes(nr - j < kLanes ? nr - j : kLanes);
      __m512 v = _mm512_maskz_loadu_ps(live, cr + j);
      if (bias != nullptr) v = _mm512_add_ps(v, bv);
      _mm512_mask_storeu_ps(cr + j, live, Activate<Act>(v));
    }
  }
}

void FinishAvx512(float* c, int64_t ldc, int mr, int nr, const float* bias,
                  GemmActivation act) {
  switch (act) {
    case GemmActivation::kNone:
      return FinishActAvx512<GemmActivation::kNone>(c, ldc, mr, nr, bias);
    case GemmActivation::kLeaky:
      return FinishActAvx512<GemmActivation::kLeaky>(c, ldc, mr, nr, bias);
    case GemmActivation::kRelu:
      return FinishActAvx512<GemmActivation::kRelu>(c, ldc, mr, nr, bias);
    case GemmActivation::kMish:
      return FinishActAvx512<GemmActivation::kMish>(c, ldc, mr, nr, bias);
  }
}

const GemmKernel kAvx512Kernel = {
    /*name=*/"avx512-fma-12x32",
    /*fused=*/true,
    /*panels=*/2,
    /*strips=*/2,
    /*tile=*/&FullTileAvx512,
    /*edge=*/&EdgeAvx512,
    /*finish=*/&FinishAvx512,
    /*ref_nn=*/&gemm_detail::RefNn<FmaOp>,
    /*ref_tn=*/&gemm_detail::RefTn<FmaOp>,
    /*ref_nt=*/&gemm_detail::RefNt<FmaOp>,
    /*ref_tt=*/&gemm_detail::RefTt<FmaOp>,
};

}  // namespace

const GemmKernel* Avx512GemmKernel() { return &kAvx512Kernel; }

}  // namespace thali

#else  // !(__AVX512F__ && __FMA__): non-x86 target or compiler without
       // the per-file flags; the family simply does not exist in this
       // build.

namespace thali {

const GemmKernel* Avx512GemmKernel() { return nullptr; }

}  // namespace thali

#endif
