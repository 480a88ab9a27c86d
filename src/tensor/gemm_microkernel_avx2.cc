// AVX2+FMA kernel family. This translation unit is the only one in the
// library compiled with -mavx2 -mfma (per-file COMPILE_OPTIONS in
// src/tensor/CMakeLists.txt); everything it exports is reached through
// runtime dispatch (SelectGemmKernel) guarded by CpuInfo(), so the
// binary still runs on baseline x86-64 hosts.

#include "tensor/gemm_microkernel.h"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include "tensor/gemm_tile_impl.h"

namespace thali {

namespace {

using gemm_detail::FmaOp;

// Every tile reads kc rows of op(B) at row stride ldb: a zero-padded
// packed strip (ldb = kGemmNR) or the caller's row-major B in place. B
// loads are unaligned, and ragged columns mask-load B, so a dead lane is
// exactly zero from either source — the value the strip's padding holds.
//
// kMaskTable + (16 - nr) yields 16 lane masks whose first nr entries are
// live (all-ones).
alignas(32) constexpr int32_t kMaskTable[32] = {
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    0,  0,  0,  0,  0,  0,  0,  0,  0,  0,  0,  0,  0,  0,  0,  0};

// mr x 16 register tile (mr <= 6): two ymm accumulators per C row, one
// ascending-k stream of rank-1 updates. Each C element sees exactly the
// canonical fused chain — vector lanes are independent elements, so the
// SIMD width never mixes accumulation orders. Templating over the row
// count keeps ragged row-edges (m % 6 != 0) on vector code at full NR.
//
// The accumulators are individually named variables, NOT a __m256 array:
// GCC register-allocates named __m256 locals but keeps an array's backing
// store live, spilling every accumulator to the stack each k-step (12
// extra stores per iteration, enough to turn an FMA-bound loop into a
// store-port-bound one).
template <int MR_>
void TileAvx2(int64_t kc, const float* a, const float* b, int64_t ldb,
              float* c, int64_t ldc) {
  static_assert(MR_ >= 1 && MR_ <= kGemmMR, "row count exceeds panel stride");
  __m256 c00, c01, c10, c11, c20, c21, c30, c31, c40, c41, c50, c51;
  c00 = _mm256_loadu_ps(c);
  c01 = _mm256_loadu_ps(c + 8);
  if constexpr (MR_ > 1) {
    c10 = _mm256_loadu_ps(c + ldc);
    c11 = _mm256_loadu_ps(c + ldc + 8);
  }
  if constexpr (MR_ > 2) {
    c20 = _mm256_loadu_ps(c + 2 * ldc);
    c21 = _mm256_loadu_ps(c + 2 * ldc + 8);
  }
  if constexpr (MR_ > 3) {
    c30 = _mm256_loadu_ps(c + 3 * ldc);
    c31 = _mm256_loadu_ps(c + 3 * ldc + 8);
  }
  if constexpr (MR_ > 4) {
    c40 = _mm256_loadu_ps(c + 4 * ldc);
    c41 = _mm256_loadu_ps(c + 4 * ldc + 8);
  }
  if constexpr (MR_ > 5) {
    c50 = _mm256_loadu_ps(c + 5 * ldc);
    c51 = _mm256_loadu_ps(c + 5 * ldc + 8);
  }
  const float* ap = a;
  const float* bp = b;
  for (int64_t p = 0; p < kc; ++p) {
    const __m256 b0 = _mm256_loadu_ps(bp);
    const __m256 b1 = _mm256_loadu_ps(bp + 8);
    __m256 ar = _mm256_broadcast_ss(ap);
    c00 = _mm256_fmadd_ps(ar, b0, c00);
    c01 = _mm256_fmadd_ps(ar, b1, c01);
    if constexpr (MR_ > 1) {
      ar = _mm256_broadcast_ss(ap + 1);
      c10 = _mm256_fmadd_ps(ar, b0, c10);
      c11 = _mm256_fmadd_ps(ar, b1, c11);
    }
    if constexpr (MR_ > 2) {
      ar = _mm256_broadcast_ss(ap + 2);
      c20 = _mm256_fmadd_ps(ar, b0, c20);
      c21 = _mm256_fmadd_ps(ar, b1, c21);
    }
    if constexpr (MR_ > 3) {
      ar = _mm256_broadcast_ss(ap + 3);
      c30 = _mm256_fmadd_ps(ar, b0, c30);
      c31 = _mm256_fmadd_ps(ar, b1, c31);
    }
    if constexpr (MR_ > 4) {
      ar = _mm256_broadcast_ss(ap + 4);
      c40 = _mm256_fmadd_ps(ar, b0, c40);
      c41 = _mm256_fmadd_ps(ar, b1, c41);
    }
    if constexpr (MR_ > 5) {
      ar = _mm256_broadcast_ss(ap + 5);
      c50 = _mm256_fmadd_ps(ar, b0, c50);
      c51 = _mm256_fmadd_ps(ar, b1, c51);
    }
    ap += kGemmMR;
    bp += ldb;
  }
  _mm256_storeu_ps(c, c00);
  _mm256_storeu_ps(c + 8, c01);
  if constexpr (MR_ > 1) {
    _mm256_storeu_ps(c + ldc, c10);
    _mm256_storeu_ps(c + ldc + 8, c11);
  }
  if constexpr (MR_ > 2) {
    _mm256_storeu_ps(c + 2 * ldc, c20);
    _mm256_storeu_ps(c + 2 * ldc + 8, c21);
  }
  if constexpr (MR_ > 3) {
    _mm256_storeu_ps(c + 3 * ldc, c30);
    _mm256_storeu_ps(c + 3 * ldc + 8, c31);
  }
  if constexpr (MR_ > 4) {
    _mm256_storeu_ps(c + 4 * ldc, c40);
    _mm256_storeu_ps(c + 4 * ldc + 8, c41);
  }
  if constexpr (MR_ > 5) {
    _mm256_storeu_ps(c + 5 * ldc, c50);
    _mm256_storeu_ps(c + 5 * ldc + 8, c51);
  }
}

// Ragged column edge, 8 < nr < 16: the low half is fully live (plain
// unaligned load, in bounds), the high half is mask-loaded so dead lanes
// are zero and columns past nr are never touched.
template <int MR_>
void TileAvx2Masked(int64_t kc, const float* a, const float* b, int64_t ldb,
                    float* c, int64_t ldc, __m256i mask1) {
  static_assert(MR_ >= 1 && MR_ <= kGemmMR, "row count exceeds panel stride");
  __m256 c00, c01, c10, c11, c20, c21, c30, c31, c40, c41, c50, c51;
  c00 = _mm256_loadu_ps(c);
  c01 = _mm256_maskload_ps(c + 8, mask1);
  if constexpr (MR_ > 1) {
    c10 = _mm256_loadu_ps(c + ldc);
    c11 = _mm256_maskload_ps(c + ldc + 8, mask1);
  }
  if constexpr (MR_ > 2) {
    c20 = _mm256_loadu_ps(c + 2 * ldc);
    c21 = _mm256_maskload_ps(c + 2 * ldc + 8, mask1);
  }
  if constexpr (MR_ > 3) {
    c30 = _mm256_loadu_ps(c + 3 * ldc);
    c31 = _mm256_maskload_ps(c + 3 * ldc + 8, mask1);
  }
  if constexpr (MR_ > 4) {
    c40 = _mm256_loadu_ps(c + 4 * ldc);
    c41 = _mm256_maskload_ps(c + 4 * ldc + 8, mask1);
  }
  if constexpr (MR_ > 5) {
    c50 = _mm256_loadu_ps(c + 5 * ldc);
    c51 = _mm256_maskload_ps(c + 5 * ldc + 8, mask1);
  }
  const float* ap = a;
  const float* bp = b;
  for (int64_t p = 0; p < kc; ++p) {
    const __m256 b0 = _mm256_loadu_ps(bp);
    const __m256 b1 = _mm256_maskload_ps(bp + 8, mask1);
    __m256 ar = _mm256_broadcast_ss(ap);
    c00 = _mm256_fmadd_ps(ar, b0, c00);
    c01 = _mm256_fmadd_ps(ar, b1, c01);
    if constexpr (MR_ > 1) {
      ar = _mm256_broadcast_ss(ap + 1);
      c10 = _mm256_fmadd_ps(ar, b0, c10);
      c11 = _mm256_fmadd_ps(ar, b1, c11);
    }
    if constexpr (MR_ > 2) {
      ar = _mm256_broadcast_ss(ap + 2);
      c20 = _mm256_fmadd_ps(ar, b0, c20);
      c21 = _mm256_fmadd_ps(ar, b1, c21);
    }
    if constexpr (MR_ > 3) {
      ar = _mm256_broadcast_ss(ap + 3);
      c30 = _mm256_fmadd_ps(ar, b0, c30);
      c31 = _mm256_fmadd_ps(ar, b1, c31);
    }
    if constexpr (MR_ > 4) {
      ar = _mm256_broadcast_ss(ap + 4);
      c40 = _mm256_fmadd_ps(ar, b0, c40);
      c41 = _mm256_fmadd_ps(ar, b1, c41);
    }
    if constexpr (MR_ > 5) {
      ar = _mm256_broadcast_ss(ap + 5);
      c50 = _mm256_fmadd_ps(ar, b0, c50);
      c51 = _mm256_fmadd_ps(ar, b1, c51);
    }
    ap += kGemmMR;
    bp += ldb;
  }
  _mm256_storeu_ps(c, c00);
  _mm256_maskstore_ps(c + 8, mask1, c01);
  if constexpr (MR_ > 1) {
    _mm256_storeu_ps(c + ldc, c10);
    _mm256_maskstore_ps(c + ldc + 8, mask1, c11);
  }
  if constexpr (MR_ > 2) {
    _mm256_storeu_ps(c + 2 * ldc, c20);
    _mm256_maskstore_ps(c + 2 * ldc + 8, mask1, c21);
  }
  if constexpr (MR_ > 3) {
    _mm256_storeu_ps(c + 3 * ldc, c30);
    _mm256_maskstore_ps(c + 3 * ldc + 8, mask1, c31);
  }
  if constexpr (MR_ > 4) {
    _mm256_storeu_ps(c + 4 * ldc, c40);
    _mm256_maskstore_ps(c + 4 * ldc + 8, mask1, c41);
  }
  if constexpr (MR_ > 5) {
    _mm256_storeu_ps(c + 5 * ldc, c50);
    _mm256_maskstore_ps(c + 5 * ldc + 8, mask1, c51);
  }
}

// nr == 9 — the yolo-head 3x3-spatial edge. The generic
// 8 < nr < 16 tile above burns a second FMA per row on a register with
// one live lane; here the 9th column of all MR_ rows instead accumulates
// in a single register whose lane i is C[i][8] (the A panel already
// stores the MR_ row entries of each k step contiguously, so one masked
// load yields that column vector). Per k step: MR_ + 1 FMAs instead of
// 2*MR_. Lane i's chain is still the canonical k-ascending fused
// multiply-add seeded from C, so results stay bitwise identical to the
// reference; dead lanes MR_..7 are never stored.
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

// nr <= 8: one accumulator register per C row and one mask-loaded B
// vector per k step — half the FMA/load work of the masked tile.
template <int MR_>
void TileAvx2Half(int64_t kc, const float* a, const float* b, int64_t ldb,
                  float* c, int64_t ldc, __m256i mask0) {
  static_assert(MR_ >= 1 && MR_ <= kGemmMR, "row count exceeds panel stride");
  __m256 c00, c10, c20, c30, c40, c50;
  c00 = _mm256_maskload_ps(c, mask0);
  if constexpr (MR_ > 1) c10 = _mm256_maskload_ps(c + ldc, mask0);
  if constexpr (MR_ > 2) c20 = _mm256_maskload_ps(c + 2 * ldc, mask0);
  if constexpr (MR_ > 3) c30 = _mm256_maskload_ps(c + 3 * ldc, mask0);
  if constexpr (MR_ > 4) c40 = _mm256_maskload_ps(c + 4 * ldc, mask0);
  if constexpr (MR_ > 5) c50 = _mm256_maskload_ps(c + 5 * ldc, mask0);
  const float* ap = a;
  const float* bp = b;
  for (int64_t p = 0; p < kc; ++p) {
    const __m256 b0 = _mm256_maskload_ps(bp, mask0);
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
  _mm256_maskstore_ps(c, mask0, c00);
  if constexpr (MR_ > 1) _mm256_maskstore_ps(c + ldc, mask0, c10);
  if constexpr (MR_ > 2) _mm256_maskstore_ps(c + 2 * ldc, mask0, c20);
  if constexpr (MR_ > 3) _mm256_maskstore_ps(c + 3 * ldc, mask0, c30);
  if constexpr (MR_ > 4) _mm256_maskstore_ps(c + 4 * ldc, mask0, c40);
  if constexpr (MR_ > 5) _mm256_maskstore_ps(c + 5 * ldc, mask0, c50);
}

void EdgeAvx2(int64_t kc, const float* a, const float* b, int64_t ldb,
              float* c, int64_t ldc, int mr, int nr) {
  if (nr == kGemmNR) {
    switch (mr) {
      case 1:
        return TileAvx2<1>(kc, a, b, ldb, c, ldc);
      case 2:
        return TileAvx2<2>(kc, a, b, ldb, c, ldc);
      case 3:
        return TileAvx2<3>(kc, a, b, ldb, c, ldc);
      case 4:
        return TileAvx2<4>(kc, a, b, ldb, c, ldc);
      case 5:
        return TileAvx2<5>(kc, a, b, ldb, c, ldc);
      case 6:
        return TileAvx2<6>(kc, a, b, ldb, c, ldc);
    }
  }
  if (nr == 9) {
    switch (mr) {
      case 1:
        return TileAvx2Nine<1>(kc, a, b, ldb, c, ldc);
      case 2:
        return TileAvx2Nine<2>(kc, a, b, ldb, c, ldc);
      case 3:
        return TileAvx2Nine<3>(kc, a, b, ldb, c, ldc);
      case 4:
        return TileAvx2Nine<4>(kc, a, b, ldb, c, ldc);
      case 5:
        return TileAvx2Nine<5>(kc, a, b, ldb, c, ldc);
      case 6:
        return TileAvx2Nine<6>(kc, a, b, ldb, c, ldc);
    }
  }
  const __m256i mask0 = _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(kMaskTable + (kGemmNR - nr)));
  if (nr <= 8) {
    switch (mr) {
      case 1:
        return TileAvx2Half<1>(kc, a, b, ldb, c, ldc, mask0);
      case 2:
        return TileAvx2Half<2>(kc, a, b, ldb, c, ldc, mask0);
      case 3:
        return TileAvx2Half<3>(kc, a, b, ldb, c, ldc, mask0);
      case 4:
        return TileAvx2Half<4>(kc, a, b, ldb, c, ldc, mask0);
      case 5:
        return TileAvx2Half<5>(kc, a, b, ldb, c, ldc, mask0);
      case 6:
        return TileAvx2Half<6>(kc, a, b, ldb, c, ldc, mask0);
    }
  }
  const __m256i mask1 = _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(kMaskTable + (kGemmNR - nr) + 8));
  switch (mr) {
    case 1:
      return TileAvx2Masked<1>(kc, a, b, ldb, c, ldc, mask1);
    case 2:
      return TileAvx2Masked<2>(kc, a, b, ldb, c, ldc, mask1);
    case 3:
      return TileAvx2Masked<3>(kc, a, b, ldb, c, ldc, mask1);
    case 4:
      return TileAvx2Masked<4>(kc, a, b, ldb, c, ldc, mask1);
    case 5:
      return TileAvx2Masked<5>(kc, a, b, ldb, c, ldc, mask1);
    case 6:
      return TileAvx2Masked<6>(kc, a, b, ldb, c, ldc, mask1);
  }
  // Unreachable for valid 1 <= mr <= 6; keep the scalar fused chain as a
  // defensive fallback (bitwise-identical to the vector lanes).
  gemm_detail::EdgeGeneric<FmaOp>(kc, a, b, ldb, c, ldc, mr, nr);
}

const GemmKernel kAvx2Kernel = {
    /*name=*/"avx2-fma-6x16",
    /*fused=*/true,
    /*tile=*/&TileAvx2<kGemmMR>,
    /*edge=*/&EdgeAvx2,
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
