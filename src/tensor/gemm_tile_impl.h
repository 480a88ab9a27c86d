#ifndef THALI_TENSOR_GEMM_TILE_IMPL_H_
#define THALI_TENSOR_GEMM_TILE_IMPL_H_

// Shared implementation templates for the GEMM kernel families
// (gemm_microkernel.h). Included by the family translation units:
// gemm_microkernel.cc (instantiated with MulAddOp, baseline ISA) and
// gemm_microkernel_avx2.cc / gemm_microkernel_avx512.cc (instantiated
// with FmaOp, compiled with their ISA flags so the fma builtin inlines to
// a hardware instruction).
//
// Every function here realizes the canonical per-element accumulation
// chain documented in gemm_microkernel.h; nothing below may reorder,
// block, or partially pre-reduce the k dimension of a single C element.

#include <cstdint>

#include "tensor/gemm_microkernel.h"

namespace thali {
namespace gemm_detail {

// fl(acc + x*y) in two rounded steps. The build pins -ffp-contract=off,
// so the compiler cannot silently fuse this into an fma and break the
// scalar family's chain.
struct MulAddOp {
  static float Apply(float acc, float x, float y) { return acc + x * y; }
};

// One correctly rounded fused step. In the vector TUs this inlines to
// vfmadd and matches _mm256_fmadd_ps / _mm512_fmadd_ps lane arithmetic
// bit-for-bit.
struct FmaOp {
  static float Apply(float acc, float x, float y) {
    return __builtin_fmaf(x, y, acc);
  }
};

// Full MR x NR tile (one panel, one strip, so b_strip is unused). B rows
// sit at stride ldb: a packed strip (ldb = kGemmNR) or the caller's
// row-major B in place. The accumulator array is indexed with
// compile-time bounds so the compiler keeps it in registers and
// vectorizes the j loop.
template <typename Op>
void TileGeneric(int64_t kc, const float* a, const float* b, int64_t ldb,
                 int64_t /*b_strip*/, float* c, int64_t ldc) {
  float acc[kGemmMR][kGemmNR];
  for (int r = 0; r < kGemmMR; ++r) {
    for (int j = 0; j < kGemmNR; ++j) acc[r][j] = c[r * ldc + j];
  }
  for (int64_t p = 0; p < kc; ++p) {
    const float* ap = a + p * kGemmMR;
    const float* bp = b + p * ldb;
    for (int r = 0; r < kGemmMR; ++r) {
      const float ar = ap[r];
      for (int j = 0; j < kGemmNR; ++j) {
        acc[r][j] = Op::Apply(acc[r][j], ar, bp[j]);
      }
    }
  }
  for (int r = 0; r < kGemmMR; ++r) {
    for (int j = 0; j < kGemmNR; ++j) c[r * ldc + j] = acc[r][j];
  }
}

// Partial tile: per-element dot chain, ascending p, touching only the
// mr x nr live corner of C and reading only the nr live columns of B (a
// packed strip's padding is never read into a live element).
template <typename Op>
void EdgeGeneric(int64_t kc, const float* a, const float* b, int64_t ldb,
                 int64_t /*b_strip*/, float* c, int64_t ldc, int mr, int nr) {
  for (int r = 0; r < mr; ++r) {
    for (int j = 0; j < nr; ++j) {
      float acc = c[r * ldc + j];
      for (int64_t p = 0; p < kc; ++p) {
        acc = Op::Apply(acc, a[p * kGemmMR + r], b[p * ldb + j]);
      }
      c[r * ldc + j] = acc;
    }
  }
}

// --- Unpacked reference kernels over the m x n C. Loop structures
// keep the seed kernels' cache blocking where it existed; the inner op
// is the family chain. Alpha is folded into the A element exactly as the
// packed path folds it at pack time (one rounded multiply).

template <typename Op>
void RefNn(int64_t m, int64_t n, int64_t k, float alpha, const float* a,
           int64_t lda, const float* b, int64_t ldb, float* c, int64_t ldc) {
  constexpr int64_t kBlockK = 128;
  constexpr int64_t kBlockM = 64;
  for (int64_t k0 = 0; k0 < k; k0 += kBlockK) {
    const int64_t k1 = k0 + kBlockK < k ? k0 + kBlockK : k;
    for (int64_t mb = 0; mb < m; mb += kBlockM) {
      const int64_t mb1 = mb + kBlockM < m ? mb + kBlockM : m;
      for (int64_t i = mb; i < mb1; ++i) {
        float* ci = c + i * ldc;
        for (int64_t p = k0; p < k1; ++p) {
          const float aip = alpha * a[i * lda + p];
          const float* bp = b + p * ldb;
          for (int64_t j = 0; j < n; ++j) ci[j] = Op::Apply(ci[j], aip, bp[j]);
        }
      }
    }
  }
}

template <typename Op>
void RefTn(int64_t m, int64_t n, int64_t k, float alpha, const float* a,
           int64_t lda, const float* b, int64_t ldb, float* c, int64_t ldc) {
  // A is stored KxM; op(A)(i,p) = a[p*lda + i]. Ascending p per row.
  for (int64_t p = 0; p < k; ++p) {
    const float* ap = a + p * lda;
    const float* bp = b + p * ldb;
    for (int64_t i = 0; i < m; ++i) {
      const float aip = alpha * ap[i];
      float* ci = c + i * ldc;
      for (int64_t j = 0; j < n; ++j) ci[j] = Op::Apply(ci[j], aip, bp[j]);
    }
  }
}

template <typename Op>
void RefNt(int64_t m, int64_t n, int64_t k, float alpha, const float* a,
           int64_t lda, const float* b, int64_t ldb, float* c, int64_t ldc) {
  // B is stored NxK; op(B)(p,j) = b[j*ldb + p]. Dot form keeps both
  // streams contiguous while the per-element chain stays ascending-p.
  for (int64_t i = 0; i < m; ++i) {
    const float* ai = a + i * lda;
    float* ci = c + i * ldc;
    for (int64_t j = 0; j < n; ++j) {
      const float* bj = b + j * ldb;
      float acc = ci[j];
      for (int64_t p = 0; p < k; ++p) {
        acc = Op::Apply(acc, alpha * ai[p], bj[p]);
      }
      ci[j] = acc;
    }
  }
}

template <typename Op>
void RefTt(int64_t m, int64_t n, int64_t k, float alpha, const float* a,
           int64_t lda, const float* b, int64_t ldb, float* c, int64_t ldc) {
  for (int64_t i = 0; i < m; ++i) {
    float* ci = c + i * ldc;
    for (int64_t j = 0; j < n; ++j) {
      const float* bj = b + j * ldb;
      float acc = ci[j];
      for (int64_t p = 0; p < k; ++p) {
        acc = Op::Apply(acc, alpha * a[p * lda + i], bj[p]);
      }
      ci[j] = acc;
    }
  }
}

}  // namespace gemm_detail
}  // namespace thali

#endif  // THALI_TENSOR_GEMM_TILE_IMPL_H_
