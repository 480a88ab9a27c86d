#ifndef THALI_TENSOR_GEMM_MICROKERNEL_H_
#define THALI_TENSOR_GEMM_MICROKERNEL_H_

#include <cstdint>
#include <vector>

#include "tensor/gemm.h"

namespace thali {

// Pack and cache-block geometry of the packed GEMM (see gemm.cc for the
// blocked loop and gemm_pack.h for the panel layouts).
//
// A panels are MR = 6 rows wide and packed B strips NR = 16 columns wide
// in every kernel family; a family's register tile covers a whole number
// of them (GemmKernel::panels x GemmKernel::strips). The cache blocks
// keep one A block (MC x KC ~ 120 KB) in L2 and the B rows a tile sweeps
// (KC rows of at most two strips) in L1.
inline constexpr int kGemmMR = 6;
inline constexpr int kGemmNR = 16;
inline constexpr int64_t kGemmKC = 256;  // k cache block (panel depth)
inline constexpr int64_t kGemmMC = 120;  // m cache block (12 | MC)
inline constexpr int64_t kGemmNC = 512;  // n cache block (32 | NC)

// One family of GEMM kernels sharing a single per-element accumulation
// chain. The determinism contract of this repo requires every path that
// can compute the same C element (full tile, edge tile, packed or
// in-place B, unpacked reference, any thread count) to perform the exact
// same sequence of IEEE operations on it:
//
//   c = beta * c                      (or 0 when beta == 0)
//   for p in 0..k-1 ascending:        (rank-1 updates, k-outer)
//     c = MulAdd(c, alpha * a[i][p], b[p][j])
//
// where MulAdd is either fused (one correctly rounded fma, used when the
// host CPU has FMA) or a separate multiply + add (portable fallback).
// The chain is a property of the arithmetic, not of the vector width:
// the AVX2 and AVX-512 families both run the fused chain, so they give
// the same bits, and the scalar family stays bit-consistent with itself.
// Results are reproducible across thread counts, tile shapes and
// pack-vs-reference paths; only fused vs unfused differs.
struct GemmKernel {
  const char* name;  // e.g. "avx512-fma-12x32", "scalar-6x16"
  bool fused;        // accumulation chain uses fused multiply-add
  // Register tile, in pack units: `panels` consecutive A panels by
  // `strips` consecutive B strips, so panels * kGemmMR rows by
  // strips * kGemmNR columns.
  int panels;
  int strips;

  // Full register tile: loads C, applies kc rank-1 updates in
  // ascending-k order, stores C. `a` is the tile's first kc x MR A panel
  // (stride MR); panel q starts at a + q * kGemmMR * kc. `b` holds kc
  // rows at row stride `ldb`, and the tile's strip s starts at
  // b + s * b_strip: a packed transposed B (ldb = kGemmNR, zero-padded
  // past the last live column, b_strip = kc * kGemmNR) or the caller's
  // row-major B in place (its own ldb, b_strip = kGemmNR).
  void (*tile)(int64_t kc, const float* a, const float* b, int64_t ldb,
               int64_t b_strip, float* c, int64_t ldc);

  // Partial tile (1 <= mr <= tile rows, 1 <= nr <= tile columns), same
  // operands and per-element chain; touches only the mr x nr live corner
  // of C, reads only the A panels that hold its mr rows, and reads only
  // the nr live columns of each B row (masked loads make a dead column
  // exactly zero, the value a packed strip's padding holds). So packed
  // and in-place B give the same bits, and B may end right after its
  // last live element.
  void (*edge)(int64_t kc, const float* a, const float* b, int64_t ldb,
               int64_t b_strip, float* c, int64_t ldc, int mr, int nr);

  // The epilogue of a finished mr x nr tile (bounds as for edge), while
  // it is still in L1: C row r gets bias[r] added (no bias when null),
  // then the activation. The per-element ops are those of the conv
  // layer's separate passes (src/nn/activation.cc for leaky and ReLU,
  // FastMish of tensor/act_kernels.h for mish), so they give the same
  // bits as a bias pass followed by the activation pass of the same
  // family.
  void (*finish)(float* c, int64_t ldc, int mr, int nr, const float* bias,
                 GemmActivation act);

  // Unpacked reference kernels (the conformance oracle behind
  // internal::GemmReference), one per transpose combination. Accumulate
  // alpha * op(A) * op(B) into the m x n C with the same chain; beta
  // scaling is the caller's job.
  void (*ref_nn)(int64_t m, int64_t n, int64_t k, float alpha, const float* a,
                 int64_t lda, const float* b, int64_t ldb, float* c,
                 int64_t ldc);
  void (*ref_tn)(int64_t m, int64_t n, int64_t k, float alpha, const float* a,
                 int64_t lda, const float* b, int64_t ldb, float* c,
                 int64_t ldc);
  void (*ref_nt)(int64_t m, int64_t n, int64_t k, float alpha, const float* a,
                 int64_t lda, const float* b, int64_t ldb, float* c,
                 int64_t ldc);
  void (*ref_tt)(int64_t m, int64_t n, int64_t k, float alpha, const float* a,
                 int64_t lda, const float* b, int64_t ldb, float* c,
                 int64_t ldc);
};

// Portable kernel family (separate multiply + add chain, 6 x 16 tiles).
// Always available.
const GemmKernel& ScalarGemmKernel();

// The vector families, each built in its own translation unit with
// per-file ISA flags so the rest of the library stays baseline x86-64:
// AVX2+FMA with 6 x 16 tiles, and AVX-512F with 12 x 32 tiles. Each
// returns nullptr when its TU was compiled without the ISA (non-x86
// targets); the caller must additionally check CpuInfo() before running
// it.
const GemmKernel* Avx2GemmKernel();
const GemmKernel* Avx512GemmKernel();

// Every kernel family this host runs, widest first: AVX-512 when the CPU
// reports AVX-512F and FMA, AVX2 when it reports AVX2 and FMA, and
// scalar. Tests and benches compare them through internal::GemmPrepackedOn
// (gemm.h).
std::vector<const GemmKernel*> RunnableGemmKernels();

// The kernel family this host dispatches to: the first of
// RunnableGemmKernels(), detected once on first use — or scalar while
// internal::SetScalarKernelsForTesting (base/cpu_features.h) forces it.
const GemmKernel& SelectGemmKernel();

}  // namespace thali

#endif  // THALI_TENSOR_GEMM_MICROKERNEL_H_
