#ifndef THALI_TENSOR_GEMM_MICROKERNEL_H_
#define THALI_TENSOR_GEMM_MICROKERNEL_H_

#include <cstdint>

namespace thali {

// Register-tile and cache-block geometry of the packed GEMM (see
// gemm.cc for the driver and gemm_pack.h for the panel layouts).
//
// The microkernel computes an MR x NR tile of C. 6x16 fills the AVX2
// register file: 12 ymm accumulators + 2 B vectors + 1 broadcast leaves
// one spare. The cache blocks keep one A block (MC x KC ~ 120 KB) in L2
// and one packed B panel (KC x NR = 16 KB) hot in L1 while it is swept.
inline constexpr int kGemmMR = 6;
inline constexpr int kGemmNR = 16;
inline constexpr int64_t kGemmKC = 256;  // k cache block (panel depth)
inline constexpr int64_t kGemmMC = 120;  // m cache block (multiple of MR)
inline constexpr int64_t kGemmNC = 512;  // n cache block (multiple of NR)

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
// The chain is a property of the *kernel family*, so the scalar family
// and the AVX2/FMA family each stay internally bit-consistent; a given
// host always dispatches to one family, making results reproducible
// across thread counts, tile shapes and pack-vs-reference paths.
struct GemmKernel {
  const char* name;  // e.g. "avx2-fma-6x16", "scalar-6x16"
  bool fused;        // accumulation chain uses fused multiply-add

  // Full MR x NR register tile: loads C, applies kc rank-1 updates in
  // ascending-k order, stores C. `a` is a kc x MR column panel (stride
  // MR). `b` holds kc rows of NR columns at row stride `ldb`: a packed
  // strip (ldb = kGemmNR, zero-padded past the last live column) or op(B)
  // read in place from the caller's non-transposed row-major matrix.
  void (*tile)(int64_t kc, const float* a, const float* b, int64_t ldb,
               float* c, int64_t ldc);

  // Partial tile (1 <= mr <= MR, 1 <= nr <= NR), same operands and
  // per-element chain; touches only the mr x nr live corner of C and
  // reads only the nr live columns of each B row (masked loads make a
  // dead column exactly zero, the value a packed strip's padding holds).
  // So packed and in-place B give the same bits, and B may end right
  // after its last live element.
  void (*edge)(int64_t kc, const float* a, const float* b, int64_t ldb,
               float* c, int64_t ldc, int mr, int nr);

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

// Portable kernel family (separate multiply + add chain). Always
// available.
const GemmKernel& ScalarGemmKernel();

// AVX2+FMA kernel family, built in its own translation unit with
// per-file -mavx2 -mfma so the rest of the library stays baseline
// x86-64. Returns nullptr when the TU was compiled without AVX2 support
// (non-x86 targets); the caller must additionally check CpuInfo()
// before dispatching to it.
const GemmKernel* Avx2GemmKernel();

// The kernel family this host dispatches to, detected once on first
// use: AVX2 when the CPU reports both AVX2 and FMA, scalar otherwise —
// or scalar while internal::SetScalarKernelsForTesting
// (base/cpu_features.h) forces it.
const GemmKernel& SelectGemmKernel();

}  // namespace thali

#endif  // THALI_TENSOR_GEMM_MICROKERNEL_H_
