#include "tensor/gemm.h"

#include <algorithm>

#include "base/logging.h"
#include "base/thread_pool.h"
#include "tensor/gemm_microkernel.h"
#include "tensor/gemm_pack.h"

namespace thali {

namespace {

// Work below this many multiply-adds per chunk runs as one chunk; the
// ParallelFor grain is derived from it so tiny GEMMs stay inline.
constexpr int64_t kGrainFlops = 1 << 15;

static_assert(kGemmMC % (2 * kGemmMR) == 0, "MC must hold whole tiles");
static_assert(kGemmNC % (2 * kGemmNR) == 0, "NC must hold whole tiles");

void BetaPass(int64_t m0, int64_t m1, int64_t n, float beta, float* c,
              int64_t ldc) {
  if (beta == 1.0f) return;
  for (int64_t i = m0; i < m1; ++i) {
    float* ci = c + i * ldc;
    if (beta == 0.0f) {
      std::fill(ci, ci + n, 0.0f);
    } else {
      for (int64_t j = 0; j < n; ++j) ci[j] *= beta;
    }
  }
}

// Packed-path worker: computes C row tiles [t0, t1) end to end (beta
// scale, all k blocks in ascending order, then each tile's epilogue).
// A row tile is the kernel family's tile height, kernel.panels A panels.
// Threads own disjoint row-tile ranges of C and there is no cross-thread
// reduction, so any parallel split is bitwise identical to sequential.
//
// Loop nest (BLIS order jc -> pc -> ic -> jr -> ir): for each (jc, pc)
// block every row tile of the strand sweeps the block's B columns one
// register tile wide. A is consumed from the caller's pre-packed blob
// when given, otherwise packed MC rows at a time into scratch. A
// non-transposed B is read where the caller wrote it, at its own row
// stride ldb; a transposed B is packed per block into kGemmNR-column
// strips. The pack buffers are thread_local (see gemm_pack.h for why tid
// indexing would be wrong here). A tile whose last k block is done gets
// the epilogue at once, while it is still in L1.
void PackedRows(const GemmKernel& kernel, int64_t t0, int64_t t1, bool ta,
                bool tb, int64_t m, int64_t n, int64_t k, float alpha,
                const float* a, int64_t lda, const float* prepacked_a,
                const float* b, int64_t ldb, float beta, float* c, int64_t ldc,
                const GemmEpilogue* epilogue) {
  const int64_t tile_m = kernel.panels * kGemmMR;
  const int64_t tile_n = kernel.strips * kGemmNR;
  const int64_t i_lo = t0 * tile_m;
  const int64_t i_hi = std::min(m, t1 * tile_m);
  if (i_lo >= i_hi) return;
  BetaPass(i_lo, i_hi, n, beta, c, ldc);
  // GemmPrepacked, the only caller with an epilogue, has k > 0 and
  // alpha == 1, so every epilogue runs after a last k block below.
  if (k == 0 || alpha == 0.0f) return;

  const int64_t padded_m = GemmPackedRowTiles(m) * kGemmMR;
  const int64_t tiles_per_mc = kGemmMC / tile_m;
  for (int64_t jc = 0; jc < n; jc += kGemmNC) {
    const int64_t nc = std::min(kGemmNC, n - jc);
    for (int64_t pc = 0; pc < k; pc += kGemmKC) {
      const int64_t kcb = std::min(kGemmKC, k - pc);
      const bool finish = epilogue != nullptr && pc + kcb == k;
      // op(B) rows [pc, pc + kcb) of columns [jc, jc + nc): row stride
      // b_ld, and strip u (kGemmNR columns) at bblock + u * b_strip.
      const float* bblock;
      int64_t b_ld, b_strip;
      if (tb) {
        const int64_t strips = (nc + kGemmNR - 1) / kGemmNR;
        float* scratch = GemmPackScratchB(kcb * strips * kGemmNR);
        GemmPackB(b, ldb, pc, kcb, jc, nc, scratch);
        bblock = scratch;
        b_ld = kGemmNR;
        b_strip = kcb * kGemmNR;
      } else {
        bblock = b + pc * ldb + jc;
        b_ld = ldb;
        b_strip = kGemmNR;
      }
      for (int64_t ta0 = t0; ta0 < t1; ta0 += tiles_per_mc) {
        const int64_t ta1 = std::min(t1, ta0 + tiles_per_mc);
        const int64_t i0 = ta0 * tile_m;
        const float* apack;  // the A panels of the rows from i0 on
        if (prepacked_a != nullptr) {
          apack = prepacked_a + pc * padded_m + i0 * kcb;
        } else {
          const int64_t mb = std::min(i_hi, ta1 * tile_m) - i0;
          float* scratch =
              GemmPackScratchA(GemmPackedRowTiles(mb) * kGemmMR * kcb);
          GemmPackA(ta, a, lda, i0, mb, pc, kcb, alpha, scratch);
          apack = scratch;
        }
        for (int64_t j = 0; j < nc; j += tile_n) {
          const int nr = static_cast<int>(std::min(tile_n, nc - j));
          const float* btile = bblock + (j / kGemmNR) * b_strip;
          for (int64_t t = ta0; t < ta1; ++t) {
            const int64_t i = t * tile_m;
            const int mr = static_cast<int>(std::min(tile_m, i_hi - i));
            const float* atile = apack + (i - i0) * kcb;
            float* ctile = c + i * ldc + jc + j;
            if (mr == tile_m && nr == tile_n) {
              kernel.tile(kcb, atile, btile, b_ld, b_strip, ctile, ldc);
            } else {
              kernel.edge(kcb, atile, btile, b_ld, b_strip, ctile, ldc, mr,
                          nr);
            }
            if (finish) {
              kernel.finish(ctile, ldc, mr, nr,
                            epilogue->bias != nullptr ? epilogue->bias + i
                                                      : nullptr,
                            epilogue->activation);
            }
          }
        }
      }
    }
  }
}

void PackedGemm(const GemmKernel& kernel, bool ta, bool tb, int64_t m,
                int64_t n, int64_t k, float alpha, const float* a, int64_t lda,
                const float* prepacked_a, const float* b, int64_t ldb,
                float beta, float* c, int64_t ldc,
                const GemmEpilogue* epilogue) {
  const int64_t tile_m = kernel.panels * kGemmMR;
  const int64_t tiles = (m + tile_m - 1) / tile_m;
  const int64_t total_flops = m * n * std::max<int64_t>(k, 1);
  if (total_flops <= kGrainFlops) {
    // Small problem: skip the thread-pool machinery entirely. Identical
    // arithmetic to the parallel split by the determinism contract.
    PackedRows(kernel, 0, tiles, ta, tb, m, n, k, alpha, a, lda, prepacked_a,
               b, ldb, beta, c, ldc, epilogue);
    return;
  }
  const int64_t tile_flops =
      std::max<int64_t>(1, tile_m * n * std::max<int64_t>(k, 1));
  const int64_t grain = std::max<int64_t>(1, kGrainFlops / tile_flops);
  ParallelFor(0, tiles, grain, [&](int64_t w0, int64_t w1, int) {
    PackedRows(kernel, w0, w1, ta, tb, m, n, k, alpha, a, lda, prepacked_a, b,
               ldb, beta, c, ldc, epilogue);
  });
}

}  // namespace

void Gemm(bool ta, bool tb, int64_t m, int64_t n, int64_t k, float alpha,
          const float* a, int64_t lda, const float* b, int64_t ldb, float beta,
          float* c, int64_t ldc) {
  THALI_CHECK_GE(m, 0);
  THALI_CHECK_GE(n, 0);
  THALI_CHECK_GE(k, 0);
  if (m == 0 || n == 0) return;
  // Degenerate: no accumulation and beta leaves C untouched.
  if ((k == 0 || alpha == 0.0f) && beta == 1.0f) return;

  PackedGemm(SelectGemmKernel(), ta, tb, m, n, k, alpha, a, lda,
             /*prepacked_a=*/nullptr, b, ldb, beta, c, ldc,
             /*epilogue=*/nullptr);
}

void GemmPackWeights(const float* a, int64_t m, int64_t k, float* packed) {
  GemmPackMatrixA(/*trans_a=*/false, a, /*lda=*/k, m, k, /*alpha=*/1.0f,
                  packed);
}

void GemmPrepacked(int64_t m, int64_t n, int64_t k, const float* packed_a,
                   const float* b, int64_t ldb, float beta, float* c,
                   int64_t ldc, const GemmEpilogue* epilogue) {
  internal::GemmPrepackedOn(SelectGemmKernel(), m, n, k, packed_a, b, ldb,
                            beta, c, ldc, epilogue);
}

const char* GemmKernelName() { return SelectGemmKernel().name; }

namespace internal {

void GemmReference(bool ta, bool tb, int64_t m, int64_t n, int64_t k,
                   float alpha, const float* a, int64_t lda, const float* b,
                   int64_t ldb, float beta, float* c, int64_t ldc) {
  if (m == 0 || n == 0) return;
  const GemmKernel& kernel = SelectGemmKernel();
  BetaPass(0, m, n, beta, c, ldc);
  if (k == 0 || alpha == 0.0f) return;
  if (!ta && !tb) {
    kernel.ref_nn(m, n, k, alpha, a, lda, b, ldb, c, ldc);
  } else if (ta && !tb) {
    kernel.ref_tn(m, n, k, alpha, a, lda, b, ldb, c, ldc);
  } else if (!ta && tb) {
    kernel.ref_nt(m, n, k, alpha, a, lda, b, ldb, c, ldc);
  } else {
    kernel.ref_tt(m, n, k, alpha, a, lda, b, ldb, c, ldc);
  }
}

void GemmPrepackedOn(const GemmKernel& kernel, int64_t m, int64_t n,
                     int64_t k, const float* packed_a, const float* b,
                     int64_t ldb, float beta, float* c, int64_t ldc,
                     const GemmEpilogue* epilogue) {
  THALI_CHECK_GT(m, 0);
  THALI_CHECK_GT(n, 0);
  THALI_CHECK_GT(k, 0);
  PackedGemm(kernel, /*ta=*/false, /*tb=*/false, m, n, k, /*alpha=*/1.0f,
             /*a=*/nullptr, /*lda=*/0, packed_a, b, ldb, beta, c, ldc,
             epilogue);
}

}  // namespace internal

}  // namespace thali
