#include "tensor/gemm.h"

#include <algorithm>

#include "base/logging.h"
#include "base/thread_pool.h"
#include "tensor/act_kernels.h"
#include "tensor/gemm_microkernel.h"
#include "tensor/gemm_pack.h"

namespace thali {

namespace {

// Work below this many multiply-adds per chunk runs as one chunk; the
// ParallelFor grain is derived from it so tiny GEMMs stay inline.
constexpr int64_t kGrainFlops = 1 << 15;

// Row tiles per MC cache block.
constexpr int64_t kTilesPerMc = kGemmMC / kGemmMR;
static_assert(kGemmMC % kGemmMR == 0, "MC must be a multiple of MR");
static_assert(kGemmNC % kGemmNR == 0, "NC must be a multiple of NR");

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

// Bias then activation over a rectangle of C, replicating the conv
// layer's separate passes op for op (see src/nn/activation.cc): two
// sweeps, bias first, exact leaky/ReLU formulas.
void ApplyEpilogue(const GemmEpilogue& e, int64_t i0, int64_t i1, int64_t j0,
                   int64_t j1, float* c, int64_t ldc) {
  if (e.bias != nullptr) {
    for (int64_t i = i0; i < i1; ++i) {
      float* ci = c + i * ldc;
      const float bi = e.bias[i];
      for (int64_t j = j0; j < j1; ++j) ci[j] += bi;
    }
  }
  switch (e.activation) {
    case GemmActivation::kNone:
      break;
    case GemmActivation::kLeaky:
      for (int64_t i = i0; i < i1; ++i) {
        float* ci = c + i * ldc;
        for (int64_t j = j0; j < j1; ++j) {
          ci[j] = ci[j] > 0 ? ci[j] : 0.1f * ci[j];
        }
      }
      break;
    case GemmActivation::kRelu:
      for (int64_t i = i0; i < i1; ++i) {
        float* ci = c + i * ldc;
        for (int64_t j = j0; j < j1; ++j) ci[j] = ci[j] > 0 ? ci[j] : 0.0f;
      }
      break;
    case GemmActivation::kMish:
      // Fast-family mish per row segment; per-element and independent of
      // the (i, j) split, so thread decomposition stays bitwise-neutral.
      for (int64_t i = i0; i < i1; ++i) {
        FastMishInPlace(c + i * ldc + j0, j1 - j0);
      }
      break;
  }
}

// Packed-path worker: computes C row tiles [t0, t1) end to end (beta
// scale, all k blocks in ascending order, optional epilogue). Threads
// own disjoint row-tile ranges of C and there is no cross-thread
// reduction, so any parallel split is bitwise identical to sequential.
//
// Loop nest (BLIS order jc -> pc -> ic -> jr -> ir): one packed B block
// (KC x NC at most, 512 KB) is built per (jc, pc) and swept by all the
// strand's row tiles; A is consumed from the caller's pre-packed blob
// when given, otherwise packed MC rows at a time into scratch. The pack
// buffers are thread_local (see gemm_pack.h for why tid indexing would
// be wrong here).
void PackedRows(const GemmKernel& kernel, int64_t t0, int64_t t1, bool ta,
                bool tb, int64_t m, int64_t n, int64_t k, float alpha,
                const float* a, int64_t lda, const float* prepacked_a,
                const float* b, int64_t ldb, float beta, float* c, int64_t ldc,
                const GemmEpilogue* epilogue) {
  const int64_t i_lo = t0 * kGemmMR;
  const int64_t i_hi = std::min(m, t1 * kGemmMR);
  if (i_lo >= i_hi) return;
  BetaPass(i_lo, i_hi, n, beta, c, ldc);

  const bool accumulate = k > 0 && alpha != 0.0f;
  const int64_t padded_m = GemmPackedRowTiles(m) * kGemmMR;

  // Stream B: skip GemmPackB and read op(B) rows in place when the
  // problem is too thin or too short to amortize the pack traffic —
  // either a single NR strip of columns (the yolo-head n = 9 .. 33
  // GEMMs) or at most two row tiles of A sweeping each packed strip
  // once (the first-layer m = 8 im2col GEMM, where packing B costs more
  // than the whole accumulation). The kernels read B at a row stride
  // either way: b itself at ldb here, a zero-padded packed strip at
  // kGemmNR otherwise. Their masked loads make dead columns exactly the
  // zero the strip's padding holds, so the two sources give the same
  // bits. The predicate depends only on the problem shape, never on the
  // thread split.
  const bool stream_b =
      !tb && (n <= kGemmNR || GemmPackedRowTiles(m) <= 2 ||
              (k <= 32 && GemmPackedRowTiles(m) <= 4));
  const int64_t b_stride = stream_b ? ldb : kGemmNR;

  for (int64_t jc = 0; jc < n; jc += kGemmNC) {
    const int64_t nc = std::min(kGemmNC, n - jc);
    const int64_t strips = (nc + kGemmNR - 1) / kGemmNR;
    if (accumulate) {
      for (int64_t pc = 0; pc < k; pc += kGemmKC) {
        const int64_t kcb = std::min(kGemmKC, k - pc);
        const float* bpack = nullptr;
        if (!stream_b) {
          float* scratch = GemmPackScratchB(kcb * strips * kGemmNR);
          GemmPackB(tb, b, ldb, pc, kcb, jc, nc, scratch);
          bpack = scratch;
        }
        for (int64_t ta0 = t0; ta0 < t1; ta0 += kTilesPerMc) {
          const int64_t ta1 = std::min(t1, ta0 + kTilesPerMc);
          const float* apack;
          int64_t a_tile_base;  // tile index whose panel sits at apack
          if (prepacked_a != nullptr) {
            apack = prepacked_a + pc * padded_m + ta0 * kGemmMR * kcb;
            a_tile_base = ta0;
          } else {
            const int64_t i0 = ta0 * kGemmMR;
            const int64_t mb = std::min(i_hi, ta1 * kGemmMR) - i0;
            float* scratch = GemmPackScratchA((ta1 - ta0) * kGemmMR * kcb);
            GemmPackA(ta, a, lda, i0, mb, pc, kcb, alpha, scratch);
            apack = scratch;
            a_tile_base = ta0;
          }
          for (int64_t u = 0; u < strips; ++u) {
            const int nr =
                static_cast<int>(std::min<int64_t>(kGemmNR, nc - u * kGemmNR));
            const float* bstrip = stream_b
                                      ? b + pc * ldb + jc + u * kGemmNR
                                      : bpack + u * kcb * kGemmNR;
            for (int64_t t = ta0; t < ta1; ++t) {
              const int mr =
                  static_cast<int>(std::min<int64_t>(kGemmMR, i_hi - t * kGemmMR));
              const float* atile = apack + (t - a_tile_base) * kGemmMR * kcb;
              float* ctile = c + t * kGemmMR * ldc + jc + u * kGemmNR;
              if (mr == kGemmMR && nr == kGemmNR) {
                kernel.tile(kcb, atile, bstrip, b_stride, ctile, ldc);
              } else {
                kernel.edge(kcb, atile, bstrip, b_stride, ctile, ldc, mr, nr);
              }
            }
          }
        }
      }
    }
    if (epilogue != nullptr) {
      ApplyEpilogue(*epilogue, i_lo, i_hi, jc, jc + nc, c, ldc);
    }
  }
}

void PackedGemm(const GemmKernel& kernel, bool ta, bool tb, int64_t m,
                int64_t n, int64_t k, float alpha, const float* a, int64_t lda,
                const float* prepacked_a, const float* b, int64_t ldb,
                float beta, float* c, int64_t ldc,
                const GemmEpilogue* epilogue) {
  const int64_t tiles = GemmPackedRowTiles(m);
  const int64_t total_flops = m * n * std::max<int64_t>(k, 1);
  if (total_flops <= kGrainFlops) {
    // Small problem: skip the thread-pool machinery entirely. Identical
    // arithmetic to the parallel split by the determinism contract.
    PackedRows(kernel, 0, tiles, ta, tb, m, n, k, alpha, a, lda, prepacked_a,
               b, ldb, beta, c, ldc, epilogue);
    return;
  }
  const int64_t tile_flops =
      std::max<int64_t>(1, kGemmMR * n * std::max<int64_t>(k, 1));
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
  THALI_CHECK_GT(m, 0);
  THALI_CHECK_GT(n, 0);
  THALI_CHECK_GT(k, 0);
  PackedGemm(SelectGemmKernel(), /*ta=*/false, /*tb=*/false, m, n, k,
             /*alpha=*/1.0f, /*a=*/nullptr, /*lda=*/0, packed_a, b, ldb,
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

}  // namespace internal

}  // namespace thali
