#include "tensor/gemm_pack.h"

#include <cstdlib>

#include "tensor/gemm_microkernel.h"

namespace thali {

namespace {

// Lazily grown 64-byte-aligned float buffer, one per OS thread.
struct AlignedScratch {
  float* data = nullptr;
  int64_t capacity = 0;

  ~AlignedScratch() { std::free(data); }

  float* Ensure(int64_t floats) {
    if (floats > capacity) {
      std::free(data);
      // aligned_alloc requires the size to be a multiple of the alignment.
      const size_t bytes =
          (static_cast<size_t>(floats) * sizeof(float) + 63u) & ~size_t{63};
      data = static_cast<float*>(std::aligned_alloc(64, bytes));
      capacity = floats;
    }
    return data;
  }
};

}  // namespace

int64_t GemmPackedRowTiles(int64_t m) {
  return (m + kGemmMR - 1) / kGemmMR;
}

int64_t GemmPackedWeightFloats(int64_t m, int64_t k) {
  return GemmPackedRowTiles(m) * kGemmMR * k;
}

void GemmPackA(bool trans_a, const float* a, int64_t lda, int64_t i0,
               int64_t mb, int64_t p0, int64_t kb, float alpha, float* dst) {
  const int64_t tiles = GemmPackedRowTiles(mb);
  for (int64_t t = 0; t < tiles; ++t) {
    const int64_t row0 = i0 + t * kGemmMR;
    const int64_t rows =
        mb - t * kGemmMR < kGemmMR ? mb - t * kGemmMR : kGemmMR;
    float* panel = dst + t * kGemmMR * kb;
    for (int64_t p = 0; p < kb; ++p) {
      float* out = panel + p * kGemmMR;
      if (!trans_a) {
        for (int64_t r = 0; r < rows; ++r) {
          out[r] = alpha * a[(row0 + r) * lda + (p0 + p)];
        }
      } else {
        const float* ap = a + (p0 + p) * lda;
        for (int64_t r = 0; r < rows; ++r) out[r] = alpha * ap[row0 + r];
      }
      for (int64_t r = rows; r < kGemmMR; ++r) out[r] = 0.0f;
    }
  }
}

void GemmPackB(const float* b, int64_t ldb, int64_t p0, int64_t kb,
               int64_t j0, int64_t nb, float* dst) {
  const int64_t strips = (nb + kGemmNR - 1) / kGemmNR;
  for (int64_t u = 0; u < strips; ++u) {
    const int64_t col0 = j0 + u * kGemmNR;
    const int64_t cols =
        nb - u * kGemmNR < kGemmNR ? nb - u * kGemmNR : kGemmNR;
    float* panel = dst + u * kb * kGemmNR;
    for (int64_t p = 0; p < kb; ++p) {
      float* out = panel + p * kGemmNR;
      for (int64_t j = 0; j < cols; ++j) {
        out[j] = b[(col0 + j) * ldb + (p0 + p)];
      }
      for (int64_t j = cols; j < kGemmNR; ++j) out[j] = 0.0f;
    }
  }
}

void GemmPackMatrixA(bool trans_a, const float* a, int64_t lda, int64_t m,
                     int64_t k, float alpha, float* dst) {
  const int64_t padded_m = GemmPackedRowTiles(m) * kGemmMR;
  for (int64_t p0 = 0; p0 < k; p0 += kGemmKC) {
    const int64_t kcb = k - p0 < kGemmKC ? k - p0 : kGemmKC;
    GemmPackA(trans_a, a, lda, /*i0=*/0, m, p0, kcb, alpha,
              dst + p0 * padded_m);
  }
}

float* GemmPackScratchA(int64_t floats) {
  thread_local AlignedScratch scratch;
  return scratch.Ensure(floats);
}

float* GemmPackScratchB(int64_t floats) {
  thread_local AlignedScratch scratch;
  return scratch.Ensure(floats);
}

}  // namespace thali
