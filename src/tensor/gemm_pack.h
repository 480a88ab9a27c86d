#ifndef THALI_TENSOR_GEMM_PACK_H_
#define THALI_TENSOR_GEMM_PACK_H_

#include <cstdint>

namespace thali {

// Panel packing for the blocked GEMM driver (gemm.cc).
//
// A panels (column-major tiles): rows are grouped into tiles of kGemmMR;
// tile t of a pack covering kb k-steps lives at offset t*kGemmMR*kb, and
// element (p, r) of a tile at panel[p*kGemmMR + r]. Rows past the end of
// the matrix are zero-padded so the microkernel can always run a full
// MR-row tile; alpha is folded into the packed values with the same
// single rounded multiply the reference kernels use (`alpha * a[i][p]`).
//
// B panels (row-major strips), for a transposed B only: a non-transposed
// B is already row-major and the microkernels read it where the caller
// wrote it. Columns are grouped into strips of kGemmNR; strip u lives at
// offset u*kb*kGemmNR, and element (p, j) at panel[p*kGemmNR + j],
// zero-padded past the last column. The microkernels read a strip as B
// at row stride kGemmNR, with the same unaligned loads they use on B in
// place. Strips start 64-byte aligned and a row is kGemmNR floats = 64
// bytes, so no strip row splits a cache line.

// Number of MR-row tiles needed for m rows.
int64_t GemmPackedRowTiles(int64_t m);

// Floats required to pre-pack a full m x k op(A): ceil(m/MR)*MR * k.
int64_t GemmPackedWeightFloats(int64_t m, int64_t k);

// Pack op(A) rows [i0, i0+mb) x k-range [p0, p0+kb) into `dst`
// (GemmPackedRowTiles(mb)*MR*kb floats). op(A)(i,p) is a[i*lda+p], or
// a[p*lda+i] when trans_a.
void GemmPackA(bool trans_a, const float* a, int64_t lda, int64_t i0,
               int64_t mb, int64_t p0, int64_t kb, float alpha, float* dst);

// Pack op(B) = B^T, k-range [p0, p0+kb) x cols [j0, j0+nb), into `dst`
// (kb * ceil(nb/NR)*NR floats); op(B)(p,j) is b[j*ldb+p].
void GemmPackB(const float* b, int64_t ldb, int64_t p0, int64_t kb,
               int64_t j0, int64_t nb, float* dst);

// Pre-pack all of op(A) (m x k), blocked by kGemmKC exactly as the
// driver consumes it: the block for k-range [p0, p0+kcb) starts at
// dst + p0 * (GemmPackedRowTiles(m) * kGemmMR), with the tile layout
// above inside each block. `dst` must hold GemmPackedWeightFloats(m, k)
// floats and should be 64-byte aligned.
void GemmPackMatrixA(bool trans_a, const float* a, int64_t lda, int64_t m,
                     int64_t k, float alpha, float* dst);

// Per-thread 64-byte-aligned scratch for on-the-fly packing, grown
// lazily and reused across calls. thread_local rather than tid-indexed:
// a Gemm nested under an outer ParallelFor runs inline on the *outer*
// worker threads, where every strand reports tid 0 — indexing by tid
// would alias buffers across true OS threads, while thread_local cannot.
float* GemmPackScratchA(int64_t floats);
float* GemmPackScratchB(int64_t floats);

}  // namespace thali

#endif  // THALI_TENSOR_GEMM_PACK_H_
