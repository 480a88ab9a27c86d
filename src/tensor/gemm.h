#ifndef THALI_TENSOR_GEMM_H_
#define THALI_TENSOR_GEMM_H_

#include <cstdint>

namespace thali {

struct GemmKernel;  // tensor/gemm_microkernel.h

// C[MxN] = alpha * op(A) * op(B) + beta * C, row-major, single precision.
// ta/tb select transposition of A/B. lda/ldb/ldc are leading dimensions
// (row strides) of the *stored* matrices.
//
// This is the compute core of every convolutional layer (via im2col). It
// packs A (and a transposed B) into cache-friendly panels, reads a
// non-transposed B where the caller wrote it, and runs a register-tiled
// microkernel family chosen once per process by runtime CPU detection
// (AVX-512 or AVX2 with FMA when available, portable scalar otherwise;
// see gemm_microkernel.h for the accumulation-chain contract that keeps
// results bitwise reproducible across thread counts and bitwise equal
// to the sequential internal::GemmReference oracle).
void Gemm(bool ta, bool tb, int64_t m, int64_t n, int64_t k, float alpha,
          const float* a, int64_t lda, const float* b, int64_t ldb, float beta,
          float* c, int64_t ldc);

// Optional fused write-back for GemmPrepacked, applied to each register
// tile right after its last k block. kLeaky/kRelu replicate, element for
// element, the conv layer's post-GEMM passes (bias add, then leaky/ReLU),
// so fusing them into the GEMM is bitwise-neutral. kMish is the fast
// activation family's FastMish (tensor/act_kernels.h) lane for lane —
// only the fused inference plan emits it, and it is covered by that
// plan's documented tolerance, not bitwise identity with the libm
// reference.
enum class GemmActivation { kNone, kLeaky, kRelu, kMish };

struct GemmEpilogue {
  const float* bias = nullptr;  // length m; row i of C gets bias[i] added
  GemmActivation activation = GemmActivation::kNone;
};

// Pack the m x k matrix A (not transposed, lda == k, alpha == 1) for
// GemmPrepacked. `packed` must hold GemmPackedWeightFloats(m, k) floats
// (gemm_pack.h). Conv layers do this once per weight update so inference
// skips the A-packing traffic on every forward pass.
void GemmPackWeights(const float* a, int64_t m, int64_t k, float* packed);

// C = A * B + beta * C with a pre-packed A (GemmPackWeights), plus an
// optional fused epilogue applied to each tile of C once its
// accumulation finishes. Bitwise equal to Gemm on the unpacked A (same
// loop, same chains) followed by the separate bias and activation
// passes.
void GemmPrepacked(int64_t m, int64_t n, int64_t k, const float* packed_a,
                   const float* b, int64_t ldb, float beta, float* c,
                   int64_t ldc, const GemmEpilogue* epilogue = nullptr);

// Name of the microkernel family this host dispatches to (for logs).
const char* GemmKernelName();

namespace internal {

// Sequential oracle: the unpacked reference kernels of the dispatched
// family, no thread pool involved. The packed path must match it bitwise.
void GemmReference(bool ta, bool tb, int64_t m, int64_t n, int64_t k,
                   float alpha, const float* a, int64_t lda, const float* b,
                   int64_t ldb, float beta, float* c, int64_t ldc);

// GemmPrepacked on the given kernel family instead of the dispatched
// one: the same packed loop, so tests and benches can compare families
// in one process. The family must be one this host runs
// (gemm_microkernel.h).
void GemmPrepackedOn(const GemmKernel& kernel, int64_t m, int64_t n,
                     int64_t k, const float* packed_a, const float* b,
                     int64_t ldb, float beta, float* c, int64_t ldc,
                     const GemmEpilogue* epilogue = nullptr);

}  // namespace internal

}  // namespace thali

#endif  // THALI_TENSOR_GEMM_H_
