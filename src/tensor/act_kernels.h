#ifndef THALI_TENSOR_ACT_KERNELS_H_
#define THALI_TENSOR_ACT_KERNELS_H_

#include <cstdint>

namespace thali {

// Vectorized elementwise activation kernels for the fused inference
// path (the execution-plan compiler, src/nn/exec_plan.h). Runtime
// dispatch mirrors the GEMM kernel families: one portable scalar family
// plus an AVX2 family in its own -mavx2 translation unit, detected once
// per process from CpuInfo() (internal::SetScalarKernelsForTesting in
// base/cpu_features.h forces the scalar family).
//
// Determinism: unlike the GEMM families, the scalar and AVX2 paths here
// compute *identical* per-element results — every operation (polynomial
// step order, rounding, min/max clamps, division) is spelled out the
// same way in both, so an element's value never depends on whether it
// ran in a vector lane or in the scalar remainder loop. This keeps
// fused-network outputs bitwise stable across thread counts (chunk
// boundaries move elements between lanes and remainders) and across
// hosts with and without AVX2.
//
// Numerical contract vs src/nn/activation.cc (the libm reference that
// training networks run):
//  - Leaky / ReLU: bitwise identical (same compare-and-scale formulas).
//  - Mish: x * tanh(softplus(x)) is evaluated through the algebraic
//    identity mish(x) = x * E(E+2) / (E(E+2)+2) with E = exp(x), using
//    a degree-5 polynomial exp (Cephes coefficients, relative error
//    ~2e-7). For x >= 20 the result is exactly x, matching the
//    reference's saturated branch bit for bit. Measured error against
//    the libm reference is below 3e-7 * max(1, |x|) per element; the
//    fused-inference conformance tests budget 1e-4 + 1e-3 * |ref|
//    network-wide; fast mish is the only step of the fused fp32 plan
//    that is not bitwise equal to the reference.
void FastLeakyInPlace(float* x, int64_t n);
void FastReluInPlace(float* x, int64_t n);
void FastMishInPlace(float* x, int64_t n);

// Writes the indices i in [0, n) with !(x[i] < threshold) to `out`
// (which must hold n int32s) and returns how many were written. This is
// the exact negation of the YOLO decode's `if (obj < thresh) continue`
// skip test (NaNs are collected, matching the reference), so filtering
// raw logits against a conservative threshold before decoding cannot
// change the decoded set. Comparisons are exact; the scalar and AVX2
// families return identical results.
int64_t CollectAtLeast(const float* x, int64_t n, float threshold,
                       int32_t* out);

// Name of the dispatched activation kernel family (for logs/reports).
const char* ActKernelName();

namespace internal {
// Scalar fast-exp core shared by both families and by the tests that
// pin its accuracy. Clamps to [-87.33654, 88.72283].
float FastExpScalar(float x);
}  // namespace internal

}  // namespace thali

#endif  // THALI_TENSOR_ACT_KERNELS_H_
