#ifndef THALI_TENSOR_GEMM_INT8_H_
#define THALI_TENSOR_GEMM_INT8_H_

#include <cstdint>

#include "tensor/gemm.h"

namespace thali {

// Per-channel symmetric int8 GEMM for inference convolutions.
//
// The quantization scheme (see DESIGN.md "Quantization"):
//
//   weights     w[f][p] ~= s_w[f] * qw[f][p],   qw in [-127, 127]
//   activations x[p][j] ~= s_in * (u[p][j] - zp), u in [0, 127]
//
// Activations are quantized to SEVEN-bit unsigned [0, 127] (not the full
// u8 range) so the AVX2 kernel's vpmaddubsw pair sums are bounded by
// 127*127*2 = 32258 < 32767 — the i16 intermediate can never saturate,
// which makes the integer accumulation EXACT. Both kernel families
// (scalar, AVX2) therefore produce bit-identical i32 accumulators, and a
// single shared requantization epilogue turns them into identical fp32:
//
//   acc[f][j] = sum_p qw[f][p] * u[p][j]                    (exact i32)
//   c[f][j]   = (acc[f][j] - zp * colsum[f]) * (s_in * s_w[f]) + bias[f]
//   c[f][j]   = activation(c[f][j])                         (leaky/relu)
//
// where colsum[f] = sum_p qw[f][p] folds the activation zero point out
// of the integer domain. k is padded to kp = RoundUp(k, 4) with ZERO
// weight bytes, so padded taps contribute exactly 0 regardless of the
// activation byte they pair with; conv border padding quantizes the real
// x = 0 as u = zp, which the colsum compensation also cancels exactly.

// Padded depth shared by the weight rows and the packed activations.
inline int64_t Int8PackedK(int64_t k) { return (k + 3) / 4 * 4; }

// Bytes of a quantized weight blob: m rows of kp bytes.
inline int64_t Int8PackedWeightBytes(int64_t m, int64_t k) {
  return m * Int8PackedK(k);
}

// Quantizes the row-major m x k weight matrix: per-row symmetric scale
// s_w[f] = maxabs(row f)/127, round-to-nearest-even, k padded to kp with
// zeros. Also emits colsum[f] over the quantized row.
void Int8QuantizeWeights(const float* w, int64_t m, int64_t k, int8_t* qw,
                         float* scale, int32_t* colsum);

// Every float -> int conversion of the quantizers and requantize
// epilogues clamps its operand into [-kInt8RoundLimit, kInt8RoundLimit]
// in float before rounding, so it saturates instead of wrapping: +inf
// and huge values quantize to 127, -inf and huge negatives to 0, and
// NaN (clamped through max(v, lo), which yields lo) to 0. Every result
// for |v| < 2^31 is unchanged, since the callers clamp the rounded value
// plus a zero point in [0, 127] to at most 8 bits.
inline constexpr float kInt8RoundLimit = 1073741824.0f;  // 2^30

// Quantizes `count` floats to 7-bit unsigned: clamp(rne(x/s) + zp, 0, 127).
// Shared by every caller (conv input quantization, tests, benches) so all
// paths agree bit for bit. Runs the dispatched family's `quantize`.
void Int8QuantizeActivations(const float* x, int64_t count, float inv_scale,
                             int32_t zp, uint8_t* u);

// Derives (scale, zp) from a calibrated activation range. The range is
// widened to include 0 so conv zero padding stays exactly representable.
void Int8RangeToScaleZp(float range_min, float range_max, float* scale,
                        int32_t* zp);

// Bytes of a packed activation panel for a k x n column matrix: kp * n.
inline int64_t Int8PackedActBytes(int64_t k, int64_t n) {
  return Int8PackedK(k) * n;
}

// Packs the quantized row-major k x n column matrix `qcol` (an im2col
// panel, or a direct 1x1's channel planes) into the kernel panel layout:
// columns grouped in strips of 8, each strip interleaved in k-quads
// (byte (p, j) of strip u at strip_base + (p/4)*32 + (j%8)*4 + p%4,
// strip_base = packed + u*kp*8), so one 32-byte load feeds 8 columns x
// 4 k-steps of vpmaddubsw. The n % 8 tail columns follow flat
// (k-contiguous, kp bytes each) for the k-vectorized tail-dot kernel.
// Padding rows p >= k are zero. Runs the dispatched family's `pack`.
void Int8PackActCols(const uint8_t* qcol, int64_t k, int64_t n,
                     uint8_t* packed);

// The scalar share of every family's pack: rows [p0, kp) of each full
// 8-column strip (zero from row k on) and all n % 8 tail columns. With
// p0 = 0 it packs the whole panel, which is the scalar-int8 family's
// pack; a SIMD pack moves the full k-quads of the full strips itself
// and leaves the rest here from p0 = k / 4 * 4.
void Int8PackActEdges(const uint8_t* qcol, int64_t k, int64_t n, int64_t p0,
                      uint8_t* packed);

// Requantization parameters of one int8 GEMM (the epilogue inputs).
//
// With out_u8 == nullptr the epilogue dequantizes into fp32 C (the
// original PR-7 behaviour). With out_u8 set, the epilogue instead
// REQUANTIZES the activated value into the consumer's 7-bit unsigned
// domain (quantize-once chaining between adjacent int8 layers):
//
//   u[f][j] = clamp(rne(act(c[f][j]) * out_inv_scale) + out_zp, 0, 127)
//
// — the exact Int8QuantizeActivations formula, so a chained edge holds
// the same bytes an fp32 write followed by the consumer's own quantize
// would have produced. fp32 C is not written on that path (pass
// c = nullptr). kMish routes through the FastMish family
// (act_kernels_impl.h / simd_exp_avx2.h), which is bit-identical
// between the scalar and AVX2 epilogues like every other op here.
struct Int8Epilogue {
  float in_scale = 1.0f;           // s_in
  int32_t in_zp = 0;               // activation zero point
  const float* wscale = nullptr;   // s_w[m]
  const int32_t* wcolsum = nullptr;  // colsum[m]
  const float* bias = nullptr;     // per-row bias, may be null
  GemmActivation activation = GemmActivation::kNone;  // incl. kMish
  uint8_t* out_u8 = nullptr;       // u8 destination (row stride ldc)
  float out_inv_scale = 1.0f;      // 1 / s_out of the consumer domain
  int32_t out_zp = 0;              // consumer-domain zero point
};

// One int8 kernel family: `accumulate` writes the m x n i32 product into
// acc (row-major, row stride n) from a quantized weight blob (rows of kp
// bytes) and a packed activation panel; `pack` builds that panel
// (Int8PackActCols' contract); `quantize` is
// Int8QuantizeActivations' contract; `epilogue` requantizes acc into C:
//
//   C[f][j] = act((acc - zp*colsum[f]) * s_in*s_w[f] + bias[f])
//
// (or into e.out_u8, see Int8Epilogue). Accumulation is exact integer
// arithmetic and packing moves bytes; every epilogue op is elementwise
// IEEE arithmetic (cvt, mul, add, compare — no FMA contraction in
// either TU), so every family produces identical bits. Small-k conv
// shapes are epilogue-bound (outputs scale with m*n while MACs scale
// with m*n*k), which is why the epilogue is vectorized at all.
struct Int8GemmKernel {
  const char* name;  // "avx2-ubsw-6x8" / "scalar-int8"
  void (*accumulate)(int64_t m, int64_t n, int64_t kp, const int8_t* qw,
                     const uint8_t* packed, int32_t* acc);
  void (*pack)(const uint8_t* qcol, int64_t k, int64_t n, uint8_t* packed);
  void (*quantize)(const float* x, int64_t count, float inv_scale,
                   int32_t zp, uint8_t* u);
  void (*epilogue)(const Int8Epilogue& e, int64_t m, int64_t n,
                   const int32_t* acc, float* c, int64_t ldc);
};

const Int8GemmKernel& ScalarInt8GemmKernel();
// nullptr when this build has no AVX2 TU (non-x86 targets).
const Int8GemmKernel* Avx2Int8GemmKernel();
// Runtime dispatch: AVX2 when the CPU supports it, scalar otherwise or
// while internal::SetScalarKernelsForTesting (base/cpu_features.h)
// forces it.
const Int8GemmKernel& SelectInt8GemmKernel();

// Full quantized GEMM on the calling strand: dispatches the kernel family
// once, accumulates every row, then requantizes into fp32 C (row stride
// ldc) — or, when e.out_u8 is set, into the u8 consumer domain (c may
// then be nullptr; ldc still strides out_u8). The int8 conv fans out
// across batch items, one GEMM per strand. `acc` must hold m * n int32
// of scratch.
void Int8GemmPrepacked(int64_t m, int64_t n, int64_t k, const int8_t* qw,
                       const uint8_t* packed, const Int8Epilogue& e, float* c,
                       int64_t ldc, int32_t* acc);

}  // namespace thali

#endif  // THALI_TENSOR_GEMM_INT8_H_
