#ifndef THALI_TENSOR_WINOGRAD_H_
#define THALI_TENSOR_WINOGRAD_H_

#include <cstdint>

namespace thali {

// Winograd F(2x2, 3x3) convolution for the fused inference path: the
// execution-plan compiler (src/nn/exec_plan.h) routes stride-1 3x3
// pad-1 convs here, cutting the multiply count per output from 9 to 4
// (2.25x) and skipping im2col entirely.
//
// The transform pipeline for one batch item:
//   1. input transform   V[16][C][T] = B^T d B per 4x4 input patch
//      (tiles overlap by 2; T = ceil(H/2)*ceil(W/2) output tiles),
//   2. 16 independent GEMMs  M_k[F][T] = U_k[F][C] * V_k[C][T], run
//      through the packed GEMM driver from prepacked U panels,
//   3. output transform  Y = A^T M A per tile, scattered to the output
//      with edge clipping for odd spatial sizes.
//
// U = G w G^T is computed and prepacked into GEMM A panels once per
// weight update (WinogradPackWeights), mirroring the conv layer's
// GemmPackWeights flow.
//
// Accuracy: Winograd is NOT bitwise identical to direct convolution —
// the transforms re-associate the 3x3 dot products. F(2,3) with these
// small-magnitude transform matrices is mild: observed per-element
// error stays within ~1e-5 * ||w||*||d|| for yolo-scale tensors; the
// conformance tests budget 1e-4 + 1e-3 * |ref| end to end (documented
// in DESIGN.md). Outputs are still deterministic: every value is
// produced by a fixed scalar op sequence plus GEMMs covered by the
// packed-driver determinism contract, so results are reproducible
// across thread counts and batch slicings.

// Floats to prepack all 16 U_k into GEMM A panels.
int64_t WinogradPackedWeightFloats(int64_t filters, int64_t channels);

// U = G w G^T for every (f, c) 3x3 kernel of w (F, C, 3, 3), as 16 F x C
// matrices U_k packed into GEMM A panels at stride
// GemmPackedWeightFloats(F, C) per k. `packed` must hold
// WinogradPackedWeightFloats(F, C) floats.
void WinogradPackWeights(const float* w, int64_t filters, int64_t channels,
                         float* packed);

// Scratch floats WinogradForward needs: 16*C*T + 16*F*T.
int64_t WinogradWorkspaceFloats(int64_t channels, int64_t filters,
                                int64_t height, int64_t width);

// One batch item: out = conv3x3_s1_p1(in, w) with channel strides
// `in_chan_stride` / `out_chan_stride` between consecutive channel
// planes (H*W for NCHW, batch*H*W for the CNHW blocked layout). Output
// spatial size equals input spatial size. `u_packed` holds the weights
// as WinogradPackWeights left them. `ws` must hold
// WinogradWorkspaceFloats(C, F, H, W) floats. Bias and activation are
// the caller's separate passes. The item runs on the calling strand;
// parallelism comes from the caller's item loop.
void WinogradForward(const float* in, int64_t in_chan_stride, int64_t channels,
                     int64_t height, int64_t width, const float* u_packed,
                     int64_t filters, float* out, int64_t out_chan_stride,
                     float* ws);

}  // namespace thali

#endif  // THALI_TENSOR_WINOGRAD_H_
