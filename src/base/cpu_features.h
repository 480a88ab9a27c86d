#ifndef THALI_BASE_CPU_FEATURES_H_
#define THALI_BASE_CPU_FEATURES_H_

#include <string>

namespace thali {

// SIMD capabilities of the CPU the process is running on, probed once at
// first use. Release binaries are compiled for baseline x86-64 (see the
// THALI_NATIVE CMake option), so kernel code that wants wider vectors
// must check these at runtime and dispatch — never assume compile-time
// availability.
struct CpuFeatures {
  bool sse4_2 = false;
  bool avx = false;
  bool avx2 = false;
  bool fma = false;
  bool avx512f = false;
};

// The host CPU's features, detected once and cached (thread-safe).
const CpuFeatures& CpuInfo();

// Space-separated list of the detected features ("avx2 fma ..."), or
// "baseline" when none of them are present. For logs and summaries.
std::string CpuFeatureString();

// False while a test forces the portable scalar kernel families (see
// internal::SetScalarKernelsForTesting), true otherwise. Every SIMD
// kernel family — fp32 GEMM, int8 GEMM with its requantize epilogue,
// activations and resize — reads this on each dispatch before its own
// capability test, so one switch moves all of them together.
bool SimdKernelsAllowed();

namespace internal {
// Testing hook: true forces every kernel family to its scalar variant,
// false restores automatic selection. Takes effect on the next dispatch.
void SetScalarKernelsForTesting(bool scalar);
}  // namespace internal

}  // namespace thali

#endif  // THALI_BASE_CPU_FEATURES_H_
