#include "base/cpu_features.h"

#include <atomic>

namespace thali {

namespace {

std::atomic<bool> g_force_scalar{false};

CpuFeatures Detect() {
  CpuFeatures f;
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  // __builtin_cpu_supports reads CPUID (and XGETBV for the AVX family,
  // so OS save-state support is included in the answer).
  f.sse4_2 = __builtin_cpu_supports("sse4.2");
  f.avx = __builtin_cpu_supports("avx");
  f.avx2 = __builtin_cpu_supports("avx2");
  f.fma = __builtin_cpu_supports("fma");
  f.avx512f = __builtin_cpu_supports("avx512f");
#endif
  return f;
}

}  // namespace

const CpuFeatures& CpuInfo() {
  static const CpuFeatures features = Detect();
  return features;
}

std::string CpuFeatureString() {
  const CpuFeatures& f = CpuInfo();
  std::string s;
  const auto add = [&s](bool has, const char* name) {
    if (!has) return;
    if (!s.empty()) s += ' ';
    s += name;
  };
  add(f.sse4_2, "sse4.2");
  add(f.avx, "avx");
  add(f.avx2, "avx2");
  add(f.fma, "fma");
  add(f.avx512f, "avx512f");
  return s.empty() ? "baseline" : s;
}

bool SimdKernelsAllowed() {
  return !g_force_scalar.load(std::memory_order_acquire);
}

namespace internal {

void SetScalarKernelsForTesting(bool scalar) {
  g_force_scalar.store(scalar, std::memory_order_release);
}

}  // namespace internal

}  // namespace thali
