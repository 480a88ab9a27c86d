// Whether a SIMD kernel returns with the upper halves of the YMM or ZMM
// registers in use. AVX code must end with vzeroupper: otherwise the
// next SSE instruction the caller runs (the whole library outside the
// AVX2 and AVX-512 translation units is SSE code) pays the AVX-SSE
// transition penalty. XGETBV with ECX = 1 reads XINUSE, whose bit 2 is
// set while bits 128-255 of ymm0-15 hold state and bit 6 (ZMM_Hi256)
// while bits 256-511 of zmm0-15 do. vzeroupper clears both; zmm16-31
// (bit 7) are out of reach of SSE code and are not checked.

#ifndef THALI_TESTS_YMM_STATE_H_
#define THALI_TESTS_YMM_STATE_H_

#include <cstdint>

#include "base/cpu_features.h"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace thali {

// True where the probe can run: an x86 host with AVX2 that reports
// XINUSE, CPUID.(EAX=0DH,ECX=1):EAX[2].
inline bool YmmUpperStateReadable() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  return CpuInfo().avx2 && __get_cpuid_count(0xD, 1, &eax, &ebx, &ecx, &edx) &&
         (eax & 4u) != 0;
#else
  return false;
#endif
}

// XINUSE bits of the upper YMM halves (2) and upper ZMM halves (6).
inline constexpr uint32_t kUpperVectorStateBits = (1u << 2) | (1u << 6);

// Runs fn() from a clean upper state and returns true when it left the
// upper YMM or ZMM halves in use. Nothing runs between fn's return and
// the read, so no library call in between can clean up after it. Always
// false where YmmUpperStateReadable is false.
template <typename Fn>
bool LeavesYmmUpperDirty(Fn&& fn) {
#if defined(__x86_64__) || defined(__i386__)
  const bool readable = YmmUpperStateReadable();
  if (readable) __asm__ volatile("vzeroupper" ::: "memory");
  fn();
  if (!readable) return false;
  uint32_t eax = 0, edx = 0;
  __asm__ volatile("xgetbv" : "=a"(eax), "=d"(edx) : "c"(1) : "memory");
  return (eax & kUpperVectorStateBits) != 0;
#else
  fn();
  return false;
#endif
}

}  // namespace thali

#endif  // THALI_TESTS_YMM_STATE_H_
