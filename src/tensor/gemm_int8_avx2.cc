// AVX2 int8 kernel family (vpmaddubsw / vpmaddwd). Like the fp32 AVX2
// family this is the only int8 TU compiled with -mavx2 (per-file
// COMPILE_OPTIONS in src/tensor/CMakeLists.txt); it is reached only
// through SelectInt8GemmKernel's runtime dispatch, so the binary still
// runs on baseline x86-64.
//
// Exactness: activations are 7-bit unsigned (<= 127), weights i8
// (|w| <= 127), so each vpmaddubsw pair sum is <= 32258 < 32767 — the
// i16 intermediates never saturate and the i32 accumulation is exact
// integer arithmetic, bit-identical to the scalar family.

#include "tensor/gemm_int8.h"

#if defined(__AVX2__)

#include <immintrin.h>

#include <algorithm>
#include <cstring>

#include "tensor/simd_exp_avx2.h"

namespace thali {

namespace {

// One 8-column strip x MR_ rows: B quads (8 cols x 4 k-steps = one
// 32-byte load) against per-row 4-byte weight broadcasts, weight rows kp
// bytes apart. i32 lane l of the accumulator is column l of the strip;
// accumulators live in registers for the whole k loop (no C
// read-modify-write). Named variables, not an array — GCC spills
// __m256i arrays (see the fp32 kernel's note).
template <int MR_>
void StripRows(int64_t kp, const int8_t* qw, const uint8_t* strip,
               int32_t* acc, int64_t ldacc) {
  const __m256i ones = _mm256_set1_epi16(1);
  __m256i a0 = _mm256_setzero_si256();
  __m256i a1 = a0, a2 = a0, a3 = a0, a4 = a0, a5 = a0;
  for (int64_t p = 0; p < kp; p += 4) {
    const __m256i bq = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(strip + (p >> 2) * 32));
    const int8_t* w = qw + p;
    __m256i wb, prod;
    wb = _mm256_set1_epi32(*reinterpret_cast<const int32_t*>(w));
    prod = _mm256_maddubs_epi16(bq, wb);
    a0 = _mm256_add_epi32(a0, _mm256_madd_epi16(prod, ones));
    if constexpr (MR_ > 1) {
      wb = _mm256_set1_epi32(*reinterpret_cast<const int32_t*>(w + kp));
      prod = _mm256_maddubs_epi16(bq, wb);
      a1 = _mm256_add_epi32(a1, _mm256_madd_epi16(prod, ones));
    }
    if constexpr (MR_ > 2) {
      wb = _mm256_set1_epi32(*reinterpret_cast<const int32_t*>(w + 2 * kp));
      prod = _mm256_maddubs_epi16(bq, wb);
      a2 = _mm256_add_epi32(a2, _mm256_madd_epi16(prod, ones));
    }
    if constexpr (MR_ > 3) {
      wb = _mm256_set1_epi32(*reinterpret_cast<const int32_t*>(w + 3 * kp));
      prod = _mm256_maddubs_epi16(bq, wb);
      a3 = _mm256_add_epi32(a3, _mm256_madd_epi16(prod, ones));
    }
    if constexpr (MR_ > 4) {
      wb = _mm256_set1_epi32(*reinterpret_cast<const int32_t*>(w + 4 * kp));
      prod = _mm256_maddubs_epi16(bq, wb);
      a4 = _mm256_add_epi32(a4, _mm256_madd_epi16(prod, ones));
    }
    if constexpr (MR_ > 5) {
      wb = _mm256_set1_epi32(*reinterpret_cast<const int32_t*>(w + 5 * kp));
      prod = _mm256_maddubs_epi16(bq, wb);
      a5 = _mm256_add_epi32(a5, _mm256_madd_epi16(prod, ones));
    }
  }
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc), a0);
  if constexpr (MR_ > 1) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + ldacc), a1);
  }
  if constexpr (MR_ > 2) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + 2 * ldacc), a2);
  }
  if constexpr (MR_ > 3) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + 3 * ldacc), a3);
  }
  if constexpr (MR_ > 4) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + 4 * ldacc), a4);
  }
  if constexpr (MR_ > 5) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + 5 * ldacc), a5);
  }
}

// Exact horizontal sum of 8 i32 lanes.
inline int32_t HSum(__m256i v) {
  const __m128i lo = _mm256_castsi256_si128(v);
  const __m128i hi = _mm256_extracti128_si256(v, 1);
  __m128i s = _mm_add_epi32(lo, hi);
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0x4e));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0xb1));
  return _mm_cvtsi128_si32(s);
}

// Tail column (flat, k-contiguous): one k-vectorized dot per row. 32
// bytes per step cover 32 k-taps; the sub-32 remainder runs scalar —
// still exact integers, so family identity is unaffected.
void TailDot(int64_t m, const int8_t* qw, int64_t kp, const uint8_t* col,
             int32_t* acc, int64_t ldacc) {
  const __m256i ones = _mm256_set1_epi16(1);
  const int64_t kv = kp / 32 * 32;
  for (int64_t i = 0; i < m; ++i) {
    const int8_t* w = qw + i * kp;
    __m256i sum = _mm256_setzero_si256();
    for (int64_t p = 0; p < kv; p += 32) {
      const __m256i a = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(col + p));
      const __m256i b =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w + p));
      sum = _mm256_add_epi32(
          sum, _mm256_madd_epi16(_mm256_maddubs_epi16(a, b), ones));
    }
    int32_t s = HSum(sum);
    for (int64_t p = kv; p < kp; ++p) {
      s += static_cast<int32_t>(w[p]) * static_cast<int32_t>(col[p]);
    }
    acc[i * ldacc] = s;
  }
}

void AccumulateAvx2(int64_t m, int64_t n, int64_t kp, const int8_t* qw,
                    const uint8_t* packed, int32_t* acc) {
  const int64_t nfull = n / 8;
  const int64_t ntail = n - nfull * 8;
  // Strips are visited in L1-sized blocks with every row group inside
  // the block, so when m > 6 the later row groups re-read the block
  // from L1 instead of re-streaming the whole panel from L2 (the m % 6
  // tail pass of a wide-n shape like 8 x 2304 x 27 is otherwise
  // memory-bound). Integer accumulation is exact, so traversal order
  // cannot change the result bits.
  const int64_t strip_bytes = kp * 8;
  const int64_t block = std::max<int64_t>(1, (16 << 10) / strip_bytes);
  for (int64_t u0 = 0; u0 < nfull; u0 += block) {
    const int64_t u1 = u0 + block < nfull ? u0 + block : nfull;
    for (int64_t i = 0; i < m;) {
      const int mr = static_cast<int>(m - i < 6 ? m - i : 6);
      const int8_t* w = qw + i * kp;
      for (int64_t u = u0; u < u1; ++u) {
        const uint8_t* strip = packed + u * kp * 8;
        int32_t* a = acc + i * n + u * 8;
        switch (mr) {
          case 1: StripRows<1>(kp, w, strip, a, n); break;
          case 2: StripRows<2>(kp, w, strip, a, n); break;
          case 3: StripRows<3>(kp, w, strip, a, n); break;
          case 4: StripRows<4>(kp, w, strip, a, n); break;
          case 5: StripRows<5>(kp, w, strip, a, n); break;
          default: StripRows<6>(kp, w, strip, a, n); break;
        }
      }
      i += mr;
    }
  }
  const uint8_t* tails = packed + nfull * kp * 8;
  for (int64_t t = 0; t < ntail; ++t) {
    TailDot(m, qw, kp, tails + t * kp, acc + nfull * 8 + t, n);
  }
}

// Transposing pack. Each full k-quad of a full strip is four 8-byte row
// loads: unpacklo_epi8 pairs rows (0, 1) and (2, 3) byte by byte, and
// unpacklo/hi_epi16 of the two pairs give the quad's columns 0-3 and
// 4-7, 4 row bytes each. Loads cover columns [8u, 8u + 8) of rows below
// k only, so nothing reads past column n; the k % 4 rows, the zero
// padding rows and the n % 8 tail columns go through the shared scalar
// Int8PackActEdges.
void PackAvx2(const uint8_t* qcol, int64_t k, int64_t n, uint8_t* packed) {
  const int64_t kp = Int8PackedK(k);
  const int64_t kq = k / 4 * 4;
  const int64_t nfull = n / 8;
  for (int64_t u = 0; u < nfull; ++u) {
    uint8_t* strip = packed + u * kp * 8;
    const uint8_t* src = qcol + u * 8;
    for (int64_t p = 0; p < kq; p += 4) {
      const uint8_t* r = src + p * n;
      const __m128i r0 =
          _mm_loadl_epi64(reinterpret_cast<const __m128i*>(r));
      const __m128i r1 =
          _mm_loadl_epi64(reinterpret_cast<const __m128i*>(r + n));
      const __m128i r2 =
          _mm_loadl_epi64(reinterpret_cast<const __m128i*>(r + 2 * n));
      const __m128i r3 =
          _mm_loadl_epi64(reinterpret_cast<const __m128i*>(r + 3 * n));
      const __m128i r01 = _mm_unpacklo_epi8(r0, r1);
      const __m128i r23 = _mm_unpacklo_epi8(r2, r3);
      uint8_t* quad = strip + p * 8;
      _mm_storeu_si128(reinterpret_cast<__m128i*>(quad),
                       _mm_unpacklo_epi16(r01, r23));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(quad + 16),
                       _mm_unpackhi_epi16(r01, r23));
    }
  }
  Int8PackActEdges(qcol, k, n, kq, packed);
}

// Quantizes 8 lanes into the 7-bit domain: v * inv_scale clamped to
// +-kInt8RoundLimit with max(x, lo) then min(x, hi) (NaN -> lo),
// converted by cvtps_epi32 (round-to-nearest-even, like the scalar
// lrintf), plus zp, clamped to [0, 127] and packed 8 x i32 -> 8 x u8 (the
// saturating packs are safe after the clamp). The u8-out epilogue and
// the activation quantizer share it, so both match the scalar family.
inline __m128i QuantizeLanes(__m256 v, __m256 inv_scale, __m256i zp) {
  const __m256 x = _mm256_mul_ps(v, inv_scale);
  __m256i q = _mm256_cvtps_epi32(
      _mm256_min_ps(_mm256_max_ps(x, _mm256_set1_ps(-kInt8RoundLimit)),
                    _mm256_set1_ps(kInt8RoundLimit)));
  q = _mm256_add_epi32(q, zp);
  q = _mm256_min_epi32(_mm256_max_epi32(q, _mm256_setzero_si256()),
                       _mm256_set1_epi32(127));
  const __m128i w16 = _mm_packs_epi32(_mm256_castsi256_si128(q),
                                      _mm256_extracti128_si256(q, 1));
  return _mm_packus_epi16(w16, w16);
}

// Int8QuantizeActivations, 8 floats per step; the count % 8 tail goes
// through a masked load and the same lanes.
void QuantizeAvx2(const float* x, int64_t count, float inv_scale, int32_t zp,
                  uint8_t* u) {
  const __m256 vs = _mm256_set1_ps(inv_scale);
  const __m256i vzp = _mm256_set1_epi32(zp);
  const int64_t nv = count / 8 * 8;
  for (int64_t i = 0; i < nv; i += 8) {
    _mm_storel_epi64(reinterpret_cast<__m128i*>(u + i),
                     QuantizeLanes(_mm256_loadu_ps(x + i), vs, vzp));
  }
  const int64_t ntail = count - nv;
  if (ntail > 0) {
    alignas(32) int32_t mask_bits[8];
    for (int64_t l = 0; l < 8; ++l) mask_bits[l] = l < ntail ? -1 : 0;
    const __m256i mask =
        _mm256_load_si256(reinterpret_cast<const __m256i*>(mask_bits));
    alignas(16) uint8_t buf[16];
    _mm_store_si128(reinterpret_cast<__m128i*>(buf),
                    QuantizeLanes(_mm256_maskload_ps(x + nv, mask), vs, vzp));
    std::memcpy(u + nv, buf, static_cast<size_t>(ntail));
  }
}

// 8-lane requantization epilogue. Repeats EpilogueScalar's elementwise
// float sequence with vector ops: cvtepi32 (round-to-nearest-even, same
// as static_cast), separate mul and add (this TU is built with -mfma,
// so the scalar expression form could be FMA-contracted — intrinsics
// pin the two-rounding sequence), then the shared ActivateVec
// (simd_exp_avx2.h: ordered > 0 compare + blend for leaky/relu,
// FastMishVec for mish). Every
// lane is independent IEEE arithmetic, so the result is bit-identical
// to the scalar reference. The n % 8 tail uses masked load/store
// through the SAME vector ops rather than scalar code, again to keep
// FMA contraction out.
//
// With U8Out the activated lanes are requantized into the consumer
// domain through QuantizeLanes, so the chained bytes also match the
// scalar family.
template <GemmActivation Act, bool U8Out>
void EpilogueRowsAvx2(const Int8Epilogue& e, int64_t m, int64_t n,
                      const int32_t* acc, float* c, int64_t ldc) {
  const __m256 vqs = _mm256_set1_ps(e.out_inv_scale);
  const __m256i vqzp = _mm256_set1_epi32(e.out_zp);
  const int64_t nv = n / 8 * 8;
  const int64_t ntail = n - nv;
  alignas(32) int32_t mask_bits[8];
  for (int64_t l = 0; l < 8; ++l) mask_bits[l] = l < ntail ? -1 : 0;
  const __m256i tail_mask =
      _mm256_load_si256(reinterpret_cast<const __m256i*>(mask_bits));
  for (int64_t i = 0; i < m; ++i) {
    const int32_t* ai = acc + i * n;
    float* ci = U8Out ? nullptr : c + i * ldc;
    uint8_t* ui = U8Out ? e.out_u8 + i * ldc : nullptr;
    const __m256 vs = _mm256_set1_ps(e.in_scale * e.wscale[i]);
    const __m256 vb =
        _mm256_set1_ps(e.bias != nullptr ? e.bias[i] : 0.0f);
    const __m256i vcomp = _mm256_set1_epi32(e.in_zp * e.wcolsum[i]);
    const auto requant = [&](__m256i a) {
      __m256 v = _mm256_cvtepi32_ps(_mm256_sub_epi32(a, vcomp));
      v = _mm256_add_ps(_mm256_mul_ps(v, vs), vb);
      return simd_detail::ActivateVec<Act>(v);
    };
    const auto quantize = [&](__m256 v) {
      return QuantizeLanes(v, vqs, vqzp);
    };
    for (int64_t j = 0; j < nv; j += 8) {
      const __m256i a = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(ai + j));
      if constexpr (U8Out) {
        _mm_storel_epi64(reinterpret_cast<__m128i*>(ui + j),
                         quantize(requant(a)));
      } else {
        _mm256_storeu_ps(ci + j, requant(a));
      }
    }
    if (ntail > 0) {
      const __m256i a = _mm256_maskload_epi32(ai + nv, tail_mask);
      if constexpr (U8Out) {
        alignas(16) uint8_t buf[16];
        _mm_store_si128(reinterpret_cast<__m128i*>(buf),
                        quantize(requant(a)));
        std::memcpy(ui + nv, buf, static_cast<size_t>(ntail));
      } else {
        _mm256_maskstore_ps(ci + nv, tail_mask, requant(a));
      }
    }
  }
}

template <GemmActivation Act>
void EpilogueActAvx2(const Int8Epilogue& e, int64_t m, int64_t n,
                     const int32_t* acc, float* c, int64_t ldc) {
  if (e.out_u8 != nullptr) {
    EpilogueRowsAvx2<Act, true>(e, m, n, acc, c, ldc);
  } else {
    EpilogueRowsAvx2<Act, false>(e, m, n, acc, c, ldc);
  }
}

void EpilogueAvx2(const Int8Epilogue& e, int64_t m, int64_t n,
                  const int32_t* acc, float* c, int64_t ldc) {
  switch (e.activation) {
    case GemmActivation::kLeaky:
      EpilogueActAvx2<GemmActivation::kLeaky>(e, m, n, acc, c, ldc);
      break;
    case GemmActivation::kRelu:
      EpilogueActAvx2<GemmActivation::kRelu>(e, m, n, acc, c, ldc);
      break;
    case GemmActivation::kMish:
      EpilogueActAvx2<GemmActivation::kMish>(e, m, n, acc, c, ldc);
      break;
    default:
      EpilogueActAvx2<GemmActivation::kNone>(e, m, n, acc, c, ldc);
      break;
  }
}

const Int8GemmKernel kAvx2Int8Kernel = {"avx2-ubsw-6x8", AccumulateAvx2,
                                        PackAvx2, QuantizeAvx2,
                                        EpilogueAvx2};

}  // namespace

const Int8GemmKernel* Avx2Int8GemmKernel() { return &kAvx2Int8Kernel; }

}  // namespace thali

#else  // !__AVX2__: non-x86 target or compiler without AVX2 support.

namespace thali {
const Int8GemmKernel* Avx2Int8GemmKernel() { return nullptr; }
}  // namespace thali

#endif
