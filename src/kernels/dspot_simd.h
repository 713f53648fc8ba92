#ifndef DSPOT_KERNELS_DSPOT_SIMD_H_
#define DSPOT_KERNELS_DSPOT_SIMD_H_

#include <cstddef>

// Portable SIMD abstraction for the double-precision hot kernels.
//
// Dispatch is compile-time, per translation unit:
//   - __AVX2__        -> 4 x double (__m256d)
//   - __SSE2__/x86_64 -> 2 x double (__m128d)
//   - __ARM_NEON      -> 2 x double (float64x2_t)
//   - otherwise       -> scalar fallback (1 x double)
// The dspot_kernels library is the only target compiled with the widest
// ISA the build enables (see src/kernels/CMakeLists.txt), so every SIMD
// kernel lives out-of-line in a kernels .cc file; this header is safe to
// include anywhere but the lane width it exposes depends on the flags of
// the including TU.
//
// === Bit-identity vs golden-tolerance policy =========================
//
// The kernel layer makes two distinct floating-point guarantees, both
// asserted by tests/kernels_test.cc:
//
// 1. BIT-IDENTICAL — element-wise kernels and per-lane recurrences
//    (SimulateSivBatchInto lanes, ResidualInto). Each lane performs the
//    same IEEE-754 correctly-rounded operations in the same order as the
//    scalar reference, so outputs match bit for bit. To keep this true
//    the kernels TU is compiled with -ffp-contract=off (no silent FMA
//    contraction on one side of the comparison) and the vector ops used
//    are limited to add/sub/mul/div/min/max — no FMA, no approximate
//    reciprocals.
//
// 2. GOLDEN TOLERANCE — reductions (SumSquares, the residual-moment
//    kernels behind GaussianCodingCost). SIMD accumulates kNumLanes
//    partial sums and combines them in a fixed order, which reorders the
//    additions relative to the scalar left fold. The result is still
//    deterministic (identical across runs, thread counts, and machines
//    with the same lane width) but differs from the scalar reference by
//    rounding; tests pin |simd - scalar| <= kReduceRelTol * |scalar|
//    (plus an absolute floor for near-zero sums).
//
// Selecting the scalar path (building with DSPOT_SIMD=OFF, or any TU
// compiled without SSE2/NEON) restores bit-identity everywhere: the
// fallback runs the exact scalar reference sequence.

#if defined(DSPOT_SIMD_FORCE_SCALAR)
#define DSPOT_SIMD_SCALAR 1
#elif defined(__AVX2__)
#include <immintrin.h>
#define DSPOT_SIMD_AVX2 1
#elif defined(__SSE2__) || defined(_M_X64) || defined(__x86_64__)
#include <emmintrin.h>
#define DSPOT_SIMD_SSE2 1
#elif defined(__ARM_NEON) || defined(__aarch64__)
#include <arm_neon.h>
#define DSPOT_SIMD_NEON 1
#else
#define DSPOT_SIMD_SCALAR 1
#endif

namespace dspot {
namespace simd {

/// Relative tolerance the reduction kernels are held to against the
/// scalar reference (per element of the reduction; tests scale by n).
inline constexpr double kReduceRelTol = 1e-12;

#if defined(DSPOT_SIMD_AVX2)

inline constexpr size_t kNumLanes = 4;
inline constexpr const char* kIsaName = "avx2";

/// 4 doubles. Thin value wrapper over the native vector type; all
/// operations are IEEE correctly-rounded per lane (no FMA — see policy).
struct VecD {
  __m256d v;

  static VecD Zero() { return {_mm256_setzero_pd()}; }
  static VecD Splat(double x) { return {_mm256_set1_pd(x)}; }
  static VecD Load(const double* p) { return {_mm256_loadu_pd(p)}; }
  void Store(double* p) const { _mm256_storeu_pd(p, v); }

  /// p[0, count) in the first `count` lanes (1 <= count <= kNumLanes) and
  /// p[count - 1] in the rest, reading nothing past p[count - 1].
  static VecD LoadFirst(const double* p, size_t count) {
    const __m256i first = FirstLanes(count);
    return {_mm256_blendv_pd(_mm256_broadcast_sd(p + count - 1),
                             _mm256_maskload_pd(p, first),
                             _mm256_castsi256_pd(first))};
  }
  /// Stores the first `count` lanes to p[0, count); writes nothing else.
  void StoreFirst(double* p, size_t count) const {
    _mm256_maskstore_pd(p, FirstLanes(count), v);
  }

  friend VecD operator+(VecD a, VecD b) { return {_mm256_add_pd(a.v, b.v)}; }
  friend VecD operator-(VecD a, VecD b) { return {_mm256_sub_pd(a.v, b.v)}; }
  friend VecD operator*(VecD a, VecD b) { return {_mm256_mul_pd(a.v, b.v)}; }
  friend VecD operator/(VecD a, VecD b) { return {_mm256_div_pd(a.v, b.v)}; }

 private:
  /// All-ones in lanes [0, count), zero in the rest.
  static __m256i FirstLanes(size_t count) {
    return _mm256_cmpgt_epi64(_mm256_set1_epi64x(static_cast<long long>(count)),
                              _mm256_setr_epi64x(0, 1, 2, 3));
  }
};

inline VecD Min(VecD a, VecD b) { return {_mm256_min_pd(a.v, b.v)}; }
inline VecD Max(VecD a, VecD b) { return {_mm256_max_pd(a.v, b.v)}; }

/// Opaque lane mask, "on" where the lane is finite; combine with Select.
/// Masking is bitwise, not multiplicative, so NaN lanes are really zeroed
/// (NaN * 0.0 would stay NaN).
inline VecD FiniteMask(VecD x) {
  // x - x == 0 exactly when x is finite (inf-inf and NaN-NaN are NaN).
  const __m256d diff = _mm256_sub_pd(x.v, x.v);
  return {_mm256_cmp_pd(diff, _mm256_setzero_pd(), _CMP_EQ_OQ)};
}

/// x in lanes where `mask` is on, +0.0 elsewhere.
inline VecD Select(VecD mask, VecD x) { return {_mm256_and_pd(mask.v, x.v)}; }

/// Horizontal sum in a fixed lane order: (l0+l2) + (l1+l3) — the order is
/// part of the determinism contract, do not "optimize" it.
inline double HorizontalSum(VecD x) {
  const __m128d lo = _mm256_castpd256_pd128(x.v);
  const __m128d hi = _mm256_extractf128_pd(x.v, 1);
  const __m128d pair = _mm_add_pd(lo, hi);  // {l0+l2, l1+l3}
  return _mm_cvtsd_f64(pair) + _mm_cvtsd_f64(_mm_unpackhi_pd(pair, pair));
}

inline double Lane(VecD x, size_t i) {
  alignas(32) double tmp[4];
  _mm256_store_pd(tmp, x.v);
  return tmp[i];
}

#elif defined(DSPOT_SIMD_SSE2)

inline constexpr size_t kNumLanes = 2;
inline constexpr const char* kIsaName = "sse2";

struct VecD {
  __m128d v;

  static VecD Zero() { return {_mm_setzero_pd()}; }
  static VecD Splat(double x) { return {_mm_set1_pd(x)}; }
  static VecD Load(const double* p) { return {_mm_loadu_pd(p)}; }
  void Store(double* p) const { _mm_storeu_pd(p, v); }

  static VecD LoadFirst(const double* p, size_t count) {
    return count >= 2 ? Load(p) : VecD{_mm_load1_pd(p)};
  }
  void StoreFirst(double* p, size_t count) const {
    if (count >= 2) {
      Store(p);
    } else {
      _mm_store_sd(p, v);
    }
  }

  friend VecD operator+(VecD a, VecD b) { return {_mm_add_pd(a.v, b.v)}; }
  friend VecD operator-(VecD a, VecD b) { return {_mm_sub_pd(a.v, b.v)}; }
  friend VecD operator*(VecD a, VecD b) { return {_mm_mul_pd(a.v, b.v)}; }
  friend VecD operator/(VecD a, VecD b) { return {_mm_div_pd(a.v, b.v)}; }
};

inline VecD Min(VecD a, VecD b) { return {_mm_min_pd(a.v, b.v)}; }
inline VecD Max(VecD a, VecD b) { return {_mm_max_pd(a.v, b.v)}; }

inline VecD FiniteMask(VecD x) {
  const __m128d diff = _mm_sub_pd(x.v, x.v);
  return {_mm_cmpeq_pd(diff, _mm_setzero_pd())};
}

inline VecD Select(VecD mask, VecD x) { return {_mm_and_pd(mask.v, x.v)}; }

inline double HorizontalSum(VecD x) {
  return _mm_cvtsd_f64(x.v) + _mm_cvtsd_f64(_mm_unpackhi_pd(x.v, x.v));
}

inline double Lane(VecD x, size_t i) {
  alignas(16) double tmp[2];
  _mm_store_pd(tmp, x.v);
  return tmp[i];
}

#elif defined(DSPOT_SIMD_NEON)

inline constexpr size_t kNumLanes = 2;
inline constexpr const char* kIsaName = "neon";

struct VecD {
  float64x2_t v;

  static VecD Zero() { return {vdupq_n_f64(0.0)}; }
  static VecD Splat(double x) { return {vdupq_n_f64(x)}; }
  static VecD Load(const double* p) { return {vld1q_f64(p)}; }
  void Store(double* p) const { vst1q_f64(p, v); }

  static VecD LoadFirst(const double* p, size_t count) {
    return count >= 2 ? Load(p) : VecD{vld1q_dup_f64(p)};
  }
  void StoreFirst(double* p, size_t count) const {
    if (count >= 2) {
      Store(p);
    } else {
      vst1q_lane_f64(p, v, 0);
    }
  }

  friend VecD operator+(VecD a, VecD b) { return {vaddq_f64(a.v, b.v)}; }
  friend VecD operator-(VecD a, VecD b) { return {vsubq_f64(a.v, b.v)}; }
  friend VecD operator*(VecD a, VecD b) { return {vmulq_f64(a.v, b.v)}; }
  friend VecD operator/(VecD a, VecD b) { return {vdivq_f64(a.v, b.v)}; }
};

inline VecD Min(VecD a, VecD b) { return {vminq_f64(a.v, b.v)}; }
inline VecD Max(VecD a, VecD b) { return {vmaxq_f64(a.v, b.v)}; }

inline VecD FiniteMask(VecD x) {
  const float64x2_t diff = vsubq_f64(x.v, x.v);
  return {vreinterpretq_f64_u64(vceqq_f64(diff, vdupq_n_f64(0.0)))};
}

inline VecD Select(VecD mask, VecD x) {
  return {vreinterpretq_f64_u64(vandq_u64(vreinterpretq_u64_f64(mask.v),
                                          vreinterpretq_u64_f64(x.v)))};
}

inline double HorizontalSum(VecD x) {
  return vgetq_lane_f64(x.v, 0) + vgetq_lane_f64(x.v, 1);
}

inline double Lane(VecD x, size_t i) {
  double tmp[2];
  vst1q_f64(tmp, x.v);
  return tmp[i];
}

#else  // scalar fallback

inline constexpr size_t kNumLanes = 1;
inline constexpr const char* kIsaName = "scalar";

struct VecD {
  double v;

  static VecD Zero() { return {0.0}; }
  static VecD Splat(double x) { return {x}; }
  static VecD Load(const double* p) { return {*p}; }
  void Store(double* p) const { *p = v; }

  static VecD LoadFirst(const double* p, size_t) { return Load(p); }
  void StoreFirst(double* p, size_t) const { Store(p); }

  friend VecD operator+(VecD a, VecD b) { return {a.v + b.v}; }
  friend VecD operator-(VecD a, VecD b) { return {a.v - b.v}; }
  friend VecD operator*(VecD a, VecD b) { return {a.v * b.v}; }
  friend VecD operator/(VecD a, VecD b) { return {a.v / b.v}; }
};

inline VecD Min(VecD a, VecD b) { return {b.v < a.v ? b.v : a.v}; }
inline VecD Max(VecD a, VecD b) { return {a.v < b.v ? b.v : a.v}; }

inline VecD FiniteMask(VecD x) { return {(x.v - x.v) == 0.0 ? 1.0 : 0.0}; }
inline VecD Select(VecD mask, VecD x) { return {mask.v != 0.0 ? x.v : 0.0}; }

inline double HorizontalSum(VecD x) { return x.v; }
inline double Lane(VecD x, size_t) { return x.v; }

#endif

}  // namespace simd
}  // namespace dspot

#endif  // DSPOT_KERNELS_DSPOT_SIMD_H_
