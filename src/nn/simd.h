#ifndef LMKG_NN_SIMD_H_
#define LMKG_NN_SIMD_H_

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>

// Portability shim over the widest float SIMD ISA the build targets: one
// vector type + a handful of ops, selected at compile time from the
// compiler's target macros (so `-march=native` / LMKG_NATIVE_ARCH decides
// the ISA — see the "Performance & CI gates" section of the README):
//
//   * AVX-512F    -> 16 lanes (__m512, _mm512_fmadd_ps)
//   * AVX2 + FMA  -> 8 lanes (__m256, _mm256_fmadd_ps)
//   * NEON        -> 4 lanes (float32x4_t; fused on AArch64)
//   * anything else -> 1 lane scalar fallback, so every kernel written
//     against the shim compiles and runs unvectorized on baseline ISAs.
//
// The kernels in tensor.cc build their bit-compatibility guarantee on two
// properties of this shim: (1) kLanes is a build-time constant, so the
// vector/tail column split of a row depends only on the column count, and
// (2) MulAdd is one fixed op per build (fused or not), so an element
// accumulated over the same operand sequence gives the same bits no
// matter which kernel touched it.
//
// Everything here is deliberately `static` (internal linkage): the shim
// resolves to a DIFFERENT definition per translation unit depending on
// that TU's -march flags, and several functions (Load, Broadcast, Zero,
// ...) differ only in their return type — which is not part of the C++
// name mangling. With external linkage, a TU compiled without
// -march=native (e.g. a test binary) and the natively-compiled lmkg
// library would emit identically-mangled but incompatible out-of-line
// copies, and at -O0 the linker keeps exactly one of them — silently
// feeding, say, a scalar Load into the AVX-512 kernels. Internal linkage
// gives every TU its own ISA-consistent copies; nn::SimdIsaName() (in
// tensor.cc) reports the ISA the library's kernels actually resolved.

#if defined(__AVX512F__)
#include <immintrin.h>
#define LMKG_SIMD_AVX512 1
#elif defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#define LMKG_SIMD_AVX2 1
#elif defined(__ARM_NEON) || defined(__ARM_NEON__)
#include <arm_neon.h>
#define LMKG_SIMD_NEON 1
#else
#define LMKG_SIMD_SCALAR 1
#endif

namespace lmkg::nn::simd {

#if defined(LMKG_SIMD_AVX512)

constexpr size_t kLanes = 16;
constexpr size_t kRegisters = 32;  // architectural vector registers
constexpr const char* kIsaName = "avx512f";
using Vec = __m512;

static inline Vec Zero() { return _mm512_setzero_ps(); }
static inline Vec Broadcast(float v) { return _mm512_set1_ps(v); }
static inline Vec Load(const float* p) { return _mm512_loadu_ps(p); }
static inline void Store(float* p, Vec v) { _mm512_storeu_ps(p, v); }
static inline Vec Add(Vec a, Vec b) { return _mm512_add_ps(a, b); }
static inline Vec Sub(Vec a, Vec b) { return _mm512_sub_ps(a, b); }
static inline Vec Mul(Vec a, Vec b) { return _mm512_mul_ps(a, b); }
static inline Vec Min(Vec a, Vec b) { return _mm512_min_ps(a, b); }
static inline Vec Max(Vec a, Vec b) { return _mm512_max_ps(a, b); }
static inline Vec Div(Vec a, Vec b) { return _mm512_div_ps(a, b); }
/// Correctly rounded per-lane square root. The all-lanes zero-mask form:
/// plain _mm512_sqrt_ps trips GCC 12's -Wmaybe-uninitialized (see the
/// ReduceAdd note below), this one does not.
static inline Vec Sqrt(Vec v) { return _mm512_maskz_sqrt_ps(0xFFFF, v); }
/// a * b + c, fused.
static inline Vec MulAdd(Vec a, Vec b, Vec c) { return _mm512_fmadd_ps(a, b, c); }
/// MulAdd on one float (see the note after the ISA branches).
static inline float MulAddScalar(float a, float b, float c) {
  return std::fma(a, b, c);
}
/// Per-lane round to nearest integer (ties to even).
static inline Vec RoundNearest(Vec v) {
  return _mm512_roundscale_ps(
      v, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
}
/// y * 2^n for integral-valued n in [-126, 127] (exponent-bit add).
static inline Vec ScalePow2(Vec y, Vec n) {
  __m512i e = _mm512_slli_epi32(
      _mm512_add_epi32(_mm512_cvtps_epi32(n), _mm512_set1_epi32(127)), 23);
  return _mm512_mul_ps(y, _mm512_castsi512_ps(e));
}
/// Horizontal max.
static inline float ReduceMax(Vec v) { return _mm512_reduce_max_ps(v); }
/// Horizontal sum; fixed reduction tree (halves, then pairwise).
/// GCC 12 note: every 512-bit half-extraction intrinsic
/// (_mm512_castps512_ps256, _mm512_shuffle_f32x4, _mm512_reduce_add_ps)
/// is implemented in avx512fintrin.h via _mm512_undefined_ps(), which
/// -Wmaybe-uninitialized flags through inlining (GCC PR 105593). TUs
/// that call ReduceAdd compile with -Wno-maybe-uninitialized under GCC
/// (see src/nn/CMakeLists.txt) — the pragma route cannot suppress it
/// because the diagnostic is attributed to the system header.
static inline float ReduceAdd(Vec v) {
  const __m256 lo = _mm512_castps512_ps256(v);
  const __m256 hi =
      _mm512_castps512_ps256(_mm512_shuffle_f32x4(v, v, 0x4e));
  const __m256 s = _mm256_add_ps(lo, hi);
  __m128 lo4 = _mm256_castps256_ps128(s);
  const __m128 hi4 = _mm256_extractf128_ps(s, 1);
  lo4 = _mm_add_ps(lo4, hi4);
  __m128 shuf = _mm_movehdup_ps(lo4);
  __m128 sums = _mm_add_ps(lo4, shuf);
  shuf = _mm_movehl_ps(shuf, sums);
  sums = _mm_add_ss(sums, shuf);
  return _mm_cvtss_f32(sums);
}

#elif defined(LMKG_SIMD_AVX2)

constexpr size_t kLanes = 8;
constexpr size_t kRegisters = 16;
constexpr const char* kIsaName = "avx2+fma";
using Vec = __m256;

static inline Vec Zero() { return _mm256_setzero_ps(); }
static inline Vec Broadcast(float v) { return _mm256_set1_ps(v); }
static inline Vec Load(const float* p) { return _mm256_loadu_ps(p); }
static inline void Store(float* p, Vec v) { _mm256_storeu_ps(p, v); }
static inline Vec Add(Vec a, Vec b) { return _mm256_add_ps(a, b); }
static inline Vec Sub(Vec a, Vec b) { return _mm256_sub_ps(a, b); }
static inline Vec Mul(Vec a, Vec b) { return _mm256_mul_ps(a, b); }
static inline Vec Min(Vec a, Vec b) { return _mm256_min_ps(a, b); }
static inline Vec Max(Vec a, Vec b) { return _mm256_max_ps(a, b); }
static inline Vec Div(Vec a, Vec b) { return _mm256_div_ps(a, b); }
static inline Vec Sqrt(Vec v) { return _mm256_sqrt_ps(v); }
/// a * b + c, fused.
static inline Vec MulAdd(Vec a, Vec b, Vec c) { return _mm256_fmadd_ps(a, b, c); }
static inline float MulAddScalar(float a, float b, float c) {
  return std::fma(a, b, c);
}
/// Per-lane round to nearest integer (ties to even).
static inline Vec RoundNearest(Vec v) {
  return _mm256_round_ps(v, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
}
/// y * 2^n for integral-valued n in [-126, 127] (exponent-bit add).
static inline Vec ScalePow2(Vec y, Vec n) {
  __m256i e = _mm256_slli_epi32(
      _mm256_add_epi32(_mm256_cvtps_epi32(n), _mm256_set1_epi32(127)), 23);
  return _mm256_mul_ps(y, _mm256_castsi256_ps(e));
}
/// Horizontal max (halves, then pairwise — mirrors ReduceAdd's tree).
static inline float ReduceMax(Vec v) {
  __m128 lo = _mm256_castps256_ps128(v);
  __m128 hi = _mm256_extractf128_ps(v, 1);
  lo = _mm_max_ps(lo, hi);
  __m128 shuf = _mm_movehdup_ps(lo);
  __m128 maxs = _mm_max_ps(lo, shuf);
  shuf = _mm_movehl_ps(shuf, maxs);
  maxs = _mm_max_ss(maxs, shuf);
  return _mm_cvtss_f32(maxs);
}
/// Horizontal sum; fixed reduction tree (lo+hi halves, then pairwise).
static inline float ReduceAdd(Vec v) {
  __m128 lo = _mm256_castps256_ps128(v);
  __m128 hi = _mm256_extractf128_ps(v, 1);
  lo = _mm_add_ps(lo, hi);
  __m128 shuf = _mm_movehdup_ps(lo);
  __m128 sums = _mm_add_ps(lo, shuf);
  shuf = _mm_movehl_ps(shuf, sums);
  sums = _mm_add_ss(sums, shuf);
  return _mm_cvtss_f32(sums);
}

#elif defined(LMKG_SIMD_NEON)

constexpr size_t kLanes = 4;
#if defined(__aarch64__)
constexpr size_t kRegisters = 32;
#else
constexpr size_t kRegisters = 16;
#endif
constexpr const char* kIsaName = "neon";
using Vec = float32x4_t;

static inline Vec Zero() { return vdupq_n_f32(0.0f); }
static inline Vec Broadcast(float v) { return vdupq_n_f32(v); }
static inline Vec Load(const float* p) { return vld1q_f32(p); }
static inline void Store(float* p, Vec v) { vst1q_f32(p, v); }
static inline Vec Add(Vec a, Vec b) { return vaddq_f32(a, b); }
static inline Vec Sub(Vec a, Vec b) { return vsubq_f32(a, b); }
static inline Vec Mul(Vec a, Vec b) { return vmulq_f32(a, b); }
static inline Vec Min(Vec a, Vec b) { return vminq_f32(a, b); }
static inline Vec Max(Vec a, Vec b) { return vmaxq_f32(a, b); }
/// Correctly rounded per-lane divide and square root (ARMv7 NEON has
/// only reciprocal estimates, so it goes lane by lane there).
#if defined(__aarch64__)
static inline Vec Div(Vec a, Vec b) { return vdivq_f32(a, b); }
static inline Vec Sqrt(Vec v) { return vsqrtq_f32(v); }
#else
static inline Vec Div(Vec a, Vec b) {
  float x[4], y[4];
  vst1q_f32(x, a);
  vst1q_f32(y, b);
  for (int i = 0; i < 4; ++i) x[i] /= y[i];
  return vld1q_f32(x);
}
static inline Vec Sqrt(Vec v) {
  float x[4];
  vst1q_f32(x, v);
  for (int i = 0; i < 4; ++i) x[i] = std::sqrt(x[i]);
  return vld1q_f32(x);
}
#endif
/// Per-lane round to nearest integer (ties to even on AArch64; the ARMv7
/// fallback uses the classic magic-number add, valid for |v| < 2^23 —
/// the exp range reduction below stays within +-128).
static inline Vec RoundNearest(Vec v) {
#if defined(__aarch64__)
  return vrndnq_f32(v);
#else
  const Vec magic = vdupq_n_f32(12582912.0f);  // 1.5 * 2^23
  return vsubq_f32(vaddq_f32(v, magic), magic);
#endif
}
/// y * 2^n for integral-valued n in [-126, 127] (exponent-bit add).
static inline Vec ScalePow2(Vec y, Vec n) {
  int32x4_t e = vshlq_n_s32(
      vaddq_s32(vcvtq_s32_f32(n), vdupq_n_s32(127)), 23);
  return vmulq_f32(y, vreinterpretq_f32_s32(e));
}
/// Horizontal max.
static inline float ReduceMax(Vec v) {
#if defined(__aarch64__)
  return vmaxvq_f32(v);
#else
  float32x2_t m = vpmax_f32(vget_low_f32(v), vget_high_f32(v));
  m = vpmax_f32(m, m);
  return vget_lane_f32(m, 0);
#endif
}
/// a * b + c (fused on AArch64; ARMv7 NEON has no IEEE FMA — vmla is a
/// chained multiply-add there).
static inline Vec MulAdd(Vec a, Vec b, Vec c) {
#if defined(__aarch64__)
  return vfmaq_f32(c, a, b);
#else
  return vmlaq_f32(c, a, b);
#endif
}
static inline float MulAddScalar(float a, float b, float c) {
#if defined(__aarch64__)
  return std::fma(a, b, c);
#else
  return vgetq_lane_f32(
      vmlaq_f32(vdupq_n_f32(c), vdupq_n_f32(a), vdupq_n_f32(b)), 0);
#endif
}
static inline float ReduceAdd(Vec v) {
#if defined(__aarch64__)
  return vaddvq_f32(v);
#else
  float32x2_t s = vpadd_f32(vget_low_f32(v), vget_high_f32(v));
  s = vpadd_f32(s, s);
  return vget_lane_f32(s, 0);
#endif
}

#else  // scalar fallback

constexpr size_t kLanes = 1;
constexpr size_t kRegisters = 16;
constexpr const char* kIsaName = "scalar";
using Vec = float;

static inline Vec Zero() { return 0.0f; }
static inline Vec Broadcast(float v) { return v; }
static inline Vec Load(const float* p) { return *p; }
static inline void Store(float* p, Vec v) { *p = v; }
static inline Vec Add(Vec a, Vec b) { return a + b; }
static inline Vec Sub(Vec a, Vec b) { return a - b; }
static inline Vec Mul(Vec a, Vec b) { return a * b; }
static inline Vec Min(Vec a, Vec b) { return a < b ? a : b; }
static inline Vec Max(Vec a, Vec b) { return a > b ? a : b; }
static inline Vec Div(Vec a, Vec b) { return a / b; }
static inline Vec Sqrt(Vec v) { return std::sqrt(v); }
static inline float MulAddScalar(float a, float b, float c) {
#if defined(__FP_FAST_FMAF)
  return std::fma(a, b, c);
#else
  return a * b + c;  // no FMA instruction to contract into
#endif
}
static inline Vec MulAdd(Vec a, Vec b, Vec c) { return MulAddScalar(a, b, c); }
static inline Vec RoundNearest(Vec v) {
  // Magic-number round-to-nearest (ties to even), valid for |v| < 2^23 —
  // same trick as the ARMv7 NEON path so every ISA rounds identically.
  const float magic = 12582912.0f;  // 1.5 * 2^23
  return (v + magic) - magic;
}
static inline Vec ScalePow2(Vec y, Vec n) {
  const uint32_t bits =
      static_cast<uint32_t>(static_cast<int32_t>(n) + 127) << 23;
  return y * std::bit_cast<float>(bits);
}
static inline float ReduceAdd(Vec v) { return v; }
static inline float ReduceMax(Vec v) { return v; }

#endif

// MulAddScalar is MulAdd on one float, fused exactly when MulAdd is and
// spelled as an explicit call. Scalar tails written as `o += a * b` get
// whatever the compiler decides per site: unfused at -O0, contracted
// into an FMA at -O2, and split again when it vectorizes a sum as an
// ordered reduction. Kernels whose tails must match their vector
// region, or another kernel, use MulAddScalar.

/// Per-lane e^x with ~1-ulp relative accuracy (well inside the 1e-6
/// bound nn_test pins): Cody-Waite range reduction x = n·ln2 + r with
/// |r| <= ln2/2, a degree-7 polynomial for e^r (the classic Cephes
/// coefficients), and an exponent-bit 2^n scale. Inputs are clamped to
/// the finite-float domain, so e^-inf flushes to ~0 and e^+big saturates
/// near FLT_MAX instead of producing inf/NaN. Written against the shim
/// ops above, so it compiles on every ISA including the scalar fallback;
/// like MulAdd, results may differ in the last bits across ISAs (fused vs
/// unfused), never beyond the pinned error bound.
static inline Vec Exp(Vec x) {
  // Upper clamp 88.0 (not the 88.72 float-overflow edge): it keeps the
  // reduced n <= 127 so the exponent-bit scale below cannot overflow to
  // inf; e^88 ~ 1.7e38 is the saturation value.
  x = Min(x, Broadcast(88.0f));
  x = Max(x, Broadcast(-87.3365478515625f));
  const Vec n = RoundNearest(Mul(x, Broadcast(1.44269504088896341f)));
  // r = x - n*ln2, split into a high and a low part so the product with
  // n stays exact in float.
  Vec r = MulAdd(n, Broadcast(-0.693359375f), x);
  r = MulAdd(n, Broadcast(2.12194440e-4f), r);
  Vec p = Broadcast(1.9875691500e-4f);
  p = MulAdd(p, r, Broadcast(1.3981999507e-3f));
  p = MulAdd(p, r, Broadcast(8.3334519073e-3f));
  p = MulAdd(p, r, Broadcast(4.1665795894e-2f));
  p = MulAdd(p, r, Broadcast(1.6666665459e-1f));
  p = MulAdd(p, r, Broadcast(5.0000001201e-1f));
  const Vec y = MulAdd(Mul(r, r), p, Add(r, Broadcast(1.0f)));
  return ScalePow2(y, n);
}

/// Scalar e^x with the same algorithm (and accuracy) as Exp — the tail
/// columns of a vectorized loop use this so a row's accuracy is uniform.
static inline float ExpScalar(float x) {
  if (x > 88.0f) x = 88.0f;  // keeps n <= 127, see Exp
  if (x < -87.3365478515625f) x = -87.3365478515625f;
  const float magic = 12582912.0f;  // 1.5 * 2^23
  const float n = (x * 1.44269504088896341f + magic) - magic;
  float r = n * -0.693359375f + x;
  r = n * 2.12194440e-4f + r;
  float p = 1.9875691500e-4f;
  p = p * r + 1.3981999507e-3f;
  p = p * r + 8.3334519073e-3f;
  p = p * r + 4.1665795894e-2f;
  p = p * r + 1.6666665459e-1f;
  p = p * r + 5.0000001201e-1f;
  const float y = (r * r) * p + (r + 1.0f);
  const uint32_t bits =
      static_cast<uint32_t>(static_cast<int32_t>(n) + 127) << 23;
  return y * std::bit_cast<float>(bits);
}

}  // namespace lmkg::nn::simd

#endif  // LMKG_NN_SIMD_H_
