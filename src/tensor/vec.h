#ifndef EALGAP_TENSOR_VEC_H_
#define EALGAP_TENSOR_VEC_H_

/// Lane-width-generic SIMD abstraction + deterministic vector math.
///
/// Four backends expose the same static interface — VScalar (1 lane),
/// VSse2 (4 lanes, compiled when __SSE2__), VAvx2 (8 lanes, compiled when
/// __AVX2__), VAvx512 (16 lanes, compiled when __AVX512F__ and
/// __AVX512DQ__) — so every kernel in kernels_impl.h is written ONCE as a
/// template and instantiated per backend (tensor/kernels_{scalar,sse2,avx2,
/// avx512}.cc). The math functions VExp/VTanh/VSigmoid below are implemented
/// from the same algorithm in all backends.
///
/// Comparisons return the backend's mask type M: an all-ones/all-zeros
/// vector V up to AVX2, an __mmask16 on AVX-512. Masks are consumed only by
/// Select and IfThenElseZero.
///
/// Everything here has internal linkage (an unnamed namespace): each kernel
/// TU compiles its own copy under its own ISA flags, so the linker can
/// never merge, say, the AVX-512 TU's VExp<VAvx2> into the AVX2 table or the
/// AVX2 TU's VExp<VScalar> into the scalar table, which would run
/// instructions the host may not have.
///
/// DETERMINISM CONTRACT. A kernel must produce bit-identical results in
/// every backend, at every lane width, for any chunking of its input. The
/// abstraction guarantees this because:
///  - Add/Sub/Mul/Div/Sqrt are IEEE-754 correctly rounded in both scalar
///    and SIMD form, so per-element results match exactly.
///  - SMax/SMin reproduce std::max/std::min semantics bit-for-bit
///    (including NaN and signed-zero behavior) in every backend.
///  - No fused multiply-add anywhere: the kernel TUs are compiled with
///    -ffp-contract=off and no FMA intrinsics are used, so `a*b + c`
///    rounds twice in every backend, identically.
///  - RoundNearest uses the add-magic-number trick (round-to-nearest-even
///    for |x| < 2^22) instead of mode-dependent conversions.
/// Kernels must additionally keep a fixed per-element operation order (see
/// kernels_impl.h) so lane width and thread count never change a result.

#include <cmath>
#include <cstdint>
#include <limits>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif
#if defined(__AVX2__)
#include <immintrin.h>
#endif

#include <bit>

namespace ealgap {
namespace vec {
namespace {

// --- scalar backend (always available; defines the reference semantics) ---

struct VScalar {
  static constexpr int kWidth = 1;
  using V = float;
  using VI = int32_t;
  using M = V;

  static V Load(const float* p) { return *p; }
  static void Store(float* p, V v) { *p = v; }
  static V Set1(float v) { return v; }
  /// Lane i = p[i * stride], and its inverse p[i * stride] = lane i: one
  /// field of consecutive rows. (kWidth - 1) * stride must fit an int32.
  static V Gather(const float* p, int64_t) { return *p; }
  static void Scatter(float* p, int64_t, V v) { *p = v; }

  static V Add(V a, V b) { return a + b; }
  static V Sub(V a, V b) { return a - b; }
  static V Mul(V a, V b) { return a * b; }
  static V Div(V a, V b) { return a / b; }
  /// std::max(a, b): (a < b) ? b : a — NaN operand b is dropped, NaN a wins.
  static V SMax(V a, V b) { return (a < b) ? b : a; }
  /// std::min(a, b): (b < a) ? b : a.
  static V SMin(V a, V b) { return (b < a) ? b : a; }
  static V Sqrt(V a) { return std::sqrt(a); }

  static V And(V a, V b) {
    return std::bit_cast<float>(std::bit_cast<uint32_t>(a) &
                                std::bit_cast<uint32_t>(b));
  }
  static V AndNot(V a, V b) {  // ~a & b
    return std::bit_cast<float>(~std::bit_cast<uint32_t>(a) &
                                std::bit_cast<uint32_t>(b));
  }
  static V Or(V a, V b) {
    return std::bit_cast<float>(std::bit_cast<uint32_t>(a) |
                                std::bit_cast<uint32_t>(b));
  }
  static V Xor(V a, V b) {
    return std::bit_cast<float>(std::bit_cast<uint32_t>(a) ^
                                std::bit_cast<uint32_t>(b));
  }

  /// Comparison masks: all-ones when true, all-zeros when false (like
  /// cmpps). Unordered comparisons (NaN) are false except CmpNeq.
  static M CmpLt(V a, V b) { return MaskOf(a < b); }
  static M CmpGt(V a, V b) { return MaskOf(a > b); }
  static M CmpNeq(V a, V b) { return MaskOf(!(a == b)); }
  /// mask ? a : b per lane.
  static V Select(M mask, V a, V b) {
    return Or(And(mask, a), AndNot(mask, b));
  }
  /// mask ? a : +0 per lane.
  static V IfThenElseZero(M mask, V a) { return And(mask, a); }

  /// Round to nearest (ties to even) for |x| < 2^22, as a float.
  static V RoundNearest(V x) {
    const float magic = 12582912.f;  // 1.5 * 2^23
    return (x + magic) - magic;
  }
  /// Truncating float->int32 conversion; input must be in int32 range.
  static VI ToInt(V x) { return static_cast<int32_t>(x); }
  /// 2^k for integer k in [-126, 127] via exponent-bit construction.
  static V Pow2FromInt(VI k) {
    return std::bit_cast<float>(static_cast<uint32_t>(k + 127) << 23);
  }

  /// Deterministic 4-lane double accumulator: lane (i % 4) owns element i
  /// of a block; DReduce combines lanes in fixed order ((l0+l1)+l2)+l3.
  struct Dacc {
    double lane[4];
  };
  static Dacc DZero() { return {{0.0, 0.0, 0.0, 0.0}}; }
  static void DAcc4(Dacc& acc, const float* p) {
    for (int j = 0; j < 4; ++j) acc.lane[j] += static_cast<double>(p[j]);
  }
  static void DAcc4Sq(Dacc& acc, const float* p) {
    for (int j = 0; j < 4; ++j) {
      acc.lane[j] += static_cast<double>(p[j]) * static_cast<double>(p[j]);
    }
  }
  static void DStore(const Dacc& acc, double* out) {
    for (int j = 0; j < 4; ++j) out[j] = acc.lane[j];
  }

  /// One double per float lane, for per-lane double sums (a softmax
  /// denominator over kWidth independent rows): DWiden is exact, DAdd and
  /// the divide in DRecip are IEEE-754 correctly rounded, and DRecip's
  /// narrowing rounds to nearest like static_cast<float>.
  using DV = double;
  static DV DZeroV() { return 0.0; }
  static DV DWiden(V v) { return static_cast<double>(v); }
  static DV DAdd(DV a, DV b) { return a + b; }
  /// float(1.0 / a) per lane.
  static V DRecip(DV a) { return static_cast<float>(1.0 / a); }

 private:
  static V MaskOf(bool b) {
    return std::bit_cast<float>(b ? 0xFFFFFFFFu : 0u);
  }
};

#if defined(__SSE2__)

struct VSse2 {
  static constexpr int kWidth = 4;
  using V = __m128;
  using VI = __m128i;
  using M = V;
  /// Remainder lanes of a blocked pass run at this width (EalgapServeRange).
  using Narrower = VScalar;

  static V Load(const float* p) { return _mm_loadu_ps(p); }
  static void Store(float* p, V v) { _mm_storeu_ps(p, v); }
  static V Set1(float v) { return _mm_set1_ps(v); }
  static V Gather(const float* p, int64_t s) {
    return _mm_setr_ps(p[0], p[s], p[2 * s], p[3 * s]);
  }
  static void Scatter(float* p, int64_t s, V v) {
    _mm_store_ss(p, v);
    _mm_store_ss(p + s, _mm_shuffle_ps(v, v, 1));
    _mm_store_ss(p + 2 * s, _mm_shuffle_ps(v, v, 2));
    _mm_store_ss(p + 3 * s, _mm_shuffle_ps(v, v, 3));
  }

  static V Add(V a, V b) { return _mm_add_ps(a, b); }
  static V Sub(V a, V b) { return _mm_sub_ps(a, b); }
  static V Mul(V a, V b) { return _mm_mul_ps(a, b); }
  static V Div(V a, V b) { return _mm_div_ps(a, b); }
  // MAXPS(dst, src) = (dst > src) ? dst : src, NaN -> src. With dst=b,
  // src=a this is exactly std::max(a, b) (NaN a wins, +0/-0 order kept).
  static V SMax(V a, V b) { return _mm_max_ps(b, a); }
  static V SMin(V a, V b) { return _mm_min_ps(b, a); }
  static V Sqrt(V a) { return _mm_sqrt_ps(a); }

  static V And(V a, V b) { return _mm_and_ps(a, b); }
  static V AndNot(V a, V b) { return _mm_andnot_ps(a, b); }
  static V Or(V a, V b) { return _mm_or_ps(a, b); }
  static V Xor(V a, V b) { return _mm_xor_ps(a, b); }

  static M CmpLt(V a, V b) { return _mm_cmplt_ps(a, b); }
  static M CmpGt(V a, V b) { return _mm_cmpgt_ps(a, b); }
  static M CmpNeq(V a, V b) { return _mm_cmpneq_ps(a, b); }
  static V Select(M mask, V a, V b) {
    return _mm_or_ps(_mm_and_ps(mask, a), _mm_andnot_ps(mask, b));
  }
  static V IfThenElseZero(M mask, V a) { return _mm_and_ps(mask, a); }

  static V RoundNearest(V x) {
    const V magic = _mm_set1_ps(12582912.f);
    return _mm_sub_ps(_mm_add_ps(x, magic), magic);
  }
  static VI ToInt(V x) { return _mm_cvttps_epi32(x); }
  static V Pow2FromInt(VI k) {
    return _mm_castsi128_ps(
        _mm_slli_epi32(_mm_add_epi32(k, _mm_set1_epi32(127)), 23));
  }

  struct Dacc {
    __m128d lo;  // lanes 0,1
    __m128d hi;  // lanes 2,3
  };
  static Dacc DZero() { return {_mm_setzero_pd(), _mm_setzero_pd()}; }
  static void DAcc4(Dacc& acc, const float* p) {
    const __m128 v = _mm_loadu_ps(p);
    acc.lo = _mm_add_pd(acc.lo, _mm_cvtps_pd(v));
    acc.hi = _mm_add_pd(acc.hi, _mm_cvtps_pd(_mm_movehl_ps(v, v)));
  }
  static void DAcc4Sq(Dacc& acc, const float* p) {
    const __m128 v = _mm_loadu_ps(p);
    const __m128d dlo = _mm_cvtps_pd(v);
    const __m128d dhi = _mm_cvtps_pd(_mm_movehl_ps(v, v));
    acc.lo = _mm_add_pd(acc.lo, _mm_mul_pd(dlo, dlo));
    acc.hi = _mm_add_pd(acc.hi, _mm_mul_pd(dhi, dhi));
  }
  static void DStore(const Dacc& acc, double* out) {
    _mm_storeu_pd(out, acc.lo);
    _mm_storeu_pd(out + 2, acc.hi);
  }

  struct DV {
    __m128d lo;  // lanes 0,1
    __m128d hi;  // lanes 2,3
  };
  static DV DZeroV() { return {_mm_setzero_pd(), _mm_setzero_pd()}; }
  static DV DWiden(V v) {
    return {_mm_cvtps_pd(v), _mm_cvtps_pd(_mm_movehl_ps(v, v))};
  }
  static DV DAdd(DV a, DV b) {
    return {_mm_add_pd(a.lo, b.lo), _mm_add_pd(a.hi, b.hi)};
  }
  static V DRecip(DV a) {
    const __m128d one = _mm_set1_pd(1.0);
    return _mm_movelh_ps(_mm_cvtpd_ps(_mm_div_pd(one, a.lo)),
                         _mm_cvtpd_ps(_mm_div_pd(one, a.hi)));
  }
};

#endif  // __SSE2__

#if defined(__AVX2__)

struct VAvx2 {
  static constexpr int kWidth = 8;
  using V = __m256;
  using VI = __m256i;
  using M = V;
  using Narrower = VScalar;

  static V Load(const float* p) { return _mm256_loadu_ps(p); }
  static void Store(float* p, V v) { _mm256_storeu_ps(p, v); }
  static V Set1(float v) { return _mm256_set1_ps(v); }
  static V Gather(const float* p, int64_t s) {
    const __m256i index =
        _mm256_mullo_epi32(_mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
                           _mm256_set1_epi32(static_cast<int32_t>(s)));
    return _mm256_mask_i32gather_ps(_mm256_setzero_ps(), p, index,
                                    _mm256_castsi256_ps(_mm256_set1_epi32(-1)),
                                    4);
  }
  static void Scatter(float* p, int64_t s, V v) {
    VSse2::Scatter(p, s, _mm256_castps256_ps128(v));
    VSse2::Scatter(p + 4 * s, s, _mm256_extractf128_ps(v, 1));
  }

  static V Add(V a, V b) { return _mm256_add_ps(a, b); }
  static V Sub(V a, V b) { return _mm256_sub_ps(a, b); }
  static V Mul(V a, V b) { return _mm256_mul_ps(a, b); }
  static V Div(V a, V b) { return _mm256_div_ps(a, b); }
  static V SMax(V a, V b) { return _mm256_max_ps(b, a); }
  static V SMin(V a, V b) { return _mm256_min_ps(b, a); }
  static V Sqrt(V a) { return _mm256_sqrt_ps(a); }

  static V And(V a, V b) { return _mm256_and_ps(a, b); }
  static V AndNot(V a, V b) { return _mm256_andnot_ps(a, b); }
  static V Or(V a, V b) { return _mm256_or_ps(a, b); }
  static V Xor(V a, V b) { return _mm256_xor_ps(a, b); }

  static M CmpLt(V a, V b) { return _mm256_cmp_ps(a, b, _CMP_LT_OQ); }
  static M CmpGt(V a, V b) { return _mm256_cmp_ps(a, b, _CMP_GT_OQ); }
  static M CmpNeq(V a, V b) { return _mm256_cmp_ps(a, b, _CMP_NEQ_UQ); }
  static V Select(M mask, V a, V b) { return _mm256_blendv_ps(b, a, mask); }
  static V IfThenElseZero(M mask, V a) { return _mm256_and_ps(mask, a); }

  static V RoundNearest(V x) {
    const V magic = _mm256_set1_ps(12582912.f);
    return _mm256_sub_ps(_mm256_add_ps(x, magic), magic);
  }
  static VI ToInt(V x) { return _mm256_cvttps_epi32(x); }
  static V Pow2FromInt(VI k) {
    return _mm256_castsi256_ps(
        _mm256_slli_epi32(_mm256_add_epi32(k, _mm256_set1_epi32(127)), 23));
  }

  // Still a 4-lane double accumulator (one __m256d): the lane layout must
  // match VScalar/VSse2 exactly, so AVX2 consumes 4 floats per step too.
  struct Dacc {
    __m256d acc;
  };
  static Dacc DZero() { return {_mm256_setzero_pd()}; }
  static void DAcc4(Dacc& acc, const float* p) {
    acc.acc = _mm256_add_pd(acc.acc, _mm256_cvtps_pd(_mm_loadu_ps(p)));
  }
  static void DAcc4Sq(Dacc& acc, const float* p) {
    const __m256d d = _mm256_cvtps_pd(_mm_loadu_ps(p));
    acc.acc = _mm256_add_pd(acc.acc, _mm256_mul_pd(d, d));
  }
  static void DStore(const Dacc& acc, double* out) {
    _mm256_storeu_pd(out, acc.acc);
  }

  struct DV {
    __m256d lo;  // lanes 0..3
    __m256d hi;  // lanes 4..7
  };
  static DV DZeroV() { return {_mm256_setzero_pd(), _mm256_setzero_pd()}; }
  static DV DWiden(V v) {
    return {_mm256_cvtps_pd(_mm256_castps256_ps128(v)),
            _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1))};
  }
  static DV DAdd(DV a, DV b) {
    return {_mm256_add_pd(a.lo, b.lo), _mm256_add_pd(a.hi, b.hi)};
  }
  static V DRecip(DV a) {
    const __m256d one = _mm256_set1_pd(1.0);
    return _mm256_set_m128(_mm256_cvtpd_ps(_mm256_div_pd(one, a.hi)),
                           _mm256_cvtpd_ps(_mm256_div_pd(one, a.lo)));
  }
};

#endif  // __AVX2__

#if defined(__AVX512F__) && defined(__AVX512DQ__)

/// The plain forms of several intrinsics (max/min/sqrt, cvtt, slli, the
/// 256-bit extracts and conversions) pass an undefined vector as their
/// merge source, which GCC 12 reports under -Wuninitialized; the
/// all-lanes maskz forms compile to the same instructions without it.
struct VAvx512 {
  static constexpr int kWidth = 16;
  using V = __m512;
  using VI = __m512i;
  using M = __mmask16;
  using Narrower = VAvx2;
  static constexpr __mmask16 kAll = 0xFFFF;

  static V Load(const float* p) { return _mm512_loadu_ps(p); }
  static void Store(float* p, V v) { _mm512_storeu_ps(p, v); }
  static V Set1(float v) { return _mm512_set1_ps(v); }
  static __m512i GatherIndex(int64_t s) {
    return _mm512_mullo_epi32(
        _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14,
                          15),
        _mm512_set1_epi32(static_cast<int32_t>(s)));
  }
  static V Gather(const float* p, int64_t s) {
    return _mm512_mask_i32gather_ps(_mm512_setzero_ps(), 0xFFFF,
                                    GatherIndex(s), p, 4);
  }
  static void Scatter(float* p, int64_t s, V v) {
    _mm512_i32scatter_ps(p, GatherIndex(s), v, 4);
  }

  static V Add(V a, V b) { return _mm512_add_ps(a, b); }
  static V Sub(V a, V b) { return _mm512_sub_ps(a, b); }
  static V Mul(V a, V b) { return _mm512_mul_ps(a, b); }
  static V Div(V a, V b) { return _mm512_div_ps(a, b); }
  // VMAXPS keeps MAXPS's operand rule, so (b, a) is std::max(a, b).
  static V SMax(V a, V b) { return _mm512_maskz_max_ps(kAll, b, a); }
  static V SMin(V a, V b) { return _mm512_maskz_min_ps(kAll, b, a); }
  static V Sqrt(V a) { return _mm512_maskz_sqrt_ps(kAll, a); }

  static V And(V a, V b) { return _mm512_and_ps(a, b); }
  static V AndNot(V a, V b) { return _mm512_andnot_ps(a, b); }
  static V Or(V a, V b) { return _mm512_or_ps(a, b); }
  static V Xor(V a, V b) { return _mm512_xor_ps(a, b); }

  static M CmpLt(V a, V b) { return _mm512_cmp_ps_mask(a, b, _CMP_LT_OQ); }
  static M CmpGt(V a, V b) { return _mm512_cmp_ps_mask(a, b, _CMP_GT_OQ); }
  static M CmpNeq(V a, V b) { return _mm512_cmp_ps_mask(a, b, _CMP_NEQ_UQ); }
  static V Select(M mask, V a, V b) { return _mm512_mask_blend_ps(mask, b, a); }
  static V IfThenElseZero(M mask, V a) { return _mm512_maskz_mov_ps(mask, a); }

  static V RoundNearest(V x) {
    const V magic = _mm512_set1_ps(12582912.f);
    return _mm512_sub_ps(_mm512_add_ps(x, magic), magic);
  }
  static VI ToInt(V x) { return _mm512_maskz_cvttps_epi32(kAll, x); }
  static V Pow2FromInt(VI k) {
    return _mm512_castsi512_ps(
        _mm512_maskz_slli_epi32(
            kAll, _mm512_add_epi32(k, _mm512_set1_epi32(127)), 23));
  }

  // The same 4-lane double accumulator as VAvx2 (lane layout is fixed).
  struct Dacc {
    __m256d acc;
  };
  static Dacc DZero() { return {_mm256_setzero_pd()}; }
  static void DAcc4(Dacc& acc, const float* p) {
    acc.acc = _mm256_add_pd(acc.acc, _mm256_cvtps_pd(_mm_loadu_ps(p)));
  }
  static void DAcc4Sq(Dacc& acc, const float* p) {
    const __m256d d = _mm256_cvtps_pd(_mm_loadu_ps(p));
    acc.acc = _mm256_add_pd(acc.acc, _mm256_mul_pd(d, d));
  }
  static void DStore(const Dacc& acc, double* out) {
    _mm256_storeu_pd(out, acc.acc);
  }

  struct DV {
    __m512d lo;  // lanes 0..7
    __m512d hi;  // lanes 8..15
  };
  static DV DZeroV() { return {_mm512_setzero_pd(), _mm512_setzero_pd()}; }
  static DV DWiden(V v) {
    const __m256 lo = _mm512_maskz_extractf32x8_ps(0xFF, v, 0);
    const __m256 hi = _mm512_maskz_extractf32x8_ps(0xFF, v, 1);
    return {_mm512_maskz_cvtps_pd(0xFF, lo), _mm512_maskz_cvtps_pd(0xFF, hi)};
  }
  static DV DAdd(DV a, DV b) {
    return {_mm512_add_pd(a.lo, b.lo), _mm512_add_pd(a.hi, b.hi)};
  }
  static V DRecip(DV a) {
    const __m512d one = _mm512_set1_pd(1.0);
    const __m256 lo = _mm512_maskz_cvtpd_ps(0xFF, _mm512_div_pd(one, a.lo));
    const __m256 hi = _mm512_maskz_cvtpd_ps(0xFF, _mm512_div_pd(one, a.hi));
    const V low_half =
        _mm512_maskz_insertf32x8(kAll, _mm512_setzero_ps(), lo, 0);
    return _mm512_maskz_insertf32x8(kAll, low_half, hi, 1);
  }
};

#endif  // __AVX512F__ && __AVX512DQ__

// --- deterministic vector math (same algorithm in every backend) ---

/// Cephes-style expf. Accuracy ~2 ULP vs libm on [-87.33, 88.02].
/// Out-of-range behavior (part of the determinism contract):
///   x > kExpHi        -> +inf   (true expf stays finite up to 88.72)
///   x < kExpLo        -> 0      (no denormal outputs)
///   NaN               -> the input NaN
/// kExpHi is chosen so the scaling exponent k never exceeds 127.
inline constexpr float kExpHi = 88.02f;
inline constexpr float kExpLo = -87.33654f;

template <class B>
typename B::V VExp(typename B::V x) {
  using V = typename B::V;
  const V zero = B::Set1(0.f);
  using M = typename B::M;
  const M m_hi = B::CmpGt(x, B::Set1(kExpHi));
  const M m_lo = B::CmpLt(x, B::Set1(kExpLo));
  const M m_nan = B::CmpNeq(x, x);
  // Clamp into range; NaN survives SMax/SMin (first-operand rule), so it
  // is zeroed explicitly to keep the int conversion below well-defined.
  V xc = B::SMin(B::SMax(x, B::Set1(kExpLo)), B::Set1(kExpHi));
  xc = B::Select(m_nan, zero, xc);

  // k = round(x / ln 2); r = x - k*ln2 in extended precision.
  const V kf = B::RoundNearest(B::Mul(xc, B::Set1(1.44269504088896341f)));
  V r = B::Sub(xc, B::Mul(kf, B::Set1(0.693359375f)));
  r = B::Sub(r, B::Mul(kf, B::Set1(-2.12194440e-4f)));

  // e^r on |r| <= 0.5*ln2 (cephes single-precision minimax polynomial).
  V p = B::Set1(1.9875691500e-4f);
  p = B::Add(B::Mul(p, r), B::Set1(1.3981999507e-3f));
  p = B::Add(B::Mul(p, r), B::Set1(8.3334519073e-3f));
  p = B::Add(B::Mul(p, r), B::Set1(4.1665795894e-2f));
  p = B::Add(B::Mul(p, r), B::Set1(1.6666665459e-1f));
  p = B::Add(B::Mul(p, r), B::Set1(5.0000001201e-1f));
  const V rr = B::Mul(r, r);
  V y = B::Add(B::Add(B::Mul(p, rr), r), B::Set1(1.f));

  y = B::Mul(y, B::Pow2FromInt(B::ToInt(kf)));
  y = B::Select(m_lo, zero, y);
  y = B::Select(m_hi, B::Set1(std::numeric_limits<float>::infinity()), y);
  y = B::Select(m_nan, x, y);
  return y;
}

/// Cephes-style tanhf: polynomial on |x| < 0.625, exp-based elsewhere.
/// tanh(±inf) = ±1; NaN propagates.
template <class B>
typename B::V VTanh(typename B::V x) {
  using V = typename B::V;
  const V sign_mask = B::Set1(std::bit_cast<float>(0x80000000u));
  const V sign = B::And(x, sign_mask);
  const V ax = B::AndNot(sign_mask, x);
  const typename B::M m_small = B::CmpLt(ax, B::Set1(0.625f));

  // small: x + x^3 * P(x^2)
  const V z = B::Mul(x, x);
  V ps = B::Set1(-5.70498872745e-3f);
  ps = B::Add(B::Mul(ps, z), B::Set1(2.06390887954e-2f));
  ps = B::Add(B::Mul(ps, z), B::Set1(-5.37397155531e-2f));
  ps = B::Add(B::Mul(ps, z), B::Set1(1.33314422036e-1f));
  ps = B::Add(B::Mul(ps, z), B::Set1(-3.33332819422e-1f));
  const V small_r = B::Add(B::Mul(B::Mul(ps, z), x), x);

  // big: sign(x) * (1 - 2 / (e^{2|x|} + 1)); VExp overflow to +inf makes
  // this saturate to ±1 for |x| > 44.
  const V t = VExp<B>(B::Add(ax, ax));
  V big = B::Sub(B::Set1(1.f), B::Div(B::Set1(2.f), B::Add(t, B::Set1(1.f))));
  big = B::Or(big, sign);

  return B::Select(m_small, small_r, big);
}

/// Logistic sigmoid 1 / (1 + e^{-x}), defined through VExp so it shares
/// its determinism contract. sigmoid(+inf)=1, sigmoid(-inf)=0, NaN -> NaN.
template <class B>
typename B::V VSigmoid(typename B::V x) {
  using B_ = B;
  const typename B::V e =
      VExp<B_>(B::Xor(x, B::Set1(std::bit_cast<float>(0x80000000u))));
  return B::Div(B::Set1(1.f), B::Add(B::Set1(1.f), e));
}

}  // namespace
}  // namespace vec
}  // namespace ealgap

#endif  // EALGAP_TENSOR_VEC_H_
