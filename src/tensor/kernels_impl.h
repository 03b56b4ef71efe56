#ifndef EALGAP_TENSOR_KERNELS_IMPL_H_
#define EALGAP_TENSOR_KERNELS_IMPL_H_

/// Generic kernel bodies, templated on a vec.h backend. Each backend TU
/// (kernels_{scalar,sse2,avx2}.cc) instantiates MakeTable<B>() once; the
/// TU carries the ISA compile flags, this header carries the algorithms.
///
/// Determinism rules every kernel here follows (see vec.h for why this
/// yields bit-identical results across backends, lane widths and threads):
///  - elementwise kernels are per-element pure: the main loop runs the
///    backend instantiation, the remainder runs the VScalar instantiation
///    of the SAME functor, so element i's value never depends on lane
///    position or chunk boundaries;
///  - reductions accumulate into 4 interleaved double lanes (lane = i mod
///    4 within the block), remainder elements join their lane after the
///    vector loop, and lanes combine in fixed order;
///  - matmul keeps one fixed expression tree per output element, with the
///    column loop (not the accumulation) vectorized.

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "tensor/kernels.h"
#include "tensor/vec.h"

namespace ealgap {
namespace kernels {
namespace impl {

using vec::VScalar;

// --- elementwise op functors (vector and scalar form via backend B) ---

struct OpAdd {
  template <class B>
  static typename B::V Run(typename B::V a, typename B::V b) {
    return B::Add(a, b);
  }
};
struct OpSub {
  template <class B>
  static typename B::V Run(typename B::V a, typename B::V b) {
    return B::Sub(a, b);
  }
};
struct OpMul {
  template <class B>
  static typename B::V Run(typename B::V a, typename B::V b) {
    return B::Mul(a, b);
  }
};
struct OpDiv {
  template <class B>
  static typename B::V Run(typename B::V a, typename B::V b) {
    return B::Div(a, b);
  }
};
struct OpMax {
  template <class B>
  static typename B::V Run(typename B::V a, typename B::V b) {
    return B::SMax(a, b);
  }
};

struct OpNeg {
  template <class B>
  static typename B::V Run(typename B::V a) {
    return B::Xor(a, B::Set1(std::bit_cast<float>(0x80000000u)));
  }
};
struct OpAbs {
  template <class B>
  static typename B::V Run(typename B::V a) {
    return B::AndNot(B::Set1(std::bit_cast<float>(0x80000000u)), a);
  }
};
struct OpSign {  // x > 0 ? 1 : (x < 0 ? -1 : 0); NaN/±0 -> 0
  template <class B>
  static typename B::V Run(typename B::V a) {
    const typename B::V zero = B::Set1(0.f);
    const typename B::V pos = B::And(B::CmpGt(a, zero), B::Set1(1.f));
    const typename B::V neg = B::And(B::CmpLt(a, zero), B::Set1(-1.f));
    return B::Or(pos, neg);
  }
};
struct OpSqrt {
  template <class B>
  static typename B::V Run(typename B::V a) {
    return B::Sqrt(a);
  }
};
struct OpRelu {  // x > 0 ? x : 0 (NaN -> 0, matching the historical op)
  template <class B>
  static typename B::V Run(typename B::V a) {
    return B::And(B::CmpGt(a, B::Set1(0.f)), a);
  }
};
struct OpExp {
  template <class B>
  static typename B::V Run(typename B::V a) {
    return vec::VExp<B>(a);
  }
};
struct OpTanh {
  template <class B>
  static typename B::V Run(typename B::V a) {
    return vec::VTanh<B>(a);
  }
};
struct OpSigmoid {
  template <class B>
  static typename B::V Run(typename B::V a) {
    return vec::VSigmoid<B>(a);
  }
};
struct OpClamp {  // min(hi, max(lo, x)) with std::min/max semantics
  template <class B>
  static typename B::V Run(typename B::V a, typename B::V lo,
                           typename B::V hi) {
    return B::SMin(B::SMax(lo, a), hi);
  }
};

// --- loop skeletons ---

template <class B, class Op>
void EwBinaryVV(const float* a, const float* b, float* o, int64_t n) {
  int64_t i = 0;
  for (; i + B::kWidth <= n; i += B::kWidth) {
    B::Store(o + i, Op::template Run<B>(B::Load(a + i), B::Load(b + i)));
  }
  for (; i < n; ++i) o[i] = Op::template Run<VScalar>(a[i], b[i]);
}

template <class B, class Op>
void EwBinaryVS(const float* a, float s, float* o, int64_t n) {
  const typename B::V vs = B::Set1(s);
  int64_t i = 0;
  for (; i + B::kWidth <= n; i += B::kWidth) {
    B::Store(o + i, Op::template Run<B>(B::Load(a + i), vs));
  }
  for (; i < n; ++i) o[i] = Op::template Run<VScalar>(a[i], s);
}

template <class B, class Op>
void EwBinarySV(float s, const float* b, float* o, int64_t n) {
  const typename B::V vs = B::Set1(s);
  int64_t i = 0;
  for (; i + B::kWidth <= n; i += B::kWidth) {
    B::Store(o + i, Op::template Run<B>(vs, B::Load(b + i)));
  }
  for (; i < n; ++i) o[i] = Op::template Run<VScalar>(s, b[i]);
}

template <class B, class Op>
void EwUnary(const float* a, float* o, int64_t n) {
  int64_t i = 0;
  for (; i + B::kWidth <= n; i += B::kWidth) {
    B::Store(o + i, Op::template Run<B>(B::Load(a + i)));
  }
  for (; i < n; ++i) o[i] = Op::template Run<VScalar>(a[i]);
}

template <class B>
void ClampK(const float* a, float lo, float hi, float* o, int64_t n) {
  const typename B::V vlo = B::Set1(lo), vhi = B::Set1(hi);
  int64_t i = 0;
  for (; i + B::kWidth <= n; i += B::kWidth) {
    B::Store(o + i, OpClamp::Run<B>(B::Load(a + i), vlo, vhi));
  }
  for (; i < n; ++i) o[i] = OpClamp::Run<VScalar>(a[i], lo, hi);
}

// --- in-place ---

template <class B>
void AddIp(float* a, const float* b, int64_t n) {
  EwBinaryVV<B, OpAdd>(a, b, a, n);
}

template <class B>
void AxpyIp(float* a, float alpha, const float* b, int64_t n) {
  const typename B::V va = B::Set1(alpha);
  int64_t i = 0;
  for (; i + B::kWidth <= n; i += B::kWidth) {
    // a[i] + alpha*b[i]: one multiply, one add — never contracted (vec.h).
    B::Store(a + i, B::Add(B::Load(a + i), B::Mul(va, B::Load(b + i))));
  }
  for (; i < n; ++i) a[i] = a[i] + alpha * b[i];
}

template <class B>
void ScaleIp(float* a, float s, int64_t n) {
  EwBinaryVS<B, OpMul>(a, s, a, n);
}

template <class B>
void ReluIp(float* a, int64_t n) {
  EwUnary<B, OpRelu>(a, a, n);
}

template <class B>
void ClampIp(float* a, float lo, float hi, int64_t n) {
  ClampK<B>(a, lo, hi, a, n);
}

// --- reductions ---

/// Sum of p[0..n) with lane (i mod 4) double accumulators, combined in
/// lane order. Bit-identical to the VScalar instantiation by design.
template <class B>
double SumBlock(const float* p, int64_t n) {
  typename B::Dacc acc = B::DZero();
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) B::DAcc4(acc, p + i);
  double lanes[4];
  B::DStore(acc, lanes);
  for (; i < n; ++i) lanes[i & 3] += static_cast<double>(p[i]);
  return ((lanes[0] + lanes[1]) + lanes[2]) + lanes[3];
}

template <class B>
double SumSqBlock(const float* p, int64_t n) {
  typename B::Dacc acc = B::DZero();
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) B::DAcc4Sq(acc, p + i);
  double lanes[4];
  B::DStore(acc, lanes);
  for (; i < n; ++i) {
    lanes[i & 3] += static_cast<double>(p[i]) * static_cast<double>(p[i]);
  }
  return ((lanes[0] + lanes[1]) + lanes[2]) + lanes[3];
}

/// Max of p[0..n), n >= 1. Max over reals is order-insensitive, so the
/// lane tree is free to differ from sequential order — results are still
/// bit-identical across backends for NaN-free input (the documented
/// requirement; guards upstream reject NaN).
template <class B>
float MaxBlock(const float* p, int64_t n) {
  int64_t i = 0;
  float m;
  if (n >= B::kWidth) {
    typename B::V acc = B::Load(p);
    for (i = B::kWidth; i + B::kWidth <= n; i += B::kWidth) {
      acc = B::SMax(acc, B::Load(p + i));
    }
    float lanes[B::kWidth];
    B::Store(lanes, acc);
    m = lanes[0];
    for (int j = 1; j < B::kWidth; ++j) m = VScalar::SMax(m, lanes[j]);
  } else {
    m = p[0];
    i = 1;
  }
  for (; i < n; ++i) m = VScalar::SMax(m, p[i]);
  return m;
}

// --- fused rows ---

template <class B>
void SoftmaxRow(const float* src, float* dst, int64_t n) {
  const float mx = MaxBlock<B>(src, n);
  // dst = exp(src - mx), elementwise pure.
  const typename B::V vmx = B::Set1(mx);
  int64_t i = 0;
  for (; i + B::kWidth <= n; i += B::kWidth) {
    B::Store(dst + i, vec::VExp<B>(B::Sub(B::Load(src + i), vmx)));
  }
  for (; i < n; ++i) dst[i] = vec::VExp<VScalar>(src[i] - mx);
  // Deterministic double-lane denominator, then an elementwise scale.
  const float inv = static_cast<float>(1.0 / SumBlock<B>(dst, n));
  ScaleIp<B>(dst, inv, n);
}

template <class B>
void ExpPdfRow(const float* x, float lambda, float* o, int64_t n) {
  const typename B::V vneg = B::Set1(-lambda);
  const typename B::V vlam = B::Set1(lambda);
  const typename B::V zero = B::Set1(0.f);
  int64_t i = 0;
  for (; i + B::kWidth <= n; i += B::kWidth) {
    const typename B::V v = B::Load(x + i);
    const typename B::V pdf = B::Mul(vlam, vec::VExp<B>(B::Mul(vneg, v)));
    B::Store(o + i, B::Select(B::CmpLt(v, zero), zero, pdf));
  }
  for (; i < n; ++i) {
    const float pdf = lambda * vec::VExp<VScalar>(-lambda * x[i]);
    o[i] = x[i] < 0.f ? 0.f : pdf;
  }
}

template <class B>
void NormalPdfRow(const float* x, float mean, float inv_stddev, float inv_norm,
                  float* o, int64_t n) {
  const typename B::V vmean = B::Set1(mean);
  const typename B::V vinv = B::Set1(inv_stddev);
  const typename B::V vnorm = B::Set1(inv_norm);
  const typename B::V vhalf = B::Set1(-0.5f);
  int64_t i = 0;
  for (; i + B::kWidth <= n; i += B::kWidth) {
    const typename B::V z = B::Mul(B::Sub(B::Load(x + i), vmean), vinv);
    const typename B::V e = vec::VExp<B>(B::Mul(vhalf, B::Mul(z, z)));
    B::Store(o + i, B::Mul(vnorm, e));
  }
  for (; i < n; ++i) {
    const float z = (x[i] - mean) * inv_stddev;
    o[i] = inv_norm * vec::VExp<VScalar>(-0.5f * (z * z));
  }
}

// --- matmul microkernel ---

/// Rows [i0, i1) of the (m,k)x(k,n) product, i-k-j order, k unrolled by 4,
/// vectorized across output columns j. Per output element the expression
/// tree is fixed — ((a0*b0 + a1*b1) + a2*b2) + a3*b3, accumulated onto the
/// running row — so scalar, SSE2 and AVX2 produce identical bits.
template <class B>
void MatMulRows(const float* pa, const float* pb, float* po, int64_t i0,
                int64_t i1, int64_t k, int64_t n) {
  using V = typename B::V;
  constexpr int64_t kColBlock = 256;
  constexpr int W = B::kWidth;
  for (int64_t j0 = 0; j0 < n; j0 += kColBlock) {
    const int64_t j1 = std::min(n, j0 + kColBlock);
    for (int64_t i = i0; i < i1; ++i) {
      const float* arow = pa + i * k;
      float* orow = po + i * n;
      int64_t p = 0;
      for (; p + 4 <= k; p += 4) {
        const float a0 = arow[p + 0], a1 = arow[p + 1];
        const float a2 = arow[p + 2], a3 = arow[p + 3];
        const float* b0 = pb + (p + 0) * n;
        const float* b1 = pb + (p + 1) * n;
        const float* b2 = pb + (p + 2) * n;
        const float* b3 = pb + (p + 3) * n;
        const V va0 = B::Set1(a0), va1 = B::Set1(a1);
        const V va2 = B::Set1(a2), va3 = B::Set1(a3);
        int64_t j = j0;
        for (; j + W <= j1; j += W) {
          V t = B::Mul(va0, B::Load(b0 + j));
          t = B::Add(t, B::Mul(va1, B::Load(b1 + j)));
          t = B::Add(t, B::Mul(va2, B::Load(b2 + j)));
          t = B::Add(t, B::Mul(va3, B::Load(b3 + j)));
          B::Store(orow + j, B::Add(B::Load(orow + j), t));
        }
        for (; j < j1; ++j) {
          float t = a0 * b0[j];
          t = t + a1 * b1[j];
          t = t + a2 * b2[j];
          t = t + a3 * b3[j];
          orow[j] = orow[j] + t;
        }
      }
      for (; p < k; ++p) {
        const float av = arow[p];
        const float* brow = pb + p * n;
        const V vav = B::Set1(av);
        int64_t j = j0;
        for (; j + W <= j1; j += W) {
          B::Store(orow + j,
                   B::Add(B::Load(orow + j), B::Mul(vav, B::Load(brow + j))));
        }
        for (; j < j1; ++j) orow[j] = orow[j] + av * brow[j];
      }
    }
  }
}

// --- int8 inference kernels (DESIGN.md §8g) ---

/// Max of |p[i]| over [0, n); n == 0 returns 0. Like MaxBlock, max over
/// NaN-free reals is order-insensitive, so the lane tree is free and the
/// result is bit-identical across backends.
template <class B>
float AbsMaxBlock(const float* p, int64_t n) {
  if (n <= 0) return 0.f;
  int64_t i = 0;
  float m;
  if (n >= B::kWidth) {
    typename B::V acc = OpAbs::Run<B>(B::Load(p));
    for (i = B::kWidth; i + B::kWidth <= n; i += B::kWidth) {
      acc = B::SMax(acc, OpAbs::Run<B>(B::Load(p + i)));
    }
    float lanes[B::kWidth];
    B::Store(lanes, acc);
    m = lanes[0];
    for (int j = 1; j < B::kWidth; ++j) m = VScalar::SMax(m, lanes[j]);
  } else {
    m = OpAbs::Run<VScalar>(p[0]);
    i = 1;
  }
  for (; i < n; ++i) m = VScalar::SMax(m, OpAbs::Run<VScalar>(p[i]));
  return m;
}

/// q[i] = round-nearest-even(x[i] * inv_scale) clamped to [-127, 127], as
/// int8. Per-element pure: the vector body runs the exact operation
/// sequence of vec::QuantizeOneS8, the remainder runs QuantizeOneS8
/// itself.
template <class B>
void QuantizeRowS8(const float* x, float inv_scale, int8_t* q, int64_t n) {
  const typename B::V vinv = B::Set1(inv_scale);
  const typename B::V vlo = B::Set1(-127.f);
  const typename B::V vhi = B::Set1(127.f);
  int64_t i = 0;
  for (; i + B::kWidth <= n; i += B::kWidth) {
    typename B::V t = B::RoundNearest(B::Mul(B::Load(x + i), vinv));
    t = B::SMin(B::SMax(t, vlo), vhi);
    B::StoreQ8(q + i, B::ToInt(t));
  }
  for (; i < n; ++i) q[i] = vec::QuantizeOneS8(x[i], inv_scale);
}

/// Rows [i0, i1) of the quantized (m,k)x(k,n) product with EXACT int32
/// accumulation:
///
///   acc[i*n + j] = sum_p aq[i*k + p] * w[p][j]
///
/// aq is the int8-quantized activation matrix; wpack is the weight pack in
/// pair-interleaved int16 layout (nn/quant.cc): ceil(k/2) rows of n (lo,
/// hi) pairs, pair p2 of column j holding (w[2*p2][j], w[2*p2+1][j]) —
/// [V]PMADDWD's native operand shape, so each step multiplies two k-slices
/// into every output column at once. Integer sums are order-insensitive,
/// so scalar/SSE2/AVX2 and any chunking of rows agree bit for bit; the
/// caller bounds k (<= kQuantMaxK) so the accumulator cannot overflow.
template <class B>
void QuantGemmRows(const int8_t* aq, const int16_t* wpack, int32_t* acc,
                   int64_t i0, int64_t i1, int64_t k, int64_t n) {
  constexpr int W = B::kWidth;
  const int64_t pairs = (k + 1) / 2;
  for (int64_t i = i0; i < i1; ++i) {
    const int8_t* arow = aq + i * k;
    int32_t* orow = acc + i * n;
    int64_t j = 0;
    for (; j + W <= n; j += W) B::IStore(orow + j, B::IZero());
    for (; j < n; ++j) orow[j] = 0;
    for (int64_t p2 = 0; p2 < pairs; ++p2) {
      const int32_t a0 = arow[2 * p2];
      const int32_t a1 = (2 * p2 + 1 < k) ? arow[2 * p2 + 1] : 0;
      const uint32_t pair =
          (static_cast<uint32_t>(static_cast<uint16_t>(a0))) |
          (static_cast<uint32_t>(static_cast<uint16_t>(a1)) << 16);
      const int16_t* wrow = wpack + p2 * (2 * n);
      const typename B::VI va = B::ISet1(static_cast<int32_t>(pair));
      j = 0;
      for (; j + W <= n; j += W) {
        B::IStore(orow + j, B::MAddPairsAcc(B::ILoad(orow + j), va,
                                            B::ILoadPairs(wrow + 2 * j)));
      }
      for (; j < n; ++j) {
        orow[j] = orow[j] + (a0 * wrow[2 * j] + a1 * wrow[2 * j + 1]);
      }
    }
  }
}

/// Dequantization epilogue: o[j] = float(acc[j]) * (a_scale * w_scale[j])
/// [+ bias[j]]. Fixed three-rounding expression tree per element (scale
/// product, int->float product, bias add), identical in vector and scalar
/// form.
template <class B>
void DequantBiasRow(const int32_t* acc, float a_scale, const float* w_scale,
                    const float* bias, float* o, int64_t n) {
  const typename B::V va = B::Set1(a_scale);
  int64_t i = 0;
  if (bias != nullptr) {
    for (; i + B::kWidth <= n; i += B::kWidth) {
      const typename B::V s = B::Mul(va, B::Load(w_scale + i));
      const typename B::V m = B::Mul(B::IToF(B::ILoad(acc + i)), s);
      B::Store(o + i, B::Add(m, B::Load(bias + i)));
    }
    for (; i < n; ++i) {
      const float s = a_scale * w_scale[i];
      o[i] = static_cast<float>(acc[i]) * s + bias[i];
    }
  } else {
    for (; i + B::kWidth <= n; i += B::kWidth) {
      const typename B::V s = B::Mul(va, B::Load(w_scale + i));
      B::Store(o + i, B::Mul(B::IToF(B::ILoad(acc + i)), s));
    }
    for (; i < n; ++i) {
      const float s = a_scale * w_scale[i];
      o[i] = static_cast<float>(acc[i]) * s;
    }
  }
}

/// Fused rows [i0, i1) of the quantized GEMM + dequantization epilogue:
///
///   o[i*n + j] = float(sum_p aq[i*k + p] * w[p][j]) * (a_scale *
///                w_scale[j]) [+ bias[j]]
///
/// Same pack layout and int32 accumulation as QuantGemmRows and the SAME
/// per-element dequant expression tree as DequantBiasRow — the fused
/// result is bit-identical to the two-kernel composition. The fusion is
/// the serve-path fast lane: the accumulator tile lives in registers for
/// the whole k loop (QuantGemmRows streams an int32 row through memory
/// once per weight pair, and the separate epilogue re-reads it), so
/// tall-activation layers (rows = num_regions) stop paying the acc
/// round trip and the per-row epilogue dispatch.
template <class B>
void QuantGemmDequantRows(const int8_t* aq, const int16_t* wpack,
                          float a_scale, const float* w_scale,
                          const float* bias, float* o, int64_t i0, int64_t i1,
                          int64_t k, int64_t n) {
  constexpr int W = B::kWidth;
  const int64_t pairs = (k + 1) / 2;
  // Small-k fast lane (covers every tall-activation serve shape, where k
  // is the feature width or hidden size): sign-extend the activation row
  // to int16 once per row so each weight-pair broadcast is a single
  // 4-byte load-and-broadcast instead of two scalar byte loads plus
  // shift/or/insert per pair per column tile. Sign extension preserves
  // the low-16-bit pattern exactly, so the int32 sums are unchanged.
  // Deeper reductions (which callers route to the streaming kernels per
  // the kQuantFusedMaxK policy) keep the scalar pair assembly so this
  // kernel stays correct for any k.
  int16_t aq16[kQuantFusedMaxK + 1];
  const bool expand = k <= kQuantFusedMaxK;
  for (int64_t i = i0; i < i1; ++i) {
    const int8_t* arow = aq + i * k;
    float* orow = o + i * n;
    if (expand) {
      for (int64_t x = 0; x < k; ++x) aq16[x] = arow[x];
      if (k & 1) aq16[k] = 0;
    }
    int64_t j = 0;
    // 4-tile column blocks: one activation-pair broadcast feeds four
    // multiply-accumulates and the four pack loads per pair are
    // consecutive memory — ~30% fewer instructions per MAC than the
    // single-tile loop below, which handles the remainder. Integer sums
    // per output column are identical either way.
    if (expand) {
      for (; j + 4 * W <= n; j += 4 * W) {
        typename B::VI acc0 = B::IZero();
        typename B::VI acc1 = B::IZero();
        typename B::VI acc2 = B::IZero();
        typename B::VI acc3 = B::IZero();
        for (int64_t p2 = 0; p2 < pairs; ++p2) {
          int32_t pair;
          std::memcpy(&pair, aq16 + 2 * p2, sizeof(pair));
          const typename B::VI av = B::ISet1(pair);
          const int16_t* wr = wpack + p2 * (2 * n) + 2 * j;
          acc0 = B::MAddPairsAcc(acc0, av, B::ILoadPairs(wr));
          acc1 = B::MAddPairsAcc(acc1, av, B::ILoadPairs(wr + 2 * W));
          acc2 = B::MAddPairsAcc(acc2, av, B::ILoadPairs(wr + 4 * W));
          acc3 = B::MAddPairsAcc(acc3, av, B::ILoadPairs(wr + 6 * W));
        }
        const typename B::V vs = B::Set1(a_scale);
        const typename B::VI accs[4] = {acc0, acc1, acc2, acc3};
        for (int t = 0; t < 4; ++t) {
          const int64_t jt = j + t * W;
          const typename B::V s = B::Mul(vs, B::Load(w_scale + jt));
          const typename B::V m = B::Mul(B::IToF(accs[t]), s);
          B::Store(orow + jt,
                   bias != nullptr ? B::Add(m, B::Load(bias + jt)) : m);
        }
      }
    }
    for (; j + W <= n; j += W) {
      typename B::VI acc = B::IZero();
      if (expand) {
        for (int64_t p2 = 0; p2 < pairs; ++p2) {
          int32_t pair;
          std::memcpy(&pair, aq16 + 2 * p2, sizeof(pair));
          acc = B::MAddPairsAcc(acc, B::ISet1(pair),
                                B::ILoadPairs(wpack + p2 * (2 * n) + 2 * j));
        }
      } else {
        for (int64_t p2 = 0; p2 < pairs; ++p2) {
          const int32_t a0 = arow[2 * p2];
          const int32_t a1 = (2 * p2 + 1 < k) ? arow[2 * p2 + 1] : 0;
          const uint32_t pair =
              (static_cast<uint32_t>(static_cast<uint16_t>(a0))) |
              (static_cast<uint32_t>(static_cast<uint16_t>(a1)) << 16);
          acc = B::MAddPairsAcc(acc, B::ISet1(static_cast<int32_t>(pair)),
                                B::ILoadPairs(wpack + p2 * (2 * n) + 2 * j));
        }
      }
      const typename B::V s = B::Mul(B::Set1(a_scale), B::Load(w_scale + j));
      const typename B::V m = B::Mul(B::IToF(acc), s);
      B::Store(orow + j, bias != nullptr ? B::Add(m, B::Load(bias + j)) : m);
    }
    for (; j < n; ++j) {
      int32_t acc = 0;
      for (int64_t p2 = 0; p2 < pairs; ++p2) {
        const int32_t a0 = arow[2 * p2];
        const int32_t a1 = (2 * p2 + 1 < k) ? arow[2 * p2 + 1] : 0;
        const int16_t* wrow = wpack + p2 * (2 * n);
        acc += a0 * wrow[2 * j] + a1 * wrow[2 * j + 1];
      }
      const float s = a_scale * w_scale[j];
      orow[j] = bias != nullptr ? static_cast<float>(acc) * s + bias[j]
                                : static_cast<float>(acc) * s;
    }
  }
}

// --- contiguous copy ---

/// memcpy in kernel clothing: routes Tensor::Slice / CopyFrom row copies
/// through the dispatch table so they show up in the same profiling layer
/// as everything else. Destination alignment is whatever the caller's
/// buffer has (fresh tensor storage: 64 bytes); the source may be an
/// arbitrary row offset — memcpy has no alignment requirement, so this
/// kernel PRESERVES no alignment guarantee beyond the destination's own.
template <class B>
void CopyK(const float* src, float* dst, int64_t n) {
  std::memcpy(dst, src, static_cast<size_t>(n) * sizeof(float));
}

template <class B>
KernelTable MakeTable(Backend backend) {
  KernelTable t;
  t.backend = backend;
  t.add_vv = &EwBinaryVV<B, OpAdd>;
  t.sub_vv = &EwBinaryVV<B, OpSub>;
  t.mul_vv = &EwBinaryVV<B, OpMul>;
  t.div_vv = &EwBinaryVV<B, OpDiv>;
  t.max_vv = &EwBinaryVV<B, OpMax>;
  t.add_vs = &EwBinaryVS<B, OpAdd>;
  t.sub_vs = &EwBinaryVS<B, OpSub>;
  t.sub_sv = &EwBinarySV<B, OpSub>;
  t.mul_vs = &EwBinaryVS<B, OpMul>;
  t.div_vs = &EwBinaryVS<B, OpDiv>;
  t.div_sv = &EwBinarySV<B, OpDiv>;
  t.max_vs = &EwBinaryVS<B, OpMax>;
  t.max_sv = &EwBinarySV<B, OpMax>;
  t.neg = &EwUnary<B, OpNeg>;
  t.abs = &EwUnary<B, OpAbs>;
  t.sign = &EwUnary<B, OpSign>;
  t.sqrt = &EwUnary<B, OpSqrt>;
  t.relu = &EwUnary<B, OpRelu>;
  t.clamp = &ClampK<B>;
  t.exp = &EwUnary<B, OpExp>;
  t.tanh = &EwUnary<B, OpTanh>;
  t.sigmoid = &EwUnary<B, OpSigmoid>;
  t.add_ip = &AddIp<B>;
  t.axpy_ip = &AxpyIp<B>;
  t.scale_ip = &ScaleIp<B>;
  t.relu_ip = &ReluIp<B>;
  t.clamp_ip = &ClampIp<B>;
  t.sum_block = &SumBlock<B>;
  t.sumsq_block = &SumSqBlock<B>;
  t.max_block = &MaxBlock<B>;
  t.softmax_row = &SoftmaxRow<B>;
  t.exp_pdf_row = &ExpPdfRow<B>;
  t.normal_pdf_row = &NormalPdfRow<B>;
  t.copy = &CopyK<B>;
  t.matmul_rows = &MatMulRows<B>;
  t.absmax_block = &AbsMaxBlock<B>;
  t.quantize_s8 = &QuantizeRowS8<B>;
  t.quant_gemm_rows = &QuantGemmRows<B>;
  t.quant_gemm_dequant_rows = &QuantGemmDequantRows<B>;
  t.dequant_bias_row = &DequantBiasRow<B>;
  return t;
}

}  // namespace impl
}  // namespace kernels
}  // namespace ealgap

#endif  // EALGAP_TENSOR_KERNELS_IMPL_H_
