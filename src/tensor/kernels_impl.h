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
  return t;
}

}  // namespace impl
}  // namespace kernels
}  // namespace ealgap

#endif  // EALGAP_TENSOR_KERNELS_IMPL_H_
