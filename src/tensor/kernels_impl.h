#ifndef EALGAP_TENSOR_KERNELS_IMPL_H_
#define EALGAP_TENSOR_KERNELS_IMPL_H_

/// Generic kernel bodies, templated on a vec.h backend. Each backend TU
/// (kernels_{scalar,sse2,avx2,avx512}.cc) instantiates MakeTable<B>() once;
/// the TU carries the ISA compile flags, this header carries the
/// algorithms. Like vec.h, everything here has internal linkage, so every
/// instantiation stays inside the TU compiled for its ISA.
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
///    column loop (for outputs narrower than a vector, the row loop), not
///    the accumulation, vectorized.

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "tensor/kernels.h"
#include "tensor/vec.h"

namespace ealgap {
namespace kernels {
namespace impl {
namespace {

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
    const typename B::V pos =
        B::IfThenElseZero(B::CmpGt(a, zero), B::Set1(1.f));
    const typename B::V neg =
        B::IfThenElseZero(B::CmpLt(a, zero), B::Set1(-1.f));
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
    return B::IfThenElseZero(B::CmpGt(a, B::Set1(0.f)), a);
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

/// exp_pdf_row with a per-element rate: o[i] = x[i] < 0 ? 0 :
/// lambda[i] * exp(-lambda[i] * x[i]). Element i rounds exactly as
/// exp_pdf_row(x, lambda[i], ...) does; `o` may alias `lambda`.
template <class B>
void ExpPdf(const float* x, const float* lambda, float* o, int64_t n) {
  const typename B::V zero = B::Set1(0.f);
  int64_t i = 0;
  for (; i + B::kWidth <= n; i += B::kWidth) {
    const typename B::V v = B::Load(x + i);
    const typename B::V lam = B::Load(lambda + i);
    const typename B::V pdf =
        B::Mul(lam, vec::VExp<B>(B::Mul(OpNeg::Run<B>(lam), v)));
    B::Store(o + i, B::Select(B::CmpLt(v, zero), zero, pdf));
  }
  for (; i < n; ++i) {
    const float pdf = lambda[i] * vec::VExp<VScalar>(-lambda[i] * x[i]);
    o[i] = x[i] < 0.f ? 0.f : pdf;
  }
}

/// normal_pdf_row with per-element parameters; `o` may alias any of them.
template <class B>
void NormalPdf(const float* x, const float* mean, const float* inv_stddev,
               const float* inv_norm, float* o, int64_t n) {
  const typename B::V vhalf = B::Set1(-0.5f);
  int64_t i = 0;
  for (; i + B::kWidth <= n; i += B::kWidth) {
    const typename B::V z = B::Mul(B::Sub(B::Load(x + i), B::Load(mean + i)),
                                   B::Load(inv_stddev + i));
    const typename B::V e = vec::VExp<B>(B::Mul(vhalf, B::Mul(z, z)));
    B::Store(o + i, B::Mul(B::Load(inv_norm + i), e));
  }
  for (; i < n; ++i) {
    const float z = (x[i] - mean[i]) * inv_stddev[i];
    o[i] = inv_norm[i] * vec::VExp<VScalar>(-0.5f * (z * z));
  }
}

// --- lane helpers: one row (or region) per lane ---

/// Lane i of the result is p[i * stride]: one field of kWidth consecutive
/// regions' rows, copied through a lane array. The fused serve pass ran
/// slower on L::Gather (ealgap_serve_rows at N = 10k, one thread: 3.70 ->
/// 4.05 ms on AVX-512), so it and Eq. 6 keep this copy; the GRU and
/// narrow matmul kernels, where L::Gather measured faster, call it
/// directly.
template <class L>
typename L::V GatherLanes(const float* p, int64_t stride) {
  float lanes[L::kWidth];
  for (int i = 0; i < L::kWidth; ++i) lanes[i] = p[i * stride];
  return L::Load(lanes);
}

/// p[i * stride] = lane i of v, the inverse of GatherLanes.
template <class L>
void ScatterLanes(typename L::V v, float* p, int64_t stride) {
  L::Scatter(p, stride, v);
}

/// p -> a[p * stride]: a row (stride 1) or a column of a lane array, as a
/// DotTree operand.
template <class V>
auto Strided(const V* a, int64_t stride = 1) {
  return [a, stride](int64_t p) { return a[p * stride]; };
}

/// sum_p a(p) * b(p) in MatMulRows' per-element tree: products in groups
/// of four, ((a0*b0 + a1*b1) + a2*b2) + a3*b3, each group added onto a
/// running value that starts at 0, then the remainder one product at a
/// time. `a(p)` and `b(p)` yield the operands (a broadcast weight or a
/// per-region value).
template <class L, class AFn, class BFn>
[[gnu::always_inline]] inline typename L::V DotTree(int64_t k, AFn a,
                                                    BFn b) {
  using V = typename L::V;
  V acc = L::Set1(0.f);
  int64_t p = 0;
  for (; p + 4 <= k; p += 4) {
    V t = L::Mul(a(p), b(p));
    t = L::Add(t, L::Mul(a(p + 1), b(p + 1)));
    t = L::Add(t, L::Mul(a(p + 2), b(p + 2)));
    t = L::Add(t, L::Mul(a(p + 3), b(p + 3)));
    acc = L::Add(acc, t);
  }
  for (; p < k; ++p) acc = L::Add(acc, L::Mul(a(p), b(p)));
  return acc;
}

/// Runs block.template operator()<L>(r) over [r0, r1): full blocks of
/// B::kWidth rows, then the remainder through the next narrower backend
/// (B::Narrower: 16 -> 8 -> 1 on AVX-512, 8 -> 1 on AVX2, 4 -> 1 on
/// SSE2). Every width repeats the same per-element order.
template <class B, class Block>
void ForLaneBlocks(int64_t r0, int64_t r1, const Block& block) {
  int64_t r = r0;
  for (; r + B::kWidth <= r1; r += B::kWidth) block.template operator()<B>(r);
  if constexpr (B::kWidth > 1) {
    ForLaneBlocks<typename B::Narrower>(r, r1, block);
  }
}

// --- matmul microkernel ---

/// The left operand of a matmul: a row-major (m, k) A, or with kTransA
/// the transpose of a (k, m) A, read by column in place. `ld` is A's row
/// stride.
template <bool kTransA>
struct MatA {
  const float* p;
  int64_t ld;
  float operator()(int64_t i, int64_t q) const {
    return kTransA ? p[q * ld + i] : p[i * ld + q];
  }
  /// Lane l holds A(i + l, q).
  template <class L>
  typename L::V Lanes(int64_t i, int64_t q) const {
    if constexpr (kTransA) {
      return L::Load(p + q * ld + i);
    } else {
      return L::Gather(p + i * ld + q, ld);
    }
  }
};

/// kRows output rows from i by kVecs vectors of columns from j, their
/// running values held in registers while k streams once; the loads of B
/// are shared by the rows.
template <class B, int kRows, int kVecs, class A>
void MatMulTile(const A& a, const float* pb, float* po, int64_t i, int64_t j,
                int64_t k, int64_t n) {
  using V = typename B::V;
  constexpr int W = B::kWidth;
  V acc[kRows][kVecs];
  for (int r = 0; r < kRows; ++r) {
    for (int v = 0; v < kVecs; ++v) {
      acc[r][v] = B::Load(po + (i + r) * n + j + v * W);
    }
  }
  int64_t p = 0;
  for (; p + 4 <= k; p += 4) {
    const float* b0 = pb + p * n + j;
    for (int r = 0; r < kRows; ++r) {
      const V a0 = B::Set1(a(i + r, p)), a1 = B::Set1(a(i + r, p + 1));
      const V a2 = B::Set1(a(i + r, p + 2)), a3 = B::Set1(a(i + r, p + 3));
      for (int v = 0; v < kVecs; ++v) {
        const float* bv = b0 + v * W;
        V t = B::Mul(a0, B::Load(bv));
        t = B::Add(t, B::Mul(a1, B::Load(bv + n)));
        t = B::Add(t, B::Mul(a2, B::Load(bv + 2 * n)));
        t = B::Add(t, B::Mul(a3, B::Load(bv + 3 * n)));
        acc[r][v] = B::Add(acc[r][v], t);
      }
    }
  }
  for (; p < k; ++p) {
    for (int r = 0; r < kRows; ++r) {
      const V av = B::Set1(a(i + r, p));
      for (int v = 0; v < kVecs; ++v) {
        acc[r][v] =
            B::Add(acc[r][v], B::Mul(av, B::Load(pb + p * n + j + v * W)));
      }
    }
  }
  for (int r = 0; r < kRows; ++r) {
    for (int v = 0; v < kVecs; ++v) {
      B::Store(po + (i + r) * n + j + v * W, acc[r][v]);
    }
  }
}

/// MatMulTile over columns [j, j1), whole vectors only, at most four at a
/// time, so an output row of up to four vectors streams B once. Returns
/// the first column left over.
template <class B, int kRows, class A>
int64_t MatMulTileRow(const A& a, const float* pb, float* po, int64_t i,
                      int64_t j, int64_t j1, int64_t k, int64_t n) {
  constexpr int W = B::kWidth;
  for (; j + 4 * W <= j1; j += 4 * W) {
    MatMulTile<B, kRows, 4>(a, pb, po, i, j, k, n);
  }
  switch ((j1 - j) / W) {
    case 3:
      MatMulTile<B, kRows, 3>(a, pb, po, i, j, k, n);
      return j + 3 * W;
    case 2:
      MatMulTile<B, kRows, 2>(a, pb, po, i, j, k, n);
      return j + 2 * W;
    case 1:
      MatMulTile<B, kRows, 1>(a, pb, po, i, j, k, n);
      return j + W;
    default:
      return j;
  }
}

/// Rows [i0, i1) of the (m,k)x(k,n) product, vectorized across output
/// columns j, in tiles of up to four rows by four vectors. Per output
/// element the expression tree is fixed — ((a0*b0 + a1*b1) + a2*b2) +
/// a3*b3, accumulated onto the running value — so every table produces
/// identical bits.
template <class B, class A>
void MatMulWideRows(const A& a, const float* pb, float* po, int64_t i0,
                    int64_t i1, int64_t k, int64_t n) {
  constexpr int64_t kColBlock = 256;
  for (int64_t j0 = 0; j0 < n; j0 += kColBlock) {
    const int64_t j1 = std::min(n, j0 + kColBlock);
    int64_t i = i0;
    int64_t tail = j1;  // first column left to the scalar loop
    for (; i + 4 <= i1; i += 4) {
      tail = MatMulTileRow<B, 4>(a, pb, po, i, j0, j1, k, n);
    }
    for (; i < i1; ++i) tail = MatMulTileRow<B, 1>(a, pb, po, i, j0, j1, k, n);
    for (int64_t r = i0; r < i1; ++r) {
      float* orow = po + r * n;
      int64_t p = 0;
      for (; p + 4 <= k; p += 4) {
        const float* b0 = pb + p * n;
        for (int64_t j = tail; j < j1; ++j) {
          float t = a(r, p) * b0[j];
          t = t + a(r, p + 1) * b0[n + j];
          t = t + a(r, p + 2) * b0[2 * n + j];
          t = t + a(r, p + 3) * b0[3 * n + j];
          orow[j] = orow[j] + t;
        }
      }
      for (; p < k; ++p) {
        for (int64_t j = tail; j < j1; ++j) {
          orow[j] = orow[j] + a(r, p) * pb[p * n + j];
        }
      }
    }
  }
}

/// Rows [i, i + L::kWidth) of a product with n < 16 columns, one row per
/// lane as DotCol lays them out: every output element follows
/// MatMulWideRows' tree onto its running value, the n columns' sums
/// carried side by side while k streams once.
template <class L, class A>
void MatMulNarrowBlock(const A& a, const float* pb, float* po, int64_t i,
                       int64_t k, int64_t n) {
  using V = typename L::V;
  V acc[16];
  for (int64_t j = 0; j < n; ++j) acc[j] = L::Gather(po + i * n + j, n);
  int64_t p = 0;
  for (; p + 4 <= k; p += 4) {
    const V a0 = a.template Lanes<L>(i, p), a1 = a.template Lanes<L>(i, p + 1);
    const V a2 = a.template Lanes<L>(i, p + 2);
    const V a3 = a.template Lanes<L>(i, p + 3);
    const float* b0 = pb + p * n;
    for (int64_t j = 0; j < n; ++j) {
      V t = L::Mul(a0, L::Set1(b0[j]));
      t = L::Add(t, L::Mul(a1, L::Set1(b0[n + j])));
      t = L::Add(t, L::Mul(a2, L::Set1(b0[2 * n + j])));
      t = L::Add(t, L::Mul(a3, L::Set1(b0[3 * n + j])));
      acc[j] = L::Add(acc[j], t);
    }
  }
  for (; p < k; ++p) {
    const V av = a.template Lanes<L>(i, p);
    for (int64_t j = 0; j < n; ++j) {
      acc[j] = L::Add(acc[j], L::Mul(av, L::Set1(pb[p * n + j])));
    }
  }
  for (int64_t j = 0; j < n; ++j) ScatterLanes<L>(acc[j], po + i * n + j, n);
}

/// Rows [i0, i1) of A·B accumulated into po: across rows when a row is
/// narrower than a vector and the rows fill one, else across columns.
template <class B, class A>
void MatMulRowsOf(const A& a, const float* pb, float* po, int64_t i0,
                  int64_t i1, int64_t k, int64_t n) {
  if (n >= B::kWidth || i1 - i0 < B::kWidth) {
    MatMulWideRows<B>(a, pb, po, i0, i1, k, n);
    return;
  }
  ForLaneBlocks<B>(i0, i1, [&]<class L>(int64_t i) {
    MatMulNarrowBlock<L>(a, pb, po, i, k, n);
  });
}

template <class B>
void MatMulRows(const float* pa, const float* pb, float* po, int64_t i0,
                int64_t i1, int64_t k, int64_t n) {
  MatMulRowsOf<B>(MatA<false>{pa, k}, pb, po, i0, i1, k, n);
}

template <class B>
void MatMulTnRows(const float* pa, int64_t lda, const float* pb, float* po,
                  int64_t i0, int64_t i1, int64_t k, int64_t n) {
  MatMulRowsOf<B>(MatA<true>{pa, lda}, pb, po, i0, i1, k, n);
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

// --- Eq. 6, Eq. 10's GRU step and the EALGAP fused serve pass ---

/// Column c of a row-major (k, cols) Linear weight applied to a[0..k),
/// bias not included.
template <class L>
typename L::V DotCol(const typename L::V* a, int64_t k, const float* w,
                     int64_t cols) {
  return DotTree<L>(k, Strided(a),
                    [w, cols](int64_t p) { return L::Set1(w[p * cols]); });
}

/// Max of p[0..n) in MaxBlock<B>'s tree for kTree = B::kWidth, lane-wise.
template <class L, int kTree>
typename L::V RowMax(const typename L::V* p, int64_t n) {
  using V = typename L::V;
  V m;
  int64_t i;
  if (n >= kTree) {
    V acc[kTree];
    for (int j = 0; j < kTree; ++j) acc[j] = p[j];
    for (i = kTree; i + kTree <= n; i += kTree) {
      for (int j = 0; j < kTree; ++j) acc[j] = L::SMax(acc[j], p[i + j]);
    }
    m = acc[0];
    for (int j = 1; j < kTree; ++j) m = L::SMax(m, acc[j]);
  } else {
    m = p[0];
    i = 1;
  }
  for (; i < n; ++i) m = L::SMax(m, p[i]);
  return m;
}

/// SoftmaxRow over row[0..n), lane-wise and in place: the max in
/// MaxBlock's tree for a kTree-wide table, exp(x - max), the double-lane
/// SumBlock denominator and ScaleIp's multiply by its rounded reciprocal.
template <class L, int kTree>
[[gnu::always_inline]] inline void SoftmaxLanes(typename L::V* row,
                                                int64_t n) {
  const typename L::V mx = RowMax<L, kTree>(row, n);
  typename L::DV lanes[4] = {L::DZeroV(), L::DZeroV(), L::DZeroV(),
                             L::DZeroV()};
  for (int64_t j = 0; j < n; ++j) {
    row[j] = vec::VExp<L>(L::Sub(row[j], mx));
    lanes[j & 3] = L::DAdd(lanes[j & 3], L::DWiden(row[j]));
  }
  const typename L::V inv = L::DRecip(
      L::DAdd(L::DAdd(L::DAdd(lanes[0], lanes[1]), lanes[2]), lanes[3]));
  for (int64_t j = 0; j < n; ++j) row[j] = L::Mul(row[j], inv);
}

/// Eq. 6's projections q, k, v (L, J) of the history x[0..L) by
/// w[0..3J) = [W^Q | W^K | W^V]: BMatMuls of (L, 1) by (1, J) onto a
/// zeroed output, so each element is 0 + x*w.
template <class L>
[[gnu::always_inline]] inline void ProjectLanes(
    const typename L::V* x, const typename L::V* w, int64_t nl, int64_t nj,
    typename L::V* q, typename L::V* k, typename L::V* v) {
  const typename L::V zero = L::Set1(0.f);
  for (int64_t i = 0; i < nl; ++i) {
    for (int64_t c = 0; c < nj; ++c) {
      q[i * nj + c] = L::Add(zero, L::Mul(x[i], w[c]));
      k[i * nj + c] = L::Add(zero, L::Mul(x[i], w[nj + c]));
      v[i * nj + c] = L::Add(zero, L::Mul(x[i], w[2 * nj + c]));
    }
  }
}

/// Eq. 6 for one block of regions, one per lane: Xg = Softmax(QK^T *
/// scale) V from the history x[0..L) and w[0..3J), into xg (L, J). The
/// one copy of Eq. 6's element order, shared by training and serving:
/// ProjectLanes, the logits as the BMatMul of q by k^T times `scale`
/// (MulScalar), SoftmaxLanes with kTree the width of the table the
/// graph's softmax_row ran on, then the BMatMul of the scores by v.
/// `on_scores(i, row)` sees score row i. q, k, v and xg hold L*J lanes,
/// row L. Always inlined, so a caller's compile-time L and J fix the loops.
template <class L, int kTree, class OnScores>
[[gnu::always_inline]] inline void AttentionLanes(
    const typename L::V* x, const typename L::V* w, int64_t nl, int64_t nj,
    float scale, typename L::V* q, typename L::V* k, typename L::V* v,
    typename L::V* row, typename L::V* xg, OnScores on_scores) {
  ProjectLanes<L>(x, w, nl, nj, q, k, v);
  const typename L::V vscale = L::Set1(scale);
  for (int64_t i = 0; i < nl; ++i) {
    for (int64_t m = 0; m < nl; ++m) {
      row[m] = L::Mul(DotTree<L>(nj, Strided(q + i * nj), Strided(k + m * nj)),
                      vscale);
    }
    SoftmaxLanes<L, kTree>(row, nl);
    on_scores(i, static_cast<const typename L::V*>(row));
    for (int64_t c = 0; c < nj; ++c) {
      xg[i * nj + c] = DotTree<L>(nl, Strided(row), Strided(v + c, nj));
    }
  }
}

/// One GruCell::Forward step for a block of rows, one per lane: h[0..nh)
/// becomes the next hidden state in place. The one copy of the cell's
/// element order, shared by the fused serve pass and GruStep: each gate's
/// pre-activation is (x Wx + b) + h Wh as the Linears' MatMul and bias Add
/// give it, z and r are VSigmoid of theirs, n = VTanh((x Wn + b) + (r h)
/// Wh), and h' = ((-z) + 1) h + z n. `on_gate(g, c, v)` sees column c of
/// gate g (z, r, n = 0, 1, 2). z and rh hold nh lanes. Always inlined, so
/// a caller's compile-time widths fix the loops.
template <class L, class OnGate>
[[gnu::always_inline]] inline void GruLanes(
    const typename L::V* x, int64_t nin, typename L::V* h, int64_t nh,
    const float* const* wx, const float* const* b, const float* const* wh,
    typename L::V* z, typename L::V* rh, OnGate on_gate) {
  using V = typename L::V;
  auto gate = [&](int gi, const V* hin, int64_t c) {
    return L::Add(L::Add(DotCol<L>(x, nin, wx[gi] + c, nh), L::Set1(b[gi][c])),
                  DotCol<L>(hin, nh, wh[gi] + c, nh));
  };
  for (int64_t c = 0; c < nh; ++c) {
    z[c] = vec::VSigmoid<L>(gate(0, h, c));
    const V r = vec::VSigmoid<L>(gate(1, h, c));
    on_gate(0, c, z[c]);
    on_gate(1, c, r);
    rh[c] = L::Mul(r, h[c]);
  }
  const V one = L::Set1(1.f);
  for (int64_t c = 0; c < nh; ++c) {
    const V n = vec::VTanh<L>(gate(2, rh, c));
    on_gate(2, c, n);
    const V one_minus_z = L::Add(OpNeg::Run<L>(z[c]), one);
    h[c] = L::Add(L::Mul(one_minus_z, h[c]), L::Mul(z[c], n));
  }
}

/// Regions [r, r + L::kWidth), one per lane. Each step names the graph op
/// whose per-element order it repeats; kTree is the width of the table
/// the graph path's softmax_row ran on. kL/kHidden/kGru fix L and the
/// widths at compile time; 0 reads them from `a`.
template <class L, int kTree, int64_t kL, int64_t kHidden, int64_t kGru>
void EalgapServeBlock(const EalgapServeArgs& a, int64_t r) {
  using V = typename L::V;
  const int64_t nl = kL > 0 ? kL : a.l;
  const int64_t hid = kHidden > 0 ? kHidden : a.hidden;
  const int64_t g = kGru > 0 ? kGru : a.gru;
  const V zero = L::Set1(0.f);

  // Eq. 6 at J = 1, where the logits' scale 1/sqrt(J) is 1.
  V x[kEalgapServeMaxHistory], q[kEalgapServeMaxHistory],
      k[kEalgapServeMaxHistory], v[kEalgapServeMaxHistory],
      row[kEalgapServeMaxHistory], xg[kEalgapServeMaxHistory];
  V wqkv[3];
  for (int c = 0; c < 3; ++c) wqkv[c] = GatherLanes<L>(a.wqkv + r * 3 + c, 3);
  for (int64_t j = 0; j < nl; ++j) x[j] = GatherLanes<L>(a.x + r * nl + j, nl);
  AttentionLanes<L, kTree>(x, wqkv, nl, 1, 1.f, q, k, v, row, xg,
                           [](int64_t, const V*) {});

  // Eq. 7: pred1..3, ReLU after the first two (Linear = MatMul, bias add).
  V p1[kEalgapServeMaxHidden], p2[kEalgapServeMaxHidden];
  for (int64_t c = 0; c < hid; ++c) {
    p1[c] = OpRelu::Run<L>(L::Add(DotCol<L>(xg, nl, a.pred_w[0] + c, hid),
                                  L::Set1(a.pred_b[0][c])));
  }
  for (int64_t c = 0; c < hid; ++c) {
    p2[c] = OpRelu::Run<L>(L::Add(DotCol<L>(p1, hid, a.pred_w[1] + c, hid),
                                  L::Set1(a.pred_b[1][c])));
  }
  const V xg_next =
      L::Add(DotCol<L>(p2, hid, a.pred_w[2], 1), L::Set1(a.pred_b[2][0]));

  // Eq. 9 per window, then GruCell::Forward; the hidden state starts at 0.
  const V gamma = GatherLanes<L>(a.gamma + r, 1);
  const V eps = L::Add(OpAbs::Run<L>(GatherLanes<L>(a.epsilon + r, 1)),
                       L::Set1(1e-4f));
  const V inv_scale = L::Set1(a.inv_scale);
  V e[kEalgapServeMaxHistory];
  V h[kEalgapServeMaxGru], z[kEalgapServeMaxGru], rh[kEalgapServeMaxGru];
  for (int64_t c = 0; c < g; ++c) h[c] = zero;
  for (int64_t w = 0; w < a.m; ++w) {
    const int64_t base = (w * a.n + r) * nl;
    for (int64_t j = 0; j < nl; ++j) {
      const V xs = L::Mul(GatherLanes<L>(a.f + base + j, nl), inv_scale);
      const V mu = L::Mul(GatherLanes<L>(a.f_mu + base + j, nl), inv_scale);
      const V sg =
          L::Mul(GatherLanes<L>(a.f_sigma + base + j, nl), inv_scale);
      const V var = L::Add(L::Mul(sg, sg), eps);
      const V d = L::Div(L::Sub(xs, mu), L::Sqrt(var));
      e[j] = vec::VTanh<L>(L::Mul(d, gamma));
    }
    GruLanes<L>(e, nl, h, g, a.gate_wx, a.gate_b, a.gate_wh, z, rh,
                [](int, int64_t, V) {});
  }
  // The tanh head on the last window's state is D̂[:, t+1].
  const V d_next = vec::VTanh<L>(
      L::Add(DotCol<L>(h, g, a.head_w, 1), L::Set1(a.head_b[0])));

  // Eq. 11, ReLU(X̂g + X̂g * D̂), then InverseScale: max(y * scale, 0).
  const V y = OpRelu::Run<L>(L::Add(xg_next, L::Mul(xg_next, d_next)));
  float counts[L::kWidth];
  L::Store(counts, OpMax::Run<L>(L::Mul(y, L::Set1(a.scale)), zero));
  for (int i = 0; i < L::kWidth; ++i) {
    a.out[r + i] = std::max(0.0, static_cast<double>(counts[i]));
  }
}

/// Full blocks of B::kWidth regions, then the remainder through the next
/// narrower backend (B::Narrower: 16 -> 8 -> 1 on AVX-512, 8 -> 1 on
/// AVX2, 4 -> 1 on SSE2). Every width repeats the same per-element order,
/// and kTree stays the dispatching table's width throughout.
template <class B, int kTree, int64_t kL, int64_t kHidden, int64_t kGru>
void EalgapServeRange(const EalgapServeArgs& a, int64_t r0, int64_t r1) {
  int64_t r = r0;
  for (; r + B::kWidth <= r1; r += B::kWidth) {
    EalgapServeBlock<B, kTree, kL, kHidden, kGru>(a, r);
  }
  if constexpr (B::kWidth > 1) {
    EalgapServeRange<typename B::Narrower, kTree, kL, kHidden, kGru>(a, r, r1);
  }
}

template <class B>
void EalgapServeRows(const EalgapServeArgs& a, int64_t r0, int64_t r1) {
  if (a.l == 5 && a.hidden == 32 && a.gru == 16) {
    EalgapServeRange<B, B::kWidth, 5, 32, 16>(a, r0, r1);
  } else {
    EalgapServeRange<B, B::kWidth, 0, 0, 0>(a, r0, r1);
  }
}

// --- Eq. 6 for training: RegionAttention's forward and backward ---

/// Lane arrays of the Eq. 6 kernels, carved from their scratch in the
/// order RegionAttentionScratchFloats counts them. The forward uses x, w,
/// q, k, v, row and lj (as its output); the backward all of them, with lj
/// holding the incoming gradient, row a column of an intermediate
/// gradient, ll the scores and d the logits' gradient.
template <class L>
struct AttentionArrays {
  using V = typename L::V;
  V *x, *w, *q, *k, *v, *row, *lj, *ll, *d;
  AttentionArrays(float* scratch, int64_t nl, int64_t nj) {
    V* p = reinterpret_cast<V*>(scratch);
    auto take = [&p](int64_t count) {
      V* block = p;
      p += count;
      return block;
    };
    x = take(nl);
    w = take(3 * nj);
    q = take(nl * nj);
    k = take(nl * nj);
    v = take(nl * nj);
    row = take(nl);
    lj = take(nl * nj);
    ll = take(nl * nl);
    d = take(nl * nl);
  }
};

/// Gathers the block's histories and projections into s.x and s.w.
template <class L>
void GatherAttentionInputs(const RegionAttentionArgs& a, int64_t r,
                           int64_t nl, int64_t nj, AttentionArrays<L>& s) {
  for (int64_t i = 0; i < nl; ++i) {
    s.x[i] = GatherLanes<L>(a.x + r * nl + i, nl);
  }
  for (int64_t c = 0; c < 3 * nj; ++c) {
    s.w[c] = GatherLanes<L>(a.w + r * 3 * nj + c, 3 * nj);
  }
}

/// Forward of regions [r, r + L::kWidth): AttentionLanes, its output and
/// (when a.scores_out is set) its scores scattered back to region rows.
template <class L, int kTree>
void RegionAttentionBlock(const RegionAttentionArgs& a, int64_t r,
                          float* scratch) {
  using V = typename L::V;
  const int64_t nl = a.l, nj = a.j;
  const int64_t lj = nl * nj, ll = nl * nl;
  AttentionArrays<L> s(scratch, nl, nj);
  GatherAttentionInputs<L>(a, r, nl, nj, s);
  float* scores = a.scores_out == nullptr ? nullptr : a.scores_out + r * ll;
  AttentionLanes<L, kTree>(
      s.x, s.w, nl, nj, a.scale, s.q, s.k, s.v, s.row, s.lj,
      [scores, nl, ll](int64_t i, const V* row) {
        if (scores == nullptr) return;
        for (int64_t m = 0; m < nl; ++m) {
          ScatterLanes<L>(row[m], scores + i * nl + m, ll);
        }
      });
  for (int64_t e = 0; e < lj; ++e) {
    ScatterLanes<L>(s.lj[e], a.out + r * lj + e, lj);
  }
}

/// dw of regions [r, r + L::kWidth). Each step repeats the backward of
/// the graph op named beside it; q, k and v are recomputed by
/// ProjectLanes, bit for bit the forward's.
template <class L>
void RegionAttentionBackwardBlock(const RegionAttentionArgs& a, int64_t r,
                                  float* scratch) {
  using V = typename L::V;
  const int64_t nl = a.l, nj = a.j;
  const int64_t lj = nl * nj, ll = nl * nl;
  AttentionArrays<L> s(scratch, nl, nj);
  GatherAttentionInputs<L>(a, r, nl, nj, s);
  ProjectLanes<L>(s.x, s.w, nl, nj, s.q, s.k, s.v);
  V* const g = s.lj;
  V* const sc = s.ll;
  for (int64_t e = 0; e < ll; ++e) {
    sc[e] = GatherLanes<L>(a.scores + r * ll + e, ll);
  }
  for (int64_t e = 0; e < lj; ++e) {
    g[e] = GatherLanes<L>(a.gout + r * lj + e, lj);
  }
  const V zero = L::Set1(0.f);
  const V vscale = L::Set1(a.scale);
  float* dw = a.dw + r * 3 * nj;
  // The graph's dW^Q/K/V came through Slice, whose scatter added each
  // element onto +0.
  auto store_dw = [&](int64_t col, V value) {
    ScatterLanes<L>(L::Add(value, zero), dw + col, 3 * nj);
  };
  for (int64_t c = 0; c < nj; ++c) {
    // d v = BMatMul(scores^T, g), then dW^V = BMatMul(x^T, d v).
    for (int64_t m = 0; m < nl; ++m) {
      s.row[m] = DotTree<L>(nl, Strided(sc + m, nl), Strided(g + c, nj));
    }
    store_dw(2 * nj + c, DotTree<L>(nl, Strided(s.x), Strided(s.row)));
  }
  V* const d = s.d;
  for (int64_t i = 0; i < nl; ++i) {
    // d scores = BMatMul(g, v^T); the softmax backward s * (ds - sum(ds *
    // s)), its sum a SumAxis from 0; then MulScalar's scale.
    V* di = d + i * nl;
    const V* si = sc + i * nl;
    V dot = zero;
    for (int64_t m = 0; m < nl; ++m) {
      di[m] = DotTree<L>(nj, Strided(g + i * nj), Strided(s.v + m * nj));
      dot = L::Add(dot, L::Mul(di[m], si[m]));
    }
    for (int64_t m = 0; m < nl; ++m) {
      di[m] = L::Mul(L::Mul(si[m], L::Sub(di[m], dot)), vscale);
    }
  }
  for (int64_t c = 0; c < nj; ++c) {
    // d q = BMatMul(d logits, k), then dW^Q = BMatMul(x^T, d q).
    for (int64_t i = 0; i < nl; ++i) {
      s.row[i] = DotTree<L>(nl, Strided(d + i * nl), Strided(s.k + c, nj));
    }
    store_dw(c, DotTree<L>(nl, Strided(s.x), Strided(s.row)));
    // d k^T = BMatMul(q^T, d logits), then dW^K = BMatMul(x^T, d k).
    for (int64_t m = 0; m < nl; ++m) {
      s.row[m] = DotTree<L>(nl, Strided(s.q + c, nj), Strided(d + m, nl));
    }
    store_dw(nj + c, DotTree<L>(nl, Strided(s.x), Strided(s.row)));
  }
}

/// kTree stays the dispatching table's width as the blocks narrow.
template <class B, int kTree>
void RegionAttentionRange(const RegionAttentionArgs& a, int64_t r0,
                          int64_t r1, float* scratch) {
  ForLaneBlocks<B>(r0, r1, [&]<class L>(int64_t r) {
    RegionAttentionBlock<L, kTree>(a, r, scratch);
  });
}

template <class B>
void RegionAttentionBackward(const RegionAttentionArgs& a, int64_t r0,
                             int64_t r1, float* scratch) {
  ForLaneBlocks<B>(r0, r1, [&]<class L>(int64_t r) {
    RegionAttentionBackwardBlock<L>(a, r, scratch);
  });
}

// --- Eq. 10's GRU for training: GruStep's forward and backward ---

/// Lane arrays of the GRU kernels, carved from their scratch in the order
/// GruStepScratchFloats counts them. The forward uses x, h, z and r (as
/// r * h); the backward the rest, with g the incoming gradient, dpre the
/// gates' pre-activation gradients and drh the gradient of r * h.
template <class L>
struct GruArrays {
  using V = typename L::V;
  V *x, *h, *z, *r, *n, *g, *dpre[3], *drh;
  GruArrays(float* scratch, int64_t nin, int64_t nh) {
    V* p = reinterpret_cast<V*>(scratch);
    auto take = [&p](int64_t count) {
      V* block = p;
      p += count;
      return block;
    };
    x = take(nin);
    h = take(nh);
    z = take(nh);
    r = take(nh);
    n = take(nh);
    g = take(nh);
    for (V*& d : dpre) d = take(nh);
    drh = take(nh);
  }
};

/// Forward of rows [r, r + L::kWidth): GruLanes, its output scattered back
/// to the rows and (when a.gates_out is set) its gates stored.
template <class L>
void GruStepBlock(const GruStepArgs& a, int64_t r, float* scratch) {
  using V = typename L::V;
  const int64_t nin = a.in, nh = a.hidden;
  GruArrays<L> s(scratch, nin, nh);
  for (int64_t j = 0; j < nin; ++j) {
    s.x[j] = L::Gather(a.x + r * nin + j, nin);
  }
  for (int64_t c = 0; c < nh; ++c) {
    s.h[c] = L::Gather(a.h + r * nh + c, nh);
  }
  float* gates = a.gates_out == nullptr ? nullptr : a.gates_out + r;
  const int64_t rows = a.rows;
  GruLanes<L>(s.x, nin, s.h, nh, a.wx, a.b, a.wh, s.z, s.r,
              [gates, nh, rows](int gi, int64_t c, V v) {
                if (gates != nullptr) L::Store(gates + (gi * nh + c) * rows, v);
              });
  for (int64_t c = 0; c < nh; ++c) {
    ScatterLanes<L>(s.h[c], a.out + r * nh + c, nh);
  }
}

/// The per-row backward of rows [r, r + L::kWidth). Each step repeats the
/// backward of the graph op named beside it, and dx and dh take their
/// contributions in the order that graph's backward gave them.
template <class L>
void GruStepBackwardBlock(const GruStepArgs& a, int64_t r, float* scratch) {
  using V = typename L::V;
  const int64_t nin = a.in, nh = a.hidden;
  GruArrays<L> s(scratch, nin, nh);
  const float* gates = a.gates + r;
  for (int64_t c = 0; c < nh; ++c) {
    s.h[c] = L::Gather(a.h + r * nh + c, nh);
    s.g[c] = L::Gather(a.gout + r * nh + c, nh);
    s.z[c] = L::Load(gates + c * a.rows);
    s.r[c] = L::Load(gates + (nh + c) * a.rows);
    s.n[c] = L::Load(gates + (2 * nh + c) * a.rows);
  }
  const V one = L::Set1(1.f);
  // Sigmoid's backward multiplies by s * ((-s) + 1), Tanh's by
  // (-(t * t)) + 1.
  auto sigmoid_slope = [one](V v) {
    return L::Mul(v, L::Add(OpNeg::Run<L>(v), one));
  };
  // g . W^T: the MatMul backward of a Linear whose row-major (rows, nh)
  // weight starts at w.
  auto dot_row = [nh](const V* grad, const float* w) {
    return DotTree<L>(nh, Strided(grad),
                      [w](int64_t p) { return L::Set1(w[p]); });
  };
  for (int64_t c = 0; c < nh; ++c) {
    // h' = Add(Mul(1 - z, h), Mul(z, n)): z's gradient came from
    // Mul(z, n), then through the Neg of 1 - z.
    const V dz = L::Add(L::Mul(s.g[c], s.n[c]),
                        OpNeg::Run<L>(L::Mul(s.g[c], s.h[c])));
    s.dpre[0][c] = L::Mul(dz, sigmoid_slope(s.z[c]));
    const V tanh_slope =
        L::Add(OpNeg::Run<L>(L::Mul(s.n[c], s.n[c])), one);
    s.dpre[2][c] = L::Mul(L::Mul(s.g[c], s.z[c]), tanh_slope);
  }
  for (int64_t i = 0; i < nh; ++i) {
    // The hn Linear's input r * h, then Mul(r, h)'s backward into r.
    s.drh[i] = dot_row(s.dpre[2], a.wh[2] + i * nh);
    s.dpre[1][i] = L::Mul(L::Mul(s.drh[i], s.h[i]), sigmoid_slope(s.r[i]));
  }
  if (a.dh != nullptr) {
    // Mul(r, h), hr, Mul(1 - z, h), then hz.
    float* dh = a.dh + r * nh;
    for (int64_t i = 0; i < nh; ++i) {
      V acc = L::Mul(s.drh[i], s.r[i]);
      if (a.dh_add) acc = L::Add(L::Gather(dh + i, nh), acc);
      acc = L::Add(acc, dot_row(s.dpre[1], a.wh[1] + i * nh));
      acc = L::Add(acc, L::Mul(s.g[i], L::Add(OpNeg::Run<L>(s.z[i]), one)));
      acc = L::Add(acc, dot_row(s.dpre[0], a.wh[0] + i * nh));
      ScatterLanes<L>(acc, dh + i, nh);
    }
  }
  if (a.dx != nullptr) {
    // ir, in, then iz.
    float* dx = a.dx + r * nin;
    for (int64_t j = 0; j < nin; ++j) {
      V acc = dot_row(s.dpre[1], a.wx[1] + j * nh);
      if (a.dx_add) acc = L::Add(L::Gather(dx + j, nin), acc);
      acc = L::Add(acc, dot_row(s.dpre[2], a.wx[2] + j * nh));
      acc = L::Add(acc, dot_row(s.dpre[0], a.wx[0] + j * nh));
      ScatterLanes<L>(acc, dx + j, nin);
    }
  }
  for (int gi = 0; gi < 3; ++gi) {
    if (a.dpre[gi] == nullptr) continue;
    for (int64_t c = 0; c < nh; ++c) {
      ScatterLanes<L>(s.dpre[gi][c], a.dpre[gi] + r * nh + c, nh);
    }
  }
  if (a.rh != nullptr) {
    for (int64_t c = 0; c < nh; ++c) {
      ScatterLanes<L>(L::Mul(s.r[c], s.h[c]), a.rh + r * nh + c, nh);
    }
  }
}

template <class B>
void GruStepRows(const GruStepArgs& a, int64_t r0, int64_t r1,
                 float* scratch) {
  ForLaneBlocks<B>(r0, r1, [&]<class L>(int64_t r) {
    GruStepBlock<L>(a, r, scratch);
  });
}

template <class B>
void GruStepBackwardRows(const GruStepArgs& a, int64_t r0, int64_t r1,
                         float* scratch) {
  ForLaneBlocks<B>(r0, r1, [&]<class L>(int64_t r) {
    GruStepBackwardBlock<L>(a, r, scratch);
  });
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
  t.exp_pdf = &ExpPdf<B>;
  t.normal_pdf = &NormalPdf<B>;
  t.copy = &CopyK<B>;
  t.matmul_rows = &MatMulRows<B>;
  t.matmul_tn_rows = &MatMulTnRows<B>;
  t.ealgap_serve_rows = &EalgapServeRows<B>;
  t.region_attention = &RegionAttentionRange<B, B::kWidth>;
  t.region_attention_backward = &RegionAttentionBackward<B>;
  t.gru_step = &GruStepRows<B>;
  t.gru_step_backward = &GruStepBackwardRows<B>;
  return t;
}

}  // namespace
}  // namespace impl
}  // namespace kernels
}  // namespace ealgap

#endif  // EALGAP_TENSOR_KERNELS_IMPL_H_
