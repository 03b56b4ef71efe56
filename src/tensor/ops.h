#ifndef EALGAP_TENSOR_OPS_H_
#define EALGAP_TENSOR_OPS_H_

#include <vector>

#include "tensor/tensor.h"

namespace ealgap {
namespace ops {

/// Forward-only tensor math. All binary elementwise ops broadcast with numpy
/// semantics; the autograd layer (tensor/autograd.h) builds on these.

// --- elementwise binary (broadcasting) ---
Tensor Add(const Tensor& a, const Tensor& b);
Tensor Sub(const Tensor& a, const Tensor& b);
Tensor Mul(const Tensor& a, const Tensor& b);
Tensor Div(const Tensor& a, const Tensor& b);
Tensor Maximum(const Tensor& a, const Tensor& b);

// --- elementwise with scalar ---
Tensor AddScalar(const Tensor& a, float s);
Tensor MulScalar(const Tensor& a, float s);
Tensor PowScalar(const Tensor& a, float p);
Tensor MaximumScalar(const Tensor& a, float s);
Tensor Clamp(const Tensor& a, float lo, float hi);

// --- elementwise unary ---
Tensor Neg(const Tensor& a);
Tensor Exp(const Tensor& a);
Tensor Log(const Tensor& a);  ///< natural log; inputs must be > 0
Tensor Sqrt(const Tensor& a);
Tensor Tanh(const Tensor& a);
Tensor Sigmoid(const Tensor& a);
Tensor Relu(const Tensor& a);
Tensor Abs(const Tensor& a);
Tensor Sign(const Tensor& a);  ///< -1/0/+1

// --- in-place (allocation-free; used by the optimizer / grad accumulation) ---
/// a += b. Shapes must match exactly (no broadcasting).
void AddInPlace(Tensor& a, const Tensor& b);
/// a += alpha * b. Shapes must match exactly.
void AxpyInPlace(Tensor& a, float alpha, const Tensor& b);
/// a *= s.
void ScaleInPlace(Tensor& a, float s);
/// a = max(a, 0) elementwise. Used by the serve path to fuse ReLU into the
/// Eq. 11 extreme-modulation output without a temporary.
void ReluInPlace(Tensor& a);
/// a = min(hi, max(lo, a)) elementwise.
void ClampInPlace(Tensor& a, float lo, float hi);
/// Sum of squared elements, accumulated in double with a deterministic
/// blocked reduction (bit-identical for any thread count).
double SumSquares(const Tensor& a);

// --- linear algebra ---
/// 2-D matrix product: (m,k) x (k,n) -> (m,n).
Tensor MatMul(const Tensor& a, const Tensor& b);
/// Batched 3-D matrix product: (B,m,k) x (B,k,n) -> (B,m,n).
Tensor BMatMul(const Tensor& a, const Tensor& b);
/// a^T b for (k,m) a and (k,n) b, and its batched form (B,k,m) x (B,k,n)
/// -> (B,m,n): MatMul/BMatMul of TransposeLast2(a) by b bit for bit,
/// reading a's columns in place instead of copying them.
Tensor MatMulTransA(const Tensor& a, const Tensor& b);
Tensor BMatMulTransA(const Tensor& a, const Tensor& b);
/// Swap the last two dims (rank >= 2); copies.
Tensor TransposeLast2(const Tensor& a);
/// Eq. 6's per-region attention (RegionAttention in tensor/autograd.h):
/// x (R, L) and w (R, 3J) -> (R, L, J). When `scores` is non-null it
/// receives the (R, L, L) softmax scores RegionAttentionBackward reads.
Tensor RegionAttention(const Tensor& x, const Tensor& w, int64_t j,
                       Tensor* scores);
/// d loss / d w of RegionAttention, (R, 3J), from its inputs, its scores
/// and gout = d loss / d output.
Tensor RegionAttentionBackward(const Tensor& x, const Tensor& w,
                               const Tensor& scores, const Tensor& gout,
                               int64_t j);
/// The nine parameters of a GRU cell, gates in z, r, n order: the input
/// weights (in, H), their (H) biases and the hidden weights (H, H).
struct GruTensors {
  Tensor wx[3], b[3], wh[3];
};
/// One GRU step (GruStep in tensor/autograd.h): x (R, in) and h (R, H)
/// -> (R, H). When `gates` is non-null it receives the (3H, R) gates z,
/// r, n of every row (kernels::GruStepArgs::gates_out) that
/// GruStepBackward reads.
Tensor GruStep(const Tensor& x, const Tensor& h, const GruTensors& w,
               Tensor* gates);
/// Where GruStepBackward puts each gradient; null entries are skipped.
/// dx and dh are added onto in the replaced graph's order when they hold
/// values, else allocated; the parameter gradients are allocated.
struct GruStepGrads {
  Tensor* dx = nullptr;
  Tensor* dh = nullptr;
  Tensor* dwx[3] = {};
  Tensor* db[3] = {};
  Tensor* dwh[3] = {};
};
/// The gradients of GruStep from its inputs, its gates and gout = d loss /
/// d output.
void GruStepBackward(const Tensor& x, const Tensor& h, const GruTensors& w,
                     const Tensor& gates, const Tensor& gout,
                     const GruStepGrads& d);

// --- reductions ---
Tensor SumAll(const Tensor& a);   ///< shape {1}
Tensor MeanAll(const Tensor& a);  ///< shape {1}
Tensor SumAxis(const Tensor& a, int64_t axis, bool keepdim = true);
Tensor MeanAxis(const Tensor& a, int64_t axis, bool keepdim = true);
Tensor MaxAll(const Tensor& a);  ///< shape {1}

/// Numerically-stable softmax over the last dimension.
Tensor SoftmaxLastDim(const Tensor& a);

// --- shape manipulation (copying) ---
/// Elements [start, end) along `axis`.
Tensor Slice(const Tensor& a, int64_t axis, int64_t start, int64_t end);
/// Concatenation along `axis`; all inputs must agree on other dims.
Tensor Concat(const std::vector<Tensor>& parts, int64_t axis);
/// Stacks rank-r tensors into rank-(r+1) along a new leading `axis`=0.
Tensor Stack(const std::vector<Tensor>& parts);
/// Expands `a` to `shape` by broadcasting; copies.
Tensor BroadcastTo(const Tensor& a, const Shape& shape);

/// Sums `grad` down to `target` shape (inverse of broadcasting); used by the
/// autograd layer for the backward pass of broadcast ops.
Tensor ReduceToShape(const Tensor& grad, const Shape& target);

}  // namespace ops
}  // namespace ealgap

#endif  // EALGAP_TENSOR_OPS_H_
