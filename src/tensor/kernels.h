#ifndef EALGAP_TENSOR_KERNELS_H_
#define EALGAP_TENSOR_KERNELS_H_

/// SIMD kernel layer with runtime dispatch.
///
/// Every hot inner loop of tensor/ops.cc (and the distribution-PDF rows of
/// stats/) goes through a KernelTable of raw float-pointer kernels. Four
/// tables exist — scalar, SSE2, AVX2, AVX-512 — compiled from the SAME
/// templates (kernels_impl.h over the backends in vec.h), so every kernel
/// is bit-identical across tables; dispatch picks the widest table the CPU
/// supports at first use.
///
/// Override for testing/debugging with EALGAP_SIMD=scalar|sse2|avx2|avx512:
///  - an unknown value aborts (catches typos in CI),
///  - a known value the CPU/build cannot run falls back to the best
///    supported table with a warning (results are identical either way).

#include <cstdint>

namespace ealgap {
namespace kernels {

enum class Backend { kScalar = 0, kSse2 = 1, kAvx2 = 2, kAvx512 = 3 };

/// "scalar", "sse2", "avx2", "avx512".
const char* BackendName(Backend b);

/// Largest L, FC width and GRU width the fused EALGAP serve kernel holds
/// on its stack; larger models keep the graph path.
inline constexpr int64_t kEalgapServeMaxHistory = 32;
inline constexpr int64_t kEalgapServeMaxHidden = 64;
inline constexpr int64_t kEalgapServeMaxGru = 64;

/// Inputs of EALGAP's fused per-region serve pass: everything after the
/// citywide decoder at J = 1 (Eqs. 6, 7, 9, the GRU of Eq. 10 and Eq. 11,
/// then the inverse scaling to counts). Weights are row-major (in, out)
/// Linear weights; per-region tensors are indexed by region.
struct EalgapServeArgs {
  int64_t n = 0;       ///< regions N (stride between windows of f)
  int64_t l = 0;       ///< history length L
  int64_t m = 0;       ///< day-offset windows M
  int64_t hidden = 0;  ///< predictor width
  int64_t gru = 0;     ///< GRU width
  const float* x = nullptr;  ///< (N, L) model-space history (×1/scale)
  /// (M, N, L) raw windows and their matched statistics; scaled by
  /// inv_scale inside the pass.
  const float* f = nullptr;
  const float* f_mu = nullptr;
  const float* f_sigma = nullptr;
  float inv_scale = 1.f;
  float scale = 1.f;  ///< model space -> counts
  const float* wqkv = nullptr;  ///< (N, 3) decoded W^Q, W^K, W^V
  const float* pred_w[3] = {};  ///< (L, hidden), (hidden, hidden), (hidden, 1)
  const float* pred_b[3] = {};
  const float* gamma = nullptr;    ///< (N)
  const float* epsilon = nullptr;  ///< (N)
  /// GRU gates in z, r, n order: input weights (L, gru) with bias (gru),
  /// hidden weights (gru, gru).
  const float* gate_wx[3] = {};
  const float* gate_b[3] = {};
  const float* gate_wh[3] = {};
  const float* head_w = nullptr;  ///< (gru, 1)
  const float* head_b = nullptr;  ///< (1)
  double* out = nullptr;  ///< (N) predicted counts, clamped at 0
};

/// Operands of Eq. 6's per-region attention (RegionAttention in
/// tensor/autograd.h): region r's history is row r of x, its
/// [W^Q | W^K | W^V] projections row r of w, and its output the (L, J)
/// block r of out. Rows are contiguous and row-major.
struct RegionAttentionArgs {
  int64_t l = 0;        ///< history length L
  int64_t j = 0;        ///< attention width J
  float scale = 1.f;    ///< the logits' scale, 1/sqrt(J)
  const float* x = nullptr;  ///< (R, L)
  const float* w = nullptr;  ///< (R, 3J)
  float* out = nullptr;  ///< forward: (R, L, J)
  /// forward: the (R, L, L) softmax scores, written when non-null.
  float* scores_out = nullptr;
  const float* scores = nullptr;  ///< backward: the forward's scores
  const float* gout = nullptr;    ///< backward: (R, L, J) d loss / d out
  float* dw = nullptr;            ///< backward: (R, 3J) d loss / d w
};

/// Floats of 64-byte-aligned scratch one region_attention or
/// region_attention_backward call needs, in any table.
inline int64_t RegionAttentionScratchFloats(int64_t l, int64_t j) {
  constexpr int64_t kMaxLanes = 16;
  return kMaxLanes * (2 * l * l + 4 * l * j + 2 * l + 3 * j);
}

/// Operands of one GRU step (GruCell::Forward, GruStep in
/// tensor/autograd.h) over R rows: row r of x and h is one sample's input
/// and hidden state. Gates are in z, r, n order; weights are row-major
/// (in, H) input and (H, H) hidden Linear weights with an (H) bias on the
/// input side.
struct GruStepArgs {
  int64_t rows = 0;    ///< R
  int64_t in = 0;      ///< input width
  int64_t hidden = 0;  ///< hidden width H
  const float* x = nullptr;  ///< (R, in)
  const float* h = nullptr;  ///< (R, H)
  const float* wx[3] = {};
  const float* b[3] = {};
  const float* wh[3] = {};
  float* out = nullptr;  ///< forward: (R, H) the next hidden state
  /// forward: the gates z, r, n of every row, written when non-null. They
  /// are stored (3H, R), column c of gate g at row (g H + c), so the rows
  /// of a block sit side by side as its lanes do.
  float* gates_out = nullptr;
  const float* gates = nullptr;  ///< backward: the forward's gates
  const float* gout = nullptr;   ///< backward: (R, H) d loss / d out
  /// backward: the (R, H) gradients of the z, r and n pre-activations and
  /// the (R, H) product r * h, written when non-null.
  float* dpre[3] = {};
  float* rh = nullptr;
  /// backward: (R, in) d loss / d x and (R, H) d loss / d h, skipped when
  /// null. With dx_add / dh_add set the contributions are added onto the
  /// values already there, else the first one is stored.
  float* dx = nullptr;
  float* dh = nullptr;
  bool dx_add = false;
  bool dh_add = false;
};

/// Floats of 64-byte-aligned scratch one gru_step or gru_step_backward
/// call needs, in any table.
inline int64_t GruStepScratchFloats(int64_t in, int64_t hidden) {
  constexpr int64_t kMaxLanes = 16;
  return kMaxLanes * (in + 9 * hidden);
}

/// All kernels take raw pointers (no alignment requirement) and an element
/// count; `n == 0` is a no-op. Reduction kernels define a fixed
/// accumulation order (4 interleaved double lanes, combined in lane order)
/// that callers rely on for thread-count determinism.
struct KernelTable {
  Backend backend;

  // elementwise binary: o[i] = a[i] op b[i]
  void (*add_vv)(const float* a, const float* b, float* o, int64_t n);
  void (*sub_vv)(const float* a, const float* b, float* o, int64_t n);
  void (*mul_vv)(const float* a, const float* b, float* o, int64_t n);
  void (*div_vv)(const float* a, const float* b, float* o, int64_t n);
  void (*max_vv)(const float* a, const float* b, float* o, int64_t n);

  // elementwise binary, one side a broadcast scalar
  void (*add_vs)(const float* a, float s, float* o, int64_t n);
  void (*sub_vs)(const float* a, float s, float* o, int64_t n);
  void (*sub_sv)(float s, const float* b, float* o, int64_t n);
  void (*mul_vs)(const float* a, float s, float* o, int64_t n);
  void (*div_vs)(const float* a, float s, float* o, int64_t n);
  void (*div_sv)(float s, const float* b, float* o, int64_t n);
  void (*max_vs)(const float* a, float s, float* o, int64_t n);
  void (*max_sv)(float s, const float* b, float* o, int64_t n);

  // elementwise unary
  void (*neg)(const float* a, float* o, int64_t n);
  void (*abs)(const float* a, float* o, int64_t n);
  void (*sign)(const float* a, float* o, int64_t n);
  void (*sqrt)(const float* a, float* o, int64_t n);
  void (*relu)(const float* a, float* o, int64_t n);  // x > 0 ? x : 0
  void (*clamp)(const float* a, float lo, float hi, float* o, int64_t n);
  void (*exp)(const float* a, float* o, int64_t n);
  void (*tanh)(const float* a, float* o, int64_t n);
  void (*sigmoid)(const float* a, float* o, int64_t n);

  // in-place
  void (*add_ip)(float* a, const float* b, int64_t n);          // a += b
  void (*axpy_ip)(float* a, float alpha, const float* b, int64_t n);
  void (*scale_ip)(float* a, float s, int64_t n);
  void (*relu_ip)(float* a, int64_t n);
  void (*clamp_ip)(float* a, float lo, float hi, int64_t n);

  // deterministic block reductions (fixed 4-lane interleave)
  double (*sum_block)(const float* p, int64_t n);
  double (*sumsq_block)(const float* p, int64_t n);
  float (*max_block)(const float* p, int64_t n);  // n >= 1; NaN-free input

  /// Contiguous copy (memcpy semantics, regions must not overlap). Routes
  /// Slice/CopyFrom through the kernel layer; preserves no alignment
  /// guarantee beyond what the destination already has.
  void (*copy)(const float* src, float* dst, int64_t n);

  // fused rows
  void (*softmax_row)(const float* src, float* dst, int64_t n);
  /// out[i] = x[i] < 0 ? 0 : lambda * exp(-lambda * x[i])
  void (*exp_pdf_row)(const float* x, float lambda, float* o, int64_t n);
  /// out[i] = inv_norm * exp(-0.5 * ((x[i]-mean) * inv_stddev)^2)
  void (*normal_pdf_row)(const float* x, float mean, float inv_stddev,
                         float inv_norm, float* o, int64_t n);
  /// The two rows above with one parameter per element (lambda[i], ...),
  /// so a whole (N, L) matrix of per-row fits is one call; element i is
  /// bit-identical to the row kernel given that element's parameters. `o`
  /// may alias a parameter array.
  void (*exp_pdf)(const float* x, const float* lambda, float* o, int64_t n);
  void (*normal_pdf)(const float* x, const float* mean,
                     const float* inv_stddev, const float* inv_norm, float* o,
                     int64_t n);

  /// Rows [i0, i1) of the (m,k)x(k,n) product accumulated into po (callers
  /// zero-initialize). Vectorized across output columns, or across rows
  /// when n is below the table's width and the rows fill a vector; each
  /// output element keeps the exact scalar accumulation order.
  void (*matmul_rows)(const float* pa, const float* pb, float* po, int64_t i0,
                      int64_t i1, int64_t k, int64_t n);
  /// matmul_rows of A^T by (k,n) B, where A is (k, m) with row stride lda:
  /// output row i reads A's column i in place, with no transpose copy.
  void (*matmul_tn_rows)(const float* pa, int64_t lda, const float* pb,
                         float* po, int64_t i0, int64_t i1, int64_t k,
                         int64_t n);

  /// EALGAP's fused serve pass over regions [r0, r1), one region per lane.
  /// Every output equals the graph path's (GlobalImpactModule and
  /// ExtremeDegreeModule forwards, Eq. 11, InverseScale) bit for bit: each
  /// element repeats the op order of the kernels above, and the softmax
  /// max repeats this table's own max_block tree.
  void (*ealgap_serve_rows)(const EalgapServeArgs& a, int64_t r0, int64_t r1);

  /// Eq. 6 over regions [r0, r1), one region per lane, and its gradient
  /// with respect to w. The forward equals the graph of BMatMuls,
  /// MulScalar and softmax rows it replaces bit for bit, and the backward
  /// that graph's backward (whose Slice scatters added each dw element
  /// onto +0). `scratch` holds RegionAttentionScratchFloats(l, j) floats,
  /// 64-byte aligned.
  void (*region_attention)(const RegionAttentionArgs& a, int64_t r0,
                           int64_t r1, float* scratch);
  void (*region_attention_backward)(const RegionAttentionArgs& a, int64_t r0,
                                    int64_t r1, float* scratch);

  /// One GRU step over rows [r0, r1), one row per lane, and the per-row
  /// part of its backward: the gate gradients, r * h, dx and dh (the
  /// weight gradients sum these over rows; see ops::GruStepBackward). The
  /// forward equals the Linear/Sigmoid/Tanh graph it replaces bit for bit
  /// and the backward that graph's backward, dx and dh receiving their
  /// contributions in the order it gave them. `scratch` holds
  /// GruStepScratchFloats(in, hidden) floats, 64-byte aligned.
  void (*gru_step)(const GruStepArgs& a, int64_t r0, int64_t r1,
                   float* scratch);
  void (*gru_step_backward)(const GruStepArgs& a, int64_t r0, int64_t r1,
                            float* scratch);
};

/// The active table (resolved once: CPU detection + EALGAP_SIMD override).
const KernelTable& Active();

/// Backend of the active table.
Backend ActiveBackend();

/// True when the backend was compiled in AND the CPU can execute it.
bool BackendSupported(Backend b);

/// Table for an explicit backend, or nullptr when unsupported. Used by
/// vec_test to compare backends bit-for-bit in one process.
const KernelTable* Table(Backend b);

/// Replaces the active table (must be supported). Tests only.
void SetBackendForTesting(Backend b);

}  // namespace kernels
}  // namespace ealgap

#endif  // EALGAP_TENSOR_KERNELS_H_
