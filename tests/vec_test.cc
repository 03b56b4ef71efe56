// Bit-exactness tests for the SIMD kernel layer (src/tensor/vec.h,
// src/tensor/kernels.h).
//
// The contract under test: every kernel produces BITWISE-identical output in
// the scalar, SSE2, AVX2 and AVX-512 tables, for every length (vector body +
// scalar tail), every alignment, and with NaN/Inf inputs. The in-house
// vexp/vtanh/vsigmoid additionally stay within a small ULP bound of
// correctly-rounded libm on dense grids.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace ealgap {
namespace {

using kernels::Backend;
using kernels::KernelTable;

uint32_t Bits(float x) {
  uint32_t u;
  std::memcpy(&u, &x, sizeof(u));
  return u;
}

// Lengths that exercise empty input, pure tail, full vectors of every lane
// width (1/4/8/16) and vector-plus-tail combinations.
constexpr int64_t kMaxLen = 35;  // 2 * 16 + 3
// Start offsets that break 16/32-byte alignment.
constexpr int64_t kMaxOff = 3;

struct NamedTable {
  std::string name;
  const KernelTable* t;
};

// All supported non-scalar tables; parity is always measured against scalar.
std::vector<NamedTable> AltTables() {
  std::vector<NamedTable> out;
  for (Backend b : {Backend::kSse2, Backend::kAvx2, Backend::kAvx512}) {
    if (const KernelTable* t = kernels::Table(b)) {
      out.push_back({kernels::BackendName(b), t});
    }
  }
  return out;
}

const KernelTable& Scalar() {
  const KernelTable* t = kernels::Table(Backend::kScalar);
  EXPECT_NE(t, nullptr);
  return *t;
}

// Deterministic value stream mixing magnitudes and signs; index-stable so
// the same (len, off) always sees the same data.
float TestValue(int64_t i) {
  // xorshift on the index; map to a wide range of exponents.
  uint32_t x = static_cast<uint32_t>(i * 2654435761u + 12345u);
  x ^= x << 13;
  x ^= x >> 17;
  x ^= x << 5;
  const float u = static_cast<float>(x & 0xffffff) / 16777216.f;  // [0,1)
  switch (i % 5) {
    case 0:
      return (u - 0.5f) * 4.f;  // small, signed
    case 1:
      return (u - 0.5f) * 2e4f;  // large, signed
    case 2:
      return (u - 0.5f) * 2e-4f;  // tiny, signed
    case 3:
      return u + 0.5f;  // strictly positive (safe for sqrt/div)
    default:
      return i % 10 == 4 ? 0.f : (u - 0.5f) * 16.f;  // exact zeros mixed in
  }
}

std::vector<float> MakeInput(int64_t n, int64_t off, int64_t salt) {
  std::vector<float> v(off + n);
  for (int64_t i = 0; i < off + n; ++i) v[i] = TestValue(i + 97 * salt);
  return v;
}

void ExpectBitEqual(const std::vector<float>& want,
                    const std::vector<float>& got, int64_t off, int64_t n,
                    const std::string& what) {
  for (int64_t i = 0; i < n; ++i) {
    ASSERT_EQ(Bits(want[off + i]), Bits(got[off + i]))
        << what << " diverges at element " << i << " of " << n << " (offset "
        << off << "): scalar=" << want[off + i] << " simd=" << got[off + i];
  }
}

// Runs `call(t, a, b, o, n)` for the scalar table and one alt table over all
// (len, off) combinations and compares output buffers bitwise.
template <typename CallFn>
void CheckParity(const std::string& kernel, CallFn call) {
  for (const NamedTable& alt : AltTables()) {
    for (int64_t n = 0; n <= kMaxLen; ++n) {
      for (int64_t off = 0; off <= kMaxOff; ++off) {
        std::vector<float> a = MakeInput(n, off, 1);
        std::vector<float> b = MakeInput(n, off, 2);
        std::vector<float> o_ref(off + n, -777.f), o_alt(off + n, -777.f);
        // In-place kernels mutate the first buffer: give each run a copy.
        std::vector<float> a_ref = a, a_alt = a;
        call(Scalar(), a_ref.data() + off, b.data() + off, o_ref.data() + off,
             n);
        call(*alt.t, a_alt.data() + off, b.data() + off, o_alt.data() + off,
             n);
        ExpectBitEqual(o_ref, o_alt, off, n,
                       kernel + " [" + alt.name + "] out");
        ExpectBitEqual(a_ref, a_alt, off, n,
                       kernel + " [" + alt.name + "] in-place");
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

TEST(VecParity, ElementwiseBinary) {
  CheckParity("add_vv", [](const KernelTable& t, float* a, const float* b,
                           float* o, int64_t n) { t.add_vv(a, b, o, n); });
  CheckParity("sub_vv", [](const KernelTable& t, float* a, const float* b,
                           float* o, int64_t n) { t.sub_vv(a, b, o, n); });
  CheckParity("mul_vv", [](const KernelTable& t, float* a, const float* b,
                           float* o, int64_t n) { t.mul_vv(a, b, o, n); });
  CheckParity("div_vv", [](const KernelTable& t, float* a, const float* b,
                           float* o, int64_t n) { t.div_vv(a, b, o, n); });
  CheckParity("max_vv", [](const KernelTable& t, float* a, const float* b,
                           float* o, int64_t n) { t.max_vv(a, b, o, n); });
}

TEST(VecParity, ElementwiseScalarOperand) {
  const float s = 1.7f;
  CheckParity("add_vs", [s](const KernelTable& t, float* a, const float*,
                            float* o, int64_t n) { t.add_vs(a, s, o, n); });
  CheckParity("sub_vs", [s](const KernelTable& t, float* a, const float*,
                            float* o, int64_t n) { t.sub_vs(a, s, o, n); });
  CheckParity("sub_sv", [s](const KernelTable& t, float* a, const float*,
                            float* o, int64_t n) { t.sub_sv(s, a, o, n); });
  CheckParity("mul_vs", [s](const KernelTable& t, float* a, const float*,
                            float* o, int64_t n) { t.mul_vs(a, s, o, n); });
  CheckParity("div_vs", [s](const KernelTable& t, float* a, const float*,
                            float* o, int64_t n) { t.div_vs(a, s, o, n); });
  CheckParity("div_sv", [s](const KernelTable& t, float* a, const float*,
                            float* o, int64_t n) { t.div_sv(s, a, o, n); });
  CheckParity("max_vs", [s](const KernelTable& t, float* a, const float*,
                            float* o, int64_t n) { t.max_vs(a, s, o, n); });
  CheckParity("max_sv", [s](const KernelTable& t, float* a, const float*,
                            float* o, int64_t n) { t.max_sv(s, a, o, n); });
}

TEST(VecParity, ElementwiseUnary) {
  CheckParity("neg", [](const KernelTable& t, float* a, const float*, float* o,
                        int64_t n) { t.neg(a, o, n); });
  CheckParity("abs", [](const KernelTable& t, float* a, const float*, float* o,
                        int64_t n) { t.abs(a, o, n); });
  CheckParity("sign", [](const KernelTable& t, float* a, const float*,
                         float* o, int64_t n) { t.sign(a, o, n); });
  CheckParity("sqrt", [](const KernelTable& t, float* a, const float*,
                         float* o, int64_t n) { t.sqrt(a, o, n); });
  CheckParity("relu", [](const KernelTable& t, float* a, const float*,
                         float* o, int64_t n) { t.relu(a, o, n); });
  CheckParity("clamp", [](const KernelTable& t, float* a, const float*,
                          float* o,
                          int64_t n) { t.clamp(a, -1.25f, 2.5f, o, n); });
  CheckParity("exp", [](const KernelTable& t, float* a, const float*, float* o,
                        int64_t n) { t.exp(a, o, n); });
  CheckParity("tanh", [](const KernelTable& t, float* a, const float*,
                         float* o, int64_t n) { t.tanh(a, o, n); });
  CheckParity("sigmoid", [](const KernelTable& t, float* a, const float*,
                            float* o, int64_t n) { t.sigmoid(a, o, n); });
}

TEST(VecParity, InPlace) {
  CheckParity("add_ip", [](const KernelTable& t, float* a, const float* b,
                           float*, int64_t n) { t.add_ip(a, b, n); });
  CheckParity("axpy_ip", [](const KernelTable& t, float* a, const float* b,
                            float*, int64_t n) { t.axpy_ip(a, -0.3f, b, n); });
  CheckParity("scale_ip", [](const KernelTable& t, float* a, const float*,
                             float*, int64_t n) { t.scale_ip(a, 0.77f, n); });
  CheckParity("relu_ip", [](const KernelTable& t, float* a, const float*,
                            float*, int64_t n) { t.relu_ip(a, n); });
  CheckParity("clamp_ip", [](const KernelTable& t, float* a, const float*,
                             float*,
                             int64_t n) { t.clamp_ip(a, -0.5f, 1.5f, n); });
}

TEST(VecParity, FusedRows) {
  CheckParity("softmax_row",
              [](const KernelTable& t, float* a, const float*, float* o,
                 int64_t n) {
                if (n > 0) t.softmax_row(a, o, n);
              });
  CheckParity("exp_pdf_row",
              [](const KernelTable& t, float* a, const float*, float* o,
                 int64_t n) { t.exp_pdf_row(a, 0.8f, o, n); });
  CheckParity("normal_pdf_row", [](const KernelTable& t, float* a,
                                   const float*, float* o, int64_t n) {
    t.normal_pdf_row(a, 0.4f, 1.6f, 0.25f, o, n);
  });
}

// Per-element rates/parameters for the PDF kernels: a huge rate on every
// third element (exp(-lambda * x) underflows unless x is 0), small and
// moderate ones elsewhere. x from MakeInput mixes signs and exact zeros.
std::vector<float> PdfParams(const float* b, int64_t n, float lo) {
  std::vector<float> p(n);
  for (int64_t i = 0; i < n; ++i) {
    p[i] = i % 3 == 0 ? 3e4f : lo + std::fabs(b[i]) * 1e-3f;
  }
  return p;
}

TEST(VecParity, PerElementPdf) {
  CheckParity("exp_pdf", [](const KernelTable& t, float* a, const float* b,
                            float* o, int64_t n) {
    const std::vector<float> lam = PdfParams(b, n, 0.05f);
    t.exp_pdf(a, lam.data(), o, n);
  });
  CheckParity("normal_pdf", [](const KernelTable& t, float* a, const float* b,
                               float* o, int64_t n) {
    const std::vector<float> mean = PdfParams(b, n, -1.f);
    const std::vector<float> inv = PdfParams(b, n, 0.1f);
    const std::vector<float> norm = PdfParams(b, n, 0.2f);
    t.normal_pdf(a, mean.data(), inv.data(), norm.data(), o, n);
  });
  // Within each table, element i equals the row kernel given element i's
  // parameters (a constant parameter reproduces the whole row), also when
  // the output aliases the parameter array.
  std::vector<NamedTable> tables = AltTables();
  tables.push_back({"scalar", &Scalar()});
  for (const NamedTable& nt : tables) {
    const KernelTable& t = *nt.t;
    for (int64_t n = 0; n <= kMaxLen; ++n) {
      for (int64_t off = 0; off <= kMaxOff; ++off) {
        std::vector<float> x = MakeInput(n, off, 7);
        if (n > 0) x[off] = -0.f;  // not < 0: its density is lambda
        for (float lam : {0.8f, 3e4f}) {
          std::vector<float> row(off + n, -777.f);
          std::vector<float> lams(off + n, lam);
          t.exp_pdf_row(x.data() + off, lam, row.data() + off, n);
          t.exp_pdf(x.data() + off, lams.data() + off, lams.data() + off, n);
          ExpectBitEqual(row, lams, off, n, "exp_pdf vs row [" + nt.name + "]");
        }
        std::vector<float> row(off + n, -777.f);
        std::vector<float> mean(off + n, 0.4f), inv(off + n, 1.6f),
            norm(off + n, 0.25f);
        t.normal_pdf_row(x.data() + off, 0.4f, 1.6f, 0.25f, row.data() + off,
                         n);
        t.normal_pdf(x.data() + off, mean.data() + off, inv.data() + off,
                     norm.data() + off, norm.data() + off, n);
        ExpectBitEqual(row, norm, off, n,
                       "normal_pdf vs row [" + nt.name + "]");
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

TEST(VecParity, Reductions) {
  for (const NamedTable& alt : AltTables()) {
    // Long enough to cover many full 4-float groups plus every tail shape.
    for (int64_t n = 1; n <= 131; ++n) {
      for (int64_t off = 0; off <= kMaxOff; ++off) {
        std::vector<float> a = MakeInput(n, off, 3);
        const double s_ref = Scalar().sum_block(a.data() + off, n);
        const double s_alt = alt.t->sum_block(a.data() + off, n);
        ASSERT_EQ(s_ref, s_alt) << "sum_block " << alt.name << " n=" << n;
        const double q_ref = Scalar().sumsq_block(a.data() + off, n);
        const double q_alt = alt.t->sumsq_block(a.data() + off, n);
        ASSERT_EQ(q_ref, q_alt) << "sumsq_block " << alt.name << " n=" << n;
        const float m_ref = Scalar().max_block(a.data() + off, n);
        const float m_alt = alt.t->max_block(a.data() + off, n);
        ASSERT_EQ(Bits(m_ref), Bits(m_alt))
            << "max_block " << alt.name << " n=" << n;
      }
    }
  }
}

TEST(VecParity, MatMulRows) {
  for (const NamedTable& alt : AltTables()) {
    for (int64_t m : {1, 3}) {
      for (int64_t k : {1, 2, 5, 8}) {
        for (int64_t n : {1, 2, 7, 8, 17, 33}) {
          std::vector<float> a = MakeInput(m * k, 0, 4);
          std::vector<float> b = MakeInput(k * n, 0, 5);
          std::vector<float> o_ref(m * n, 0.f), o_alt(m * n, 0.f);
          Scalar().matmul_rows(a.data(), b.data(), o_ref.data(), 0, m, k, n);
          alt.t->matmul_rows(a.data(), b.data(), o_alt.data(), 0, m, k, n);
          for (int64_t i = 0; i < m * n; ++i) {
            ASSERT_EQ(Bits(o_ref[i]), Bits(o_alt[i]))
                << "matmul_rows " << alt.name << " m=" << m << " k=" << k
                << " n=" << n << " elem " << i;
          }
        }
      }
    }
  }
}

// Outputs narrower than a table's vectors go across rows, and matmul_tn_rows
// reads A^T in place: both must give the scalar table's bits (and
// matmul_tn_rows those of matmul_rows on a transposed copy) for every
// width up to past the table's, every row count and row split, onto a
// running output that is not zero.
TEST(VecParity, MatMulNarrow) {
  for (const NamedTable& alt : AltTables()) {
    const Backend b = alt.t->backend;
    const int64_t width = b == Backend::kSse2 ? 4 : b == Backend::kAvx2 ? 8 : 16;
    for (int64_t n = 1; n <= width + 1; ++n) {
      for (int64_t m = 1; m <= 40; ++m) {
        for (int64_t k : {1, 6}) {
          const std::vector<float> a = MakeInput(m * k, 0, 6 + n);
          const std::vector<float> b = MakeInput(k * n, 0, 7 + m);
          const std::vector<float> start = MakeInput(m * n, 0, 8);
          std::vector<float> at(k * m);
          for (int64_t i = 0; i < m; ++i) {
            for (int64_t p = 0; p < k; ++p) at[p * m + i] = a[i * k + p];
          }
          const std::string what = "[" + alt.name + "] m=" + std::to_string(m) +
                                   " k=" + std::to_string(k) +
                                   " n=" + std::to_string(n);
          std::vector<float> ref = start;
          Scalar().matmul_rows(a.data(), b.data(), ref.data(), 0, m, k, n);
          const int64_t mid = m / 3;
          std::vector<float> got = start, got_tn = start, ref_tn = start;
          alt.t->matmul_rows(a.data(), b.data(), got.data(), 0, mid, k, n);
          alt.t->matmul_rows(a.data(), b.data(), got.data(), mid, m, k, n);
          alt.t->matmul_tn_rows(at.data(), m, b.data(), got_tn.data(), 0, mid,
                                k, n);
          alt.t->matmul_tn_rows(at.data(), m, b.data(), got_tn.data(), mid, m,
                                k, n);
          Scalar().matmul_tn_rows(at.data(), m, b.data(), ref_tn.data(), 0, m,
                                  k, n);
          ExpectBitEqual(ref, got, 0, m * n, "matmul_rows " + what);
          ExpectBitEqual(ref, got_tn, 0, m * n, "matmul_tn_rows " + what);
          ExpectBitEqual(ref, ref_tn, 0, m * n, "scalar matmul_tn_rows " + what);
        }
      }
    }
  }
}

// NaN and Inf must flow through elementwise kernels identically in every
// backend (max_block is excluded by contract: NaN-free input only).
TEST(VecParity, NanInfPropagation) {
  const float nan = std::nanf("");
  const float inf = std::numeric_limits<float>::infinity();
  const std::vector<float> specials = {nan,  inf,   -inf, 0.f, -0.f,
                                       1.f,  -2.5f, nan,  inf, -inf,
                                       3e38f, -3e38f, 1e-40f, nan, 7.f};
  const int64_t n = static_cast<int64_t>(specials.size());
  for (const NamedTable& alt : AltTables()) {
    std::vector<float> b = MakeInput(n, 0, 6);
    auto check = [&](const char* what, auto&& run) {
      std::vector<float> o_ref(n, 0.f), o_alt(n, 0.f);
      std::vector<float> a_ref = specials, a_alt = specials;
      run(Scalar(), a_ref.data(), b.data(), o_ref.data());
      run(*alt.t, a_alt.data(), b.data(), o_alt.data());
      for (int64_t i = 0; i < n; ++i) {
        ASSERT_EQ(Bits(o_ref[i]), Bits(o_alt[i]))
            << what << " [" << alt.name << "] special elem " << i;
        ASSERT_EQ(Bits(a_ref[i]), Bits(a_alt[i]))
            << what << " [" << alt.name << "] special in-place elem " << i;
      }
    };
    check("add_vv", [n](const KernelTable& t, float* a, const float* b,
                        float* o) { t.add_vv(a, b, o, n); });
    check("mul_vv", [n](const KernelTable& t, float* a, const float* b,
                        float* o) { t.mul_vv(a, b, o, n); });
    check("div_vv", [n](const KernelTable& t, float* a, const float* b,
                        float* o) { t.div_vv(a, b, o, n); });
    check("max_vv", [n](const KernelTable& t, float* a, const float* b,
                        float* o) { t.max_vv(a, b, o, n); });
    check("max_vs", [n](const KernelTable& t, float* a, const float*,
                        float* o) { t.max_vs(a, 0.5f, o, n); });
    check("max_sv", [n](const KernelTable& t, float* a, const float*,
                        float* o) { t.max_sv(0.5f, a, o, n); });
    check("relu", [n](const KernelTable& t, float* a, const float*, float* o) {
      t.relu(a, o, n);
    });
    check("clamp", [n](const KernelTable& t, float* a, const float*,
                       float* o) { t.clamp(a, -1.f, 1.f, o, n); });
    check("sign", [n](const KernelTable& t, float* a, const float*, float* o) {
      t.sign(a, o, n);
    });
    check("exp", [n](const KernelTable& t, float* a, const float*, float* o) {
      t.exp(a, o, n);
    });
    check("tanh", [n](const KernelTable& t, float* a, const float*, float* o) {
      t.tanh(a, o, n);
    });
    check("sigmoid", [n](const KernelTable& t, float* a, const float*,
                         float* o) { t.sigmoid(a, o, n); });
    check("relu_ip", [n](const KernelTable& t, float* a, const float*,
                         float*) { t.relu_ip(a, n); });
    check("clamp_ip", [n](const KernelTable& t, float* a, const float*,
                          float*) { t.clamp_ip(a, -1.f, 1.f, n); });
  }
}


// --- fused EALGAP serve pass -------------------------------------------------

// One ealgap_serve_rows problem: weights shared by every region, per-region
// rows drawn at random, with special values planted by region index.
struct ServeInputs {
  int64_t n = 0, l = 0, m = 0, hidden = 0, gru = 0;
  std::vector<float> x, f, f_mu, f_sigma, wqkv, gamma, epsilon;
  std::vector<float> pred_w[3], pred_b[3];
  std::vector<float> gate_wx[3], gate_b[3], gate_wh[3];
  std::vector<float> head_w, head_b;

  kernels::EalgapServeArgs Args(double* out) const {
    kernels::EalgapServeArgs a;
    a.n = n;
    a.l = l;
    a.m = m;
    a.hidden = hidden;
    a.gru = gru;
    a.x = x.data();
    a.f = f.data();
    a.f_mu = f_mu.data();
    a.f_sigma = f_sigma.data();
    a.inv_scale = 0.25f;
    a.scale = 4.f;
    a.wqkv = wqkv.data();
    for (int i = 0; i < 3; ++i) {
      a.pred_w[i] = pred_w[i].data();
      a.pred_b[i] = pred_b[i].data();
      a.gate_wx[i] = gate_wx[i].data();
      a.gate_b[i] = gate_b[i].data();
      a.gate_wh[i] = gate_wh[i].data();
    }
    a.gamma = gamma.data();
    a.epsilon = epsilon.data();
    a.head_w = head_w.data();
    a.head_b = head_b.data();
    a.out = out;
    return a;
  }
};

// Region r % 6 selects the planted case:
//  0: x = 0 against negative q/k/v weights (the sign of 0 + q*k);
//  1: logits of +-88, at the edge of exp's range;
//  2: sigma = 0 with x != mu, so only the epsilon floor keeps Eq. 9 finite;
//  3: sigma = 0 and x == mu;
//  4, 5: random rows.
// `gate_scale` scales the GRU weights and biases: large values saturate
// the sigmoid/tanh gates.
ServeInputs MakeServeInputs(int64_t n, int64_t l, int64_t hidden, int64_t gru,
                            float gate_scale) {
  Rng rng(static_cast<uint64_t>(n * 1000 + l * 10 + hidden));
  auto fill = [&rng](int64_t count, double lo, double hi) {
    std::vector<float> v(count);
    for (float& e : v) e = static_cast<float>(rng.Uniform(lo, hi));
    return v;
  };
  ServeInputs in;
  in.n = n;
  in.l = l;
  in.m = 3;
  in.hidden = hidden;
  in.gru = gru;
  in.x = fill(n * l, 0.0, 6.0);
  in.f = fill(in.m * n * l, 0.0, 40.0);
  in.f_mu = fill(in.m * n * l, 0.0, 40.0);
  in.f_sigma = fill(in.m * n * l, 0.0, 12.0);
  in.wqkv = fill(n * 3, -2.0, 2.0);
  in.gamma = fill(n, -3.0, 3.0);
  in.epsilon = fill(n, -0.05, 0.05);
  const int64_t pred_in[3] = {l, hidden, hidden};
  const int64_t pred_out[3] = {hidden, hidden, 1};
  for (int i = 0; i < 3; ++i) {
    in.pred_w[i] = fill(pred_in[i] * pred_out[i], -0.8, 0.8);
    in.pred_b[i] = fill(pred_out[i], -0.5, 0.5);
    in.gate_wx[i] = fill(l * gru, -gate_scale, gate_scale);
    in.gate_b[i] = fill(gru, -gate_scale, gate_scale);
    in.gate_wh[i] = fill(gru * gru, -gate_scale, gate_scale);
  }
  in.head_w = fill(gru, -1.0, 1.0);
  in.head_b = fill(1, -0.5, 0.5);
  const float kSat = std::sqrt(88.f);
  for (int64_t r = 0; r < n; ++r) {
    float* xr = in.x.data() + r * l;
    float* w = in.wqkv.data() + r * 3;
    switch (r % 6) {
      case 0:
        std::fill(xr, xr + l, 0.f);
        w[0] = -0.75f;
        w[1] = -1.25f;
        w[2] = -0.5f;
        break;
      case 1:
        for (int64_t j = 0; j < l; ++j) xr[j] = j % 2 == 0 ? kSat : -kSat;
        w[0] = 1.f;
        w[1] = 1.f;
        break;
      case 2:
      case 3:
        for (int64_t mw = 0; mw < in.m; ++mw) {
          const int64_t base = (mw * n + r) * l;
          std::fill(in.f_sigma.begin() + base, in.f_sigma.begin() + base + l,
                    0.f);
          if (r % 6 == 3) {
            std::copy(in.f.begin() + base, in.f.begin() + base + l,
                      in.f_mu.begin() + base);
          }
        }
        break;
      default:
        break;
    }
  }
  return in;
}

uint64_t Bits64(double x) {
  uint64_t u;
  std::memcpy(&u, &x, sizeof(u));
  return u;
}

// The fused pass must give the scalar table's bits in every table, for
// every block remainder (N = 1..40 from several starting regions, so the
// 16-lane blocks, the step down to 8 lanes and the scalar tail all run),
// and for any split of the region range into calls (ParallelFor chunks).
TEST(VecParity, EalgapServeRows) {
  struct Shape3 {
    int64_t l, hidden, gru;
  };
  for (const Shape3 shape : {Shape3{5, 32, 16}, Shape3{9, 6, 5},
                             Shape3{17, 3, 2}}) {
    for (float gate_scale : {0.5f, 40.f}) {
      for (int64_t n = 1; n <= 40; ++n) {
        const ServeInputs in =
            MakeServeInputs(n, shape.l, shape.hidden, shape.gru, gate_scale);
        std::vector<double> ref(n, -1.0);
        const kernels::EalgapServeArgs ref_args = in.Args(ref.data());
        Scalar().ealgap_serve_rows(ref_args, 0, n);
        for (double v : ref) ASSERT_TRUE(std::isfinite(v) && v >= 0.0);
        for (const NamedTable& alt : AltTables()) {
          for (int64_t r0 : {0, 1, 3}) {
            if (r0 >= n) continue;
            std::vector<double> got(n, -1.0);
            const kernels::EalgapServeArgs args = in.Args(got.data());
            const int64_t mid = r0 + (n - r0) / 2;
            alt.t->ealgap_serve_rows(args, r0, mid);
            alt.t->ealgap_serve_rows(args, mid, n);
            for (int64_t r = r0; r < n; ++r) {
              ASSERT_EQ(Bits64(ref[r]), Bits64(got[r]))
                  << "ealgap_serve_rows [" << alt.name << "] L=" << shape.l
                  << " hidden=" << shape.hidden << " gru=" << shape.gru
                  << " gate_scale=" << gate_scale << " n=" << n
                  << " from " << r0 << ": region " << r << " (case "
                  << r % 6 << ") scalar=" << ref[r] << " simd=" << got[r];
            }
          }
        }
      }
    }
  }
}

// Eq. 6's training kernels must give the scalar table's outputs, scores
// and dw in every table, for every block remainder (R = 1..40 from several
// starting regions, each range split into two calls), for L and J past
// the fused serve pass's stack caps, and must write nothing outside their
// regions.
TEST(VecParity, RegionAttention) {
  constexpr float kUnwritten = -7.f;
  for (int64_t l : {2, 5, 33}) {
    for (int64_t j : {1, 2, 4}) {
      Tensor scratch({kernels::RegionAttentionScratchFloats(l, j)});
      for (int64_t rows = 1; rows <= 40; ++rows) {
        Rng rng(static_cast<uint64_t>(rows * 100 + l * 10 + j));
        auto fill = [&rng](int64_t count, double lo, double hi) {
          std::vector<float> v(count);
          for (float& e : v) e = static_cast<float>(rng.Uniform(lo, hi));
          return v;
        };
        // Every fifth history is all zeros, the next one constant: zero
        // and tied logits.
        std::vector<float> x = fill(rows * l, 0.0, 6.0);
        for (int64_t r = 0; r < rows; ++r) {
          if (r % 5 == 0) std::fill_n(x.begin() + r * l, l, 0.f);
          if (r % 5 == 1) std::fill_n(x.begin() + r * l, l, 2.5f);
        }
        const std::vector<float> w = fill(rows * 3 * j, -2.0, 2.0);
        const std::vector<float> gout = fill(rows * l * j, -1.0, 1.0);
        struct Result {
          std::vector<float> out, scores, dw;
        };
        auto run = [&](const KernelTable& t, int64_t r0) {
          Result res{std::vector<float>(rows * l * j, kUnwritten),
                     std::vector<float>(rows * l * l, kUnwritten),
                     std::vector<float>(rows * 3 * j, kUnwritten)};
          kernels::RegionAttentionArgs a;
          a.l = l;
          a.j = j;
          a.scale = 1.f / std::sqrt(static_cast<float>(j));
          a.x = x.data();
          a.w = w.data();
          a.out = res.out.data();
          a.scores_out = res.scores.data();
          a.scores = res.scores.data();
          a.gout = gout.data();
          a.dw = res.dw.data();
          const int64_t mid = r0 + (rows - r0) / 2;
          t.region_attention(a, r0, mid, scratch.data());
          t.region_attention(a, mid, rows, scratch.data());
          t.region_attention_backward(a, r0, mid, scratch.data());
          t.region_attention_backward(a, mid, rows, scratch.data());
          return res;
        };
        const Result ref = run(Scalar(), 0);
        for (const NamedTable& alt : AltTables()) {
          for (int64_t r0 : {0, 1, 3}) {
            if (r0 >= rows) continue;
            const Result got = run(*alt.t, r0);
            auto expect = [&](const std::vector<float>& want,
                              const std::vector<float>& have,
                              int64_t per_region, const char* what) {
              for (int64_t i = 0; i < rows * per_region; ++i) {
                const float e = i < r0 * per_region ? kUnwritten : want[i];
                ASSERT_EQ(Bits(e), Bits(have[i]))
                    << what << " [" << alt.name << "] L=" << l << " J=" << j
                    << " rows=" << rows << " from " << r0 << ": region "
                    << i / per_region << " element " << i % per_region
                    << " scalar=" << e << " simd=" << have[i];
              }
            };
            expect(ref.out, got.out, l * j, "region_attention out");
            expect(ref.scores, got.scores, l * l, "region_attention scores");
            expect(ref.dw, got.dw, 3 * j, "region_attention_backward dw");
          }
        }
      }
    }
  }
}

// Exp must saturate exactly: +inf above the clamp threshold, +0 below it,
// and NaN for NaN.
// Eq. 10's GRU kernels must give the scalar table's next state, gates,
// gate gradients, r * h, dx and dh in every table, for every block
// remainder (R = 1..40 from several starting rows, each range split into
// two calls), must add dx onto what is there when told to, and must
// write nothing outside their rows.
TEST(VecParity, GruStep) {
  constexpr float kUnwritten = -7.f;
  struct Widths {
    int64_t in, hidden;
  };
  for (const Widths wd : {Widths{5, 16}, Widths{1, 3}, Widths{3, 21}}) {
    const int64_t nin = wd.in, nh = wd.hidden;
    Tensor scratch({kernels::GruStepScratchFloats(nin, nh)});
    for (int64_t rows = 1; rows <= 40; ++rows) {
      Rng rng(static_cast<uint64_t>(rows * 100 + nin * 10 + nh));
      auto fill = [&rng](int64_t count, double lo, double hi) {
        std::vector<float> v(count);
        for (float& e : v) e = static_cast<float>(rng.Uniform(lo, hi));
        return v;
      };
      const std::vector<float> x = fill(rows * nin, -2.0, 2.0);
      // Every fourth state is zero, as the first step's is.
      std::vector<float> h = fill(rows * nh, -1.0, 1.0);
      for (int64_t r = 0; r < rows; r += 4) {
        std::fill_n(h.begin() + r * nh, nh, 0.f);
      }
      const std::vector<float> gout = fill(rows * nh, -1.0, 1.0);
      const std::vector<float> dx0 = fill(rows * nin, -1.0, 1.0);
      std::vector<float> wx[3], b[3], wh[3];
      for (int g = 0; g < 3; ++g) {
        wx[g] = fill(nin * nh, -1.5, 1.5);
        b[g] = fill(nh, -0.5, 0.5);
        wh[g] = fill(nh * nh, -1.5, 1.5);
      }
      struct Result {
        std::vector<float> out, gates, dpre[3], rh, dx, dh;
      };
      auto run = [&](const KernelTable& t, int64_t r0) {
        Result res;
        res.out.assign(rows * nh, kUnwritten);
        res.gates.assign(3 * nh * rows, kUnwritten);
        for (auto& d : res.dpre) d.assign(rows * nh, kUnwritten);
        res.rh.assign(rows * nh, kUnwritten);
        res.dx = dx0;
        res.dh.assign(rows * nh, kUnwritten);
        kernels::GruStepArgs a;
        a.rows = rows;
        a.in = nin;
        a.hidden = nh;
        a.x = x.data();
        a.h = h.data();
        for (int g = 0; g < 3; ++g) {
          a.wx[g] = wx[g].data();
          a.b[g] = b[g].data();
          a.wh[g] = wh[g].data();
          a.dpre[g] = res.dpre[g].data();
        }
        a.out = res.out.data();
        a.gates_out = res.gates.data();
        a.gates = res.gates.data();
        a.gout = gout.data();
        a.rh = res.rh.data();
        a.dx = res.dx.data();
        a.dx_add = true;
        a.dh = res.dh.data();
        const int64_t mid = r0 + (rows - r0) / 2;
        t.gru_step(a, r0, mid, scratch.data());
        t.gru_step(a, mid, rows, scratch.data());
        t.gru_step_backward(a, r0, mid, scratch.data());
        t.gru_step_backward(a, mid, rows, scratch.data());
        return res;
      };
      const Result ref = run(Scalar(), 0);
      for (const NamedTable& alt : AltTables()) {
        for (int64_t r0 : {0, 1, 3}) {
          if (r0 >= rows) continue;
          const Result got = run(*alt.t, r0);
          // `row(i)` is the row element i belongs to; rows before r0 must
          // hold `before(i)`.
          auto expect = [&](const std::vector<float>& want,
                            const std::vector<float>& have, auto row,
                            auto before, const char* what) {
            for (size_t i = 0; i < want.size(); ++i) {
              const float e = row(i) < r0 ? before(i) : want[i];
              ASSERT_EQ(Bits(e), Bits(have[i]))
                  << what << " [" << alt.name << "] in=" << nin
                  << " H=" << nh << " rows=" << rows << " from " << r0
                  << ": element " << i << " scalar=" << e
                  << " simd=" << have[i];
            }
          };
          auto row_major = [](int64_t width) {
            return [width](size_t i) { return static_cast<int64_t>(i) / width; };
          };
          auto unwritten = [](size_t) { return kUnwritten; };
          expect(ref.out, got.out, row_major(nh), unwritten, "gru_step out");
          expect(ref.gates, got.gates,
                 [rows](size_t i) { return static_cast<int64_t>(i) % rows; },
                 unwritten, "gru_step gates");
          for (int g = 0; g < 3; ++g) {
            expect(ref.dpre[g], got.dpre[g], row_major(nh), unwritten,
                   "gru_step_backward dpre");
          }
          expect(ref.rh, got.rh, row_major(nh), unwritten,
                 "gru_step_backward rh");
          expect(ref.dx, got.dx, row_major(nin),
                 [&dx0](size_t i) { return dx0[i]; }, "gru_step_backward dx");
          expect(ref.dh, got.dh, row_major(nh), unwritten,
                 "gru_step_backward dh");
        }
      }
    }
  }
}

TEST(VecMath, ExpEdges) {
  const KernelTable& t = *kernels::Table(Backend::kScalar);
  const float in[6] = {89.f, 1000.f, -88.f, -1000.f,
                       std::numeric_limits<float>::infinity(),
                       -std::numeric_limits<float>::infinity()};
  float out[6];
  t.exp(in, out, 6);
  EXPECT_EQ(out[0], std::numeric_limits<float>::infinity());
  EXPECT_EQ(out[1], std::numeric_limits<float>::infinity());
  EXPECT_EQ(out[2], 0.f);
  EXPECT_EQ(out[3], 0.f);
  EXPECT_EQ(out[4], std::numeric_limits<float>::infinity());
  EXPECT_EQ(out[5], 0.f);
  const float qnan = std::nanf("");
  float nan_out;
  t.exp(&qnan, &nan_out, 1);
  EXPECT_TRUE(std::isnan(nan_out));
}

// ULP distance: floats map to a monotone integer line (non-negative keep
// their bits, negatives mirror below zero), then take the difference.
int64_t UlpDiff(float a, float b) {
  auto key = [](float x) -> int64_t {
    int32_t i;
    std::memcpy(&i, &x, sizeof(i));
    return i >= 0 ? static_cast<int64_t>(i)
                  : -static_cast<int64_t>(i & 0x7fffffff);
  };
  return std::llabs(key(a) - key(b));
}

// Max ULP error of a kernel against correctly-rounded libm on a dense grid.
template <typename RefFn>
int64_t MaxUlpOnGrid(void (*kfn)(const float*, float*, int64_t), float lo,
                     float hi, int64_t steps, RefFn ref) {
  int64_t worst = 0;
  constexpr int64_t kChunk = 4096;
  std::vector<float> x(kChunk), y(kChunk);
  for (int64_t s = 0; s < steps; s += kChunk) {
    const int64_t m = std::min(kChunk, steps - s);
    for (int64_t i = 0; i < m; ++i) {
      x[i] = lo + (hi - lo) *
                      (static_cast<float>(s + i) / static_cast<float>(steps));
    }
    kfn(x.data(), y.data(), m);
    for (int64_t i = 0; i < m; ++i) {
      const float want = static_cast<float>(ref(static_cast<double>(x[i])));
      worst = std::max(worst, UlpDiff(y[i], want));
    }
  }
  return worst;
}

TEST(VecMath, ExpUlpBound) {
  const KernelTable& t = *kernels::Table(Backend::kScalar);
  const int64_t worst = MaxUlpOnGrid(t.exp, -87.f, 88.f, 400000,
                                     [](double v) { return std::exp(v); });
  EXPECT_LE(worst, 4) << "vexp drifted vs libm";
}

TEST(VecMath, TanhUlpBound) {
  const KernelTable& t = *kernels::Table(Backend::kScalar);
  const int64_t worst = MaxUlpOnGrid(t.tanh, -10.f, 10.f, 400000,
                                     [](double v) { return std::tanh(v); });
  EXPECT_LE(worst, 8) << "vtanh drifted vs libm";
}

TEST(VecMath, SigmoidUlpBound) {
  const KernelTable& t = *kernels::Table(Backend::kScalar);
  const int64_t worst =
      MaxUlpOnGrid(t.sigmoid, -30.f, 30.f, 400000,
                   [](double v) { return 1.0 / (1.0 + std::exp(-v)); });
  EXPECT_LE(worst, 8) << "vsigmoid drifted vs libm";
}

// Whole-op parity through the public ops:: API, flipping the active backend
// in-process. Covers the ParallelFor plumbing on top of the kernels.
TEST(OpsBackendParity, EndToEnd) {
  const Backend orig = kernels::ActiveBackend();
  Rng rng(20260806);
  Tensor a = Tensor::Randn({7, 33}, rng);
  Tensor b = Tensor::Randn({7, 33}, rng);
  Tensor m1 = Tensor::Randn({9, 17}, rng);
  Tensor m2 = Tensor::Randn({17, 21}, rng);

  struct Run {
    std::vector<Tensor> outs;
    double sumsq;
  };
  auto run_all = [&]() {
    Run r;
    r.outs.push_back(ops::Add(a, b));
    r.outs.push_back(ops::Mul(a, b));
    r.outs.push_back(ops::Div(a, ops::AddScalar(ops::Abs(b), 1.f)));
    r.outs.push_back(ops::Exp(ops::MulScalar(a, 0.1f)));
    r.outs.push_back(ops::Tanh(a));
    r.outs.push_back(ops::Sigmoid(a));
    r.outs.push_back(ops::SoftmaxLastDim(a));
    r.outs.push_back(ops::MatMul(m1, m2));
    r.outs.push_back(ops::SumAll(a));
    r.outs.push_back(ops::MaxAll(a));
    r.outs.push_back(ops::SumAxis(a, 0));
    r.sumsq = ops::SumSquares(a);
    return r;
  };

  kernels::SetBackendForTesting(Backend::kScalar);
  Run ref = run_all();
  for (Backend bk : {Backend::kSse2, Backend::kAvx2, Backend::kAvx512}) {
    if (!kernels::BackendSupported(bk)) continue;
    kernels::SetBackendForTesting(bk);
    Run alt = run_all();
    ASSERT_EQ(ref.outs.size(), alt.outs.size());
    EXPECT_EQ(ref.sumsq, alt.sumsq) << kernels::BackendName(bk);
    for (size_t i = 0; i < ref.outs.size(); ++i) {
      const Tensor& x = ref.outs[i];
      const Tensor& y = alt.outs[i];
      ASSERT_TRUE(x.SameShape(y));
      for (int64_t j = 0; j < x.numel(); ++j) {
        ASSERT_EQ(Bits(x.data()[j]), Bits(y.data()[j]))
            << "op " << i << " backend " << kernels::BackendName(bk)
            << " elem " << j;
      }
    }
  }
  // Restore the startup backend for any tests that follow in this process.
  kernels::SetBackendForTesting(orig);
}

}  // namespace
}  // namespace ealgap
