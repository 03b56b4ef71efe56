#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "tensor/autograd.h"
#include "tests/gradcheck.h"

namespace ealgap {
namespace {

using ::ealgap::testing::ExpectGradientsMatch;

TEST(AutogradTest, LeafRequiresGradFlag) {
  Var a = Var::Leaf(Tensor::Ones({2}), true);
  Var b = Var::Leaf(Tensor::Ones({2}), false);
  EXPECT_TRUE(a.requires_grad());
  EXPECT_FALSE(b.requires_grad());
  EXPECT_TRUE(Add(a, b).requires_grad());
  EXPECT_FALSE(Add(b, b).requires_grad());
}

TEST(AutogradTest, NoGradGuardDisablesRecording) {
  Var a = Var::Leaf(Tensor::Ones({2}), true);
  NoGradGuard guard;
  Var c = Mul(a, a);
  EXPECT_FALSE(c.requires_grad());
}

TEST(AutogradTest, SimpleChainRule) {
  // y = sum((2x)^2) -> dy/dx = 8x
  Var x = Var::Leaf(Tensor::FromVector({3}, {1, 2, 3}), true);
  Var y = SumAll(Mul(MulScalar(x, 2.f), MulScalar(x, 2.f)));
  Backward(y);
  EXPECT_FLOAT_EQ(x.grad().at({0}), 8.f);
  EXPECT_FLOAT_EQ(x.grad().at({1}), 16.f);
  EXPECT_FLOAT_EQ(x.grad().at({2}), 24.f);
}

TEST(AutogradTest, GradAccumulatesAcrossUses) {
  // y = sum(x) + sum(x) -> dy/dx = 2
  Var x = Var::Leaf(Tensor::Ones({4}), true);
  Var y = Add(SumAll(x), SumAll(x));
  Backward(y);
  for (int64_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(x.grad().data()[i], 2.f);
}

TEST(AutogradTest, DetachStopsGradient) {
  Var x = Var::Leaf(Tensor::Full({2}, 3.f), true);
  Var y = SumAll(Mul(x.Detach(), x));  // d/dx = detached value = 3
  Backward(y);
  EXPECT_FLOAT_EQ(x.grad().at({0}), 3.f);
}

TEST(AutogradTest, ZeroGradClears) {
  Var x = Var::Leaf(Tensor::Ones({2}), true);
  Backward(SumAll(x));
  EXPECT_FLOAT_EQ(x.grad().at({0}), 1.f);
  x.ZeroGrad();
  EXPECT_FLOAT_EQ(x.grad().at({0}), 0.f);
}

void ExpectBitEqual(const Tensor& want, const Tensor& got,
                    const std::string& what) {
  ASSERT_EQ(want.shape(), got.shape()) << what;
  for (int64_t i = 0; i < want.numel(); ++i) {
    uint32_t a, b;
    std::memcpy(&a, want.data() + i, sizeof(a));
    std::memcpy(&b, got.data() + i, sizeof(b));
    ASSERT_EQ(a, b) << what << " element " << i << ": " << want.data()[i]
                    << " vs " << got.data()[i];
  }
}

// A two-input op whose other operand is data must give the parameter the
// gradient it gets when both sides require grad, and leave the data leaf
// without one.
TEST(AutogradTest, DataOperandGetsNoGradient) {
  using BinaryOp = Var (*)(const Var&, const Var&);
  struct Case {
    const char* name;
    BinaryOp op;
    Shape a, b;
  };
  const Case cases[] = {
      {"sub", Sub, {2, 3}, {2, 3}},
      {"mul", Mul, {3, 4}, {3, 1}},
      {"div", Div, {2, 3}, {2, 3}},
      {"matmul", MatMul, {2, 3}, {3, 4}},
      {"bmatmul", BMatMul, {2, 2, 3}, {2, 3, 2}},
  };
  Rng rng(29);
  for (const Case& c : cases) {
    const Tensor a = Tensor::Rand(c.a, rng, 0.5f, 2.f);
    const Tensor b = Tensor::Rand(c.b, rng, 0.5f, 2.f);
    for (bool param_first : {true, false}) {
      auto grad_of_param = [&](bool data_requires_grad, Var* data) {
        Var pa = Var::Leaf(a.Clone(), param_first || data_requires_grad);
        Var pb = Var::Leaf(b.Clone(), !param_first || data_requires_grad);
        Var out = c.op(pa, pb);
        Backward(SumAll(Mul(out, out)));
        *data = param_first ? pb : pa;
        return (param_first ? pa : pb).grad().Clone();
      };
      Var data;
      const Tensor want = grad_of_param(true, &data);
      const Tensor got = grad_of_param(false, &data);
      ExpectBitEqual(want, got, std::string(c.name) +
                                    (param_first ? " lhs" : " rhs"));
      EXPECT_FALSE(data.node()->grad.defined()) << c.name;
    }
  }
}

// MatMul's and BMatMul's backward take d b = a^T g without copying a's
// transpose; the bits must be those the transposed copy gives, at output
// widths below, at and past every table's vector width.
TEST(AutogradTest, TransposedOperandMatMulMatchesTheCopy) {
  Rng rng(31);
  for (int64_t n : {1, 5, 16, 17, 40}) {
    for (int64_t m : {1, 7, 20}) {
      const std::string what =
          "m=" + std::to_string(m) + " n=" + std::to_string(n);
      const Tensor a = Tensor::Randn({33, m}, rng, 0.f, 1.f);
      const Tensor b = Tensor::Randn({33, n}, rng, 0.f, 1.f);
      ExpectBitEqual(ops::MatMul(ops::TransposeLast2(a), b),
                     ops::MatMulTransA(a, b), "MatMulTransA " + what);
      const Tensor a3 = Tensor::Randn({3, 9, m}, rng, 0.f, 1.f);
      const Tensor b3 = Tensor::Randn({3, 9, n}, rng, 0.f, 1.f);
      ExpectBitEqual(ops::BMatMul(ops::TransposeLast2(a3), b3),
                     ops::BMatMulTransA(a3, b3), "BMatMulTransA " + what);
    }
  }
}

// --- RegionAttention (Eq. 6) ----------------------------------------------

// Eq. 6 as the graph of BMatMuls, Slices and SoftmaxLastDim that
// GlobalImpactModule built before RegionAttention.
Var AttentionGraph(const Tensor& x, const Var& w, int64_t j) {
  const int64_t rows = x.dim(0), l = x.dim(1);
  Var x3 = Var::Leaf(x.Reshape({rows, l, 1}));
  Var q = BMatMul(x3, Reshape(Slice(w, 1, 0, j), {rows, 1, j}));
  Var k = BMatMul(x3, Reshape(Slice(w, 1, j, 2 * j), {rows, 1, j}));
  Var v = BMatMul(x3, Reshape(Slice(w, 1, 2 * j, 3 * j), {rows, 1, j}));
  Var logits = MulScalar(BMatMul(q, TransposeLast2(k)),
                         1.f / std::sqrt(static_cast<float>(j)));
  return BMatMul(SoftmaxLastDim(logits), v);
}

// Histories in [0, 6) with every fifth row all zeros (zero logits and
// zero gradients, and 0 times a negative weight) and every fifth row,
// offset by one, constant (tied logits).
Tensor AttentionHistory(int64_t rows, int64_t l, Rng& rng) {
  Tensor x = Tensor::Rand({rows, l}, rng, 0.f, 6.f);
  for (int64_t r = 0; r < rows; ++r) {
    float* row = x.data() + r * l;
    if (r % 5 == 0) std::fill(row, row + l, 0.f);
    if (r % 5 == 1) std::fill(row, row + l, 2.5f);
  }
  return x;
}

TEST(RegionAttentionTest, MatchesTheGraphBitForBit) {
  const int saved_threads = GetNumThreads();
  struct Shape3 {
    int64_t rows, l, j;
  };
  for (const Shape3 s : {Shape3{37, 5, 1}, Shape3{1400, 5, 1},
                         Shape3{21, 2, 2}, Shape3{40, 33, 4},
                         Shape3{19, 7, 3}}) {
    Rng rng(static_cast<uint64_t>(s.rows * 100 + s.l * 10 + s.j));
    const Tensor x = AttentionHistory(s.rows, s.l, rng);
    const Tensor w = Tensor::Rand({s.rows, 3 * s.j}, rng, -2.f, 2.f);
    // d loss / d output = c, a data weight per element.
    const Tensor c = Tensor::Randn({s.rows, s.l, s.j}, rng, 0.f, 1.f);
    for (int threads : {1, 4}) {
      SetNumThreads(threads);
      const std::string what = "rows=" + std::to_string(s.rows) +
                               " L=" + std::to_string(s.l) +
                               " J=" + std::to_string(s.j) +
                               " threads=" + std::to_string(threads);
      auto run = [&](Var (*fn)(const Tensor&, const Var&, int64_t),
                     Tensor* dw) {
        Var wv = Var::Leaf(w.Clone(), /*requires_grad=*/true);
        Var out = fn(x, wv, s.j);
        Backward(SumAll(Mul(out, Var::Leaf(c))));
        *dw = wv.grad().Clone();
        return out.value();
      };
      Tensor dw_graph, dw_op;
      const Tensor out_graph = run(AttentionGraph, &dw_graph);
      const Tensor out_op = run(RegionAttention, &dw_op);
      ExpectBitEqual(out_graph, out_op, "forward " + what);
      ExpectBitEqual(dw_graph, dw_op, "dw " + what);
      NoGradGuard no_grad;
      ExpectBitEqual(out_graph,
                     RegionAttention(x, Var::Leaf(w), s.j).value(),
                     "no-grad forward " + what);
    }
  }
  SetNumThreads(saved_threads);
}

TEST(RegionAttentionTest, RecordsOnlyWhenWRequiresGrad) {
  Rng rng(5);
  const Tensor x = AttentionHistory(4, 5, rng);
  Var w = Var::Leaf(Tensor::Rand({4, 3}, rng, -1.f, 1.f), true);
  EXPECT_TRUE(RegionAttention(x, w, 1).requires_grad());
  EXPECT_FALSE(RegionAttention(x, w.Detach(), 1).requires_grad());
  NoGradGuard no_grad;
  EXPECT_FALSE(RegionAttention(x, w, 1).requires_grad());
}

TEST(RegionAttentionTest, MatchesFiniteDifferences) {
  for (int64_t j : {1, 2}) {
    Rng rng(static_cast<uint64_t>(40 + j));
    const Tensor x = Tensor::Rand({3, 5}, rng, 0.2f, 2.f);
    ExpectGradientsMatch(
        {Tensor::Rand({3, 3 * j}, rng, -1.f, 1.f)},
        [&x, j](std::vector<Var>& v) {
          Var out = RegionAttention(x, v[0], j);
          return SumAll(Mul(out, out));
        });
  }
}

// --- Parameterized finite-difference checks over the op catalogue ----------

struct OpCase {
  const char* name;
  std::function<Var(std::vector<Var>&)> fn;
  std::vector<Shape> input_shapes;
  bool positive_inputs = false;
};

class GradCheckTest : public ::testing::TestWithParam<OpCase> {};

TEST_P(GradCheckTest, MatchesFiniteDifferences) {
  const OpCase& c = GetParam();
  Rng rng(17);
  std::vector<Tensor> inputs;
  for (const Shape& s : c.input_shapes) {
    inputs.push_back(c.positive_inputs
                         ? Tensor::Rand(s, rng, 0.5f, 2.0f)
                         : Tensor::Randn(s, rng, 0.f, 1.f));
  }
  ExpectGradientsMatch(std::move(inputs), c.fn);
}

INSTANTIATE_TEST_SUITE_P(
    Ops, GradCheckTest,
    ::testing::Values(
        OpCase{"add", [](auto& v) { return SumAll(Add(v[0], v[1])); },
               {{2, 3}, {2, 3}}},
        OpCase{"add_broadcast",
               [](auto& v) { return SumAll(Add(v[0], v[1])); },
               {{2, 3}, {1, 3}}},
        OpCase{"sub", [](auto& v) { return SumAll(Sub(v[0], v[1])); },
               {{2, 2}, {2, 2}}},
        OpCase{"mul", [](auto& v) { return SumAll(Mul(v[0], v[1])); },
               {{2, 3}, {2, 3}}},
        OpCase{"mul_broadcast_col",
               [](auto& v) { return SumAll(Mul(v[0], v[1])); },
               {{3, 4}, {3, 1}}},
        OpCase{"div", [](auto& v) { return SumAll(Div(v[0], v[1])); },
               {{2, 2}, {2, 2}},
               /*positive_inputs=*/true},
        OpCase{"neg_exp",
               [](auto& v) { return SumAll(Exp(Neg(v[0]))); }, {{2, 3}}},
        OpCase{"log", [](auto& v) { return SumAll(Log(v[0])); },
               {{2, 3}}, true},
        OpCase{"sqrt", [](auto& v) { return SumAll(Sqrt(v[0])); },
               {{2, 3}}, true},
        OpCase{"tanh", [](auto& v) { return SumAll(Tanh(v[0])); }, {{3, 2}}},
        OpCase{"sigmoid", [](auto& v) { return SumAll(Sigmoid(v[0])); },
               {{3, 2}}},
        OpCase{"relu_shifted",
               // Shift away from the kink where finite differences lie.
               [](auto& v) { return SumAll(Relu(AddScalar(v[0], 3.f))); },
               {{2, 3}}},
        OpCase{"abs_positive", [](auto& v) { return SumAll(Abs(v[0])); },
               {{2, 3}}, true},
        OpCase{"pow2", [](auto& v) { return SumAll(PowScalar(v[0], 2.f)); },
               {{2, 2}}, true},
        OpCase{"matmul",
               [](auto& v) { return SumAll(MatMul(v[0], v[1])); },
               {{2, 3}, {3, 4}}},
        OpCase{"matmul_squared",
               [](auto& v) {
                 Var c = MatMul(v[0], v[1]);
                 return SumAll(Mul(c, c));
               },
               {{2, 3}, {3, 2}}},
        OpCase{"bmatmul",
               [](auto& v) { return SumAll(BMatMul(v[0], v[1])); },
               {{2, 2, 3}, {2, 3, 2}}},
        OpCase{"transpose",
               [](auto& v) {
                 Var t = TransposeLast2(v[0]);
                 return SumAll(Mul(t, t));
               },
               {{2, 3}}},
        OpCase{"mean_all", [](auto& v) { return MeanAll(Mul(v[0], v[0])); },
               {{3, 3}}},
        OpCase{"sum_axis0",
               [](auto& v) {
                 Var s = SumAxis(v[0], 0);
                 return SumAll(Mul(s, s));
               },
               {{3, 2}}},
        OpCase{"mean_axis1_nokeep",
               [](auto& v) {
                 Var s = MeanAxis(v[0], 1, false);
                 return SumAll(Mul(s, s));
               },
               {{2, 4}}},
        OpCase{"softmax",
               [](auto& v) {
                 Var s = SoftmaxLastDim(v[0]);
                 return SumAll(Mul(s, s));
               },
               {{3, 4}}},
        OpCase{"slice",
               [](auto& v) {
                 Var s = Slice(v[0], 1, 1, 3);
                 return SumAll(Mul(s, s));
               },
               {{2, 4}}},
        OpCase{"concat",
               [](auto& v) {
                 Var c = Concat({v[0], v[1]}, 1);
                 return SumAll(Mul(c, c));
               },
               {{2, 2}, {2, 3}}},
        OpCase{"stack",
               [](auto& v) {
                 Var s = Stack({v[0], v[1]});
                 return SumAll(Mul(s, s));
               },
               {{2, 2}, {2, 2}}},
        OpCase{"reshape",
               [](auto& v) {
                 Var r = Reshape(v[0], {4});
                 return SumAll(Mul(r, r));
               },
               {{2, 2}}},
        OpCase{"composite_attentionish",
               [](auto& v) {
                 // softmax(q kT) v — the global-impact attention pattern.
                 Var scores = SoftmaxLastDim(MatMul(v[0], TransposeLast2(v[1])));
                 Var out = MatMul(scores, v[2]);
                 return SumAll(Mul(out, out));
               },
               {{3, 2}, {3, 2}, {3, 2}}}),
    [](const ::testing::TestParamInfo<OpCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace ealgap
