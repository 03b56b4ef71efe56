#include <cmath>
#include <cstring>
#include <map>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/state_file.h"
#include "common/thread_pool.h"
#include "nn/conv2d.h"
#include "nn/init.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/module.h"
#include "nn/optimizer.h"
#include "nn/rnn_cells.h"
#include "nn/serialize.h"
#include "tests/gradcheck.h"

namespace ealgap {
namespace {

using ::ealgap::testing::ExpectGradientsMatch;

TEST(ModuleTest, RegistersParametersHierarchically) {
  Rng rng(1);
  nn::GruCell cell(2, 3, rng);
  // 3 input projections with bias + 3 hidden projections without.
  EXPECT_EQ(cell.Parameters().size(), 9u);
  bool found = false;
  for (const auto& [name, p] : cell.NamedParameters()) {
    if (name == "iz.weight") found = true;
  }
  EXPECT_TRUE(found);
  EXPECT_EQ(cell.NumParameters(), 3 * (2 * 3 + 3) + 3 * 3 * 3);
}

TEST(ModuleTest, ZeroGradResetsAll) {
  Rng rng(1);
  nn::Linear fc(2, 2, rng);
  Var out = SumAll(fc.Forward(Var::Leaf(Tensor::Ones({1, 2}))));
  Backward(out);
  fc.ZeroGrad();
  for (Var& p : fc.Parameters()) {
    for (int64_t i = 0; i < p.grad().numel(); ++i) {
      EXPECT_EQ(p.grad().data()[i], 0.f);
    }
  }
}

TEST(InitTest, XavierBoundsAndHeMoments) {
  Rng rng(2);
  Tensor x = nn::XavierUniform({50, 50}, 50, 50, rng);
  const float bound = std::sqrt(6.f / 100.f);
  for (int64_t i = 0; i < x.numel(); ++i) {
    EXPECT_LE(std::fabs(x.data()[i]), bound);
  }
  Tensor h = nn::HeNormal({80, 80}, 80, rng);
  double ss = 0;
  for (int64_t i = 0; i < h.numel(); ++i) ss += h.data()[i] * h.data()[i];
  EXPECT_NEAR(ss / h.numel(), 2.0 / 80, 0.01);
}

TEST(LinearTest, KnownAffineMap) {
  Rng rng(1);
  nn::Linear fc(2, 1, rng);
  const_cast<Tensor&>(fc.weight().value()).CopyFrom(
      Tensor::FromVector({2, 1}, {2.f, 3.f}));
  const_cast<Tensor&>(fc.bias().value()).CopyFrom(
      Tensor::FromVector({1}, {0.5f}));
  Var out = fc.Forward(Var::Leaf(Tensor::FromVector({1, 2}, {10.f, 1.f})));
  EXPECT_FLOAT_EQ(out.value().at({0, 0}), 23.5f);
}

TEST(LinearTest, HandlesHigherRankInputs) {
  Rng rng(1);
  nn::Linear fc(3, 4, rng);
  Var out = fc.Forward(Var::Leaf(Tensor::Ones({2, 5, 3})));
  EXPECT_EQ(out.value().shape(), (Shape{2, 5, 4}));
}

TEST(LinearTest, GradCheck) {
  Rng rng(5);
  nn::Linear fc(3, 2, rng);
  Tensor x = Tensor::Randn({4, 3}, rng);
  // Check gradients w.r.t. weight and bias via the module parameters.
  fc.ZeroGrad();
  Var out = fc.Forward(Var::Leaf(x));
  Var loss = MeanAll(Mul(out, out));
  Backward(loss);
  // Numeric check on one weight element.
  Tensor& w = const_cast<Tensor&>(fc.weight().value());
  const float orig = w.at({1, 0});
  const float eps = 1e-3f;
  auto eval = [&] {
    NoGradGuard g;
    Var o = fc.Forward(Var::Leaf(x));
    return MeanAll(Mul(o, o)).value().data()[0];
  };
  w.at({1, 0}) = orig + eps;
  const float up = eval();
  w.at({1, 0}) = orig - eps;
  const float down = eval();
  w.at({1, 0}) = orig;
  Var wp = fc.weight();
  EXPECT_NEAR(wp.grad().at({1, 0}), (up - down) / (2 * eps), 2e-2);
}

// --- recurrent cells --------------------------------------------------------

TEST(RnnCellsTest, OutputShapesAndBounds) {
  Rng rng(3);
  const int64_t batch = 4, input = 3, hidden = 5;
  Var x = Var::Leaf(Tensor::Randn({batch, input}, rng));
  nn::RnnCell rnn(input, hidden, rng);
  Var h = rnn.Forward(x, nn::ZeroState(batch, hidden));
  EXPECT_EQ(h.value().shape(), (Shape{batch, hidden}));
  for (int64_t i = 0; i < h.value().numel(); ++i) {
    EXPECT_LE(std::fabs(h.value().data()[i]), 1.f);  // tanh bounded
  }
  nn::GruCell gru(input, hidden, rng);
  EXPECT_EQ(gru.Forward(x, nn::ZeroState(batch, hidden)).value().shape(),
            (Shape{batch, hidden}));
  nn::LstmCell lstm(input, hidden, rng);
  auto state = lstm.Forward(x, {nn::ZeroState(batch, hidden),
                                nn::ZeroState(batch, hidden)});
  EXPECT_EQ(state.h.value().shape(), (Shape{batch, hidden}));
  EXPECT_EQ(state.c.value().shape(), (Shape{batch, hidden}));
}

TEST(RnnCellsTest, GruStatePersistenceMatters) {
  // Feeding the same input twice with carried state must differ from a
  // fresh state (the cell actually uses its hidden input).
  Rng rng(4);
  nn::GruCell gru(2, 3, rng);
  Var x = Var::Leaf(Tensor::Ones({1, 2}));
  Var h1 = gru.Forward(x, nn::ZeroState(1, 3));
  Var h2 = gru.Forward(x, h1);
  bool differs = false;
  for (int64_t i = 0; i < 3; ++i) {
    if (std::fabs(h1.value().data()[i] - h2.value().data()[i]) > 1e-6) {
      differs = true;
    }
  }
  EXPECT_TRUE(differs);
}

TEST(RnnCellsTest, GradientsFlowThroughUnrolledGru) {
  Rng rng(6);
  nn::GruCell gru(1, 4, rng);
  std::vector<Var> steps;
  for (int t = 0; t < 3; ++t) {
    steps.push_back(Var::Leaf(Tensor::Full({2, 1}, 0.5f + t)));
  }
  Var h = RunGru(gru, steps, nn::ZeroState(2, 4));
  Backward(SumAll(h));
  double total = 0;
  for (Var& p : gru.Parameters()) {
    for (int64_t i = 0; i < p.grad().numel(); ++i) {
      total += std::fabs(p.grad().data()[i]);
    }
  }
  EXPECT_GT(total, 1e-4);
}

TEST(RnnCellsTest, GruParameterGradientsMatchFiniteDifferences) {
  // Checks the analytic gradient of every GruCell parameter (all six
  // Linears: update/reset/candidate gates, input and hidden sides) against
  // central finite differences through a 3-step unroll.
  Rng rng(7);
  nn::GruCell gru(2, 3, rng);
  std::vector<Tensor> inputs;
  for (int t = 0; t < 3; ++t) {
    inputs.push_back(Tensor::Randn({2, 2}, rng));
  }
  testing::ExpectParameterGradientsMatch(gru, [&]() {
    std::vector<Var> steps;
    for (const Tensor& x : inputs) steps.push_back(Var::Leaf(x.Clone()));
    return SumAll(RunGru(gru, steps, nn::ZeroState(2, 3)));
  });
}

// --- GruStep: Eq. 10's GRU step as one op ------------------------------------

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

// nn::Linear::Forward's graph over given parameters (b may be undefined).
Var LinearGraph(const Var& x, const Var& w, const Var& b) {
  const int64_t in = w.value().dim(0), out = w.value().dim(1);
  const int64_t rows = x.value().numel() / in;
  Var y = MatMul(Reshape(x, {rows, in}), w);
  if (b.defined()) y = Add(y, Reshape(b, {1, out}));
  return Reshape(y, {rows, out});
}

// GruCell::Forward as the graph of Linears, Sigmoid, Tanh and elementwise
// ops it was built from before GruStep.
Var GruGraph(const Var& x, const Var& h, const GruParams& p) {
  Var z = Sigmoid(Add(LinearGraph(x, p.wx[0], p.b[0]),
                      LinearGraph(h, p.wh[0], Var())));
  Var r = Sigmoid(Add(LinearGraph(x, p.wx[1], p.b[1]),
                      LinearGraph(h, p.wh[1], Var())));
  Var n = Tanh(Add(LinearGraph(x, p.wx[2], p.b[2]),
                   LinearGraph(Mul(r, h), p.wh[2], Var())));
  return Add(Mul(AddScalar(Neg(z), 1.f), h), Mul(z, n));
}

// Fresh parameter leaves holding the same values.
struct GruLeaves {
  Tensor wx[3], b[3], wh[3];
  GruLeaves(int64_t in, int64_t hidden, Rng& rng) {
    for (int g = 0; g < 3; ++g) {
      wx[g] = Tensor::Rand({in, hidden}, rng, -1.2f, 1.2f);
      b[g] = Tensor::Rand({hidden}, rng, -0.5f, 0.5f);
      wh[g] = Tensor::Rand({hidden, hidden}, rng, -1.2f, 1.2f);
    }
  }
  GruParams Vars() const {
    GruParams p;
    for (int g = 0; g < 3; ++g) {
      p.wx[g] = Var::Leaf(wx[g].Clone(), true);
      p.b[g] = Var::Leaf(b[g].Clone(), true);
      p.wh[g] = Var::Leaf(wh[g].Clone(), true);
    }
    return p;
  }
};

void ExpectParamGradsBitEqual(const GruParams& want, const GruParams& got,
                              const std::string& what) {
  const char* gate = "zrn";
  for (int g = 0; g < 3; ++g) {
    const std::string name = what + " gate " + gate[g];
    ExpectBitEqual(want.wx[g].node()->grad, got.wx[g].node()->grad,
                   "dwx " + name);
    ExpectBitEqual(want.b[g].node()->grad, got.b[g].node()->grad, "db " + name);
    ExpectBitEqual(want.wh[g].node()->grad, got.wh[g].node()->grad,
                   "dwh " + name);
  }
}

TEST(GruStepTest, MatchesTheGraphBitForBit) {
  const int saved_threads = GetNumThreads();
  struct Shape3 {
    int64_t rows, in, hidden;
  };
  for (const Shape3 s : {Shape3{320, 5, 16}, Shape3{37, 1, 3},
                         Shape3{19, 5, 70}, Shape3{1, 2, 1}}) {
    Rng rng(static_cast<uint64_t>(s.rows * 1000 + s.in * 100 + s.hidden));
    const GruLeaves w(s.in, s.hidden, rng);
    const Tensor x = Tensor::Randn({s.rows, s.in}, rng, 0.f, 1.f);
    const Tensor h = Tensor::Rand({s.rows, s.hidden}, rng, -1.f, 1.f);
    // d loss / d output = c, a data weight per element.
    const Tensor c = Tensor::Randn({s.rows, s.hidden}, rng, 0.f, 1.f);
    for (int threads : {1, 4}) {
      SetNumThreads(threads);
      for (bool h_requires_grad : {true, false}) {
        const std::string what =
            "rows=" + std::to_string(s.rows) + " in=" + std::to_string(s.in) +
            " H=" + std::to_string(s.hidden) +
            " threads=" + std::to_string(threads) +
            (h_requires_grad ? "" : " data h");
        struct Run {
          Tensor out;
          Var x, h;
          GruParams p;
        };
        auto run = [&](Var (*fn)(const Var&, const Var&, const GruParams&)) {
          Run r{Tensor(), Var::Leaf(x.Clone(), true),
                Var::Leaf(h.Clone(), h_requires_grad), w.Vars()};
          Var out = fn(r.x, r.h, r.p);
          Backward(SumAll(Mul(out, Var::Leaf(c))));
          r.out = out.value();
          return r;
        };
        const Run graph = run(GruGraph);
        const Run op = run(GruStep);
        ExpectBitEqual(graph.out, op.out, "forward " + what);
        ExpectBitEqual(graph.x.node()->grad, op.x.node()->grad, "dx " + what);
        if (h_requires_grad) {
          ExpectBitEqual(graph.h.node()->grad, op.h.node()->grad,
                         "dh " + what);
        } else {
          EXPECT_FALSE(op.h.node()->grad.defined()) << what;
        }
        ExpectParamGradsBitEqual(graph.p, op.p, what);
        NoGradGuard no_grad;
        const GruParams p = w.Vars();
        const Var out = GruStep(Var::Leaf(x), Var::Leaf(h), p);
        EXPECT_FALSE(out.requires_grad()) << what;
        ExpectBitEqual(graph.out, out.value(), "no-grad forward " + what);
      }
    }
  }
  SetNumThreads(saved_threads);
}

// EALGAP's window: M = 3 steps from a zero state, inputs sliced out of one
// differentiable tensor, and a tanh head on every step's state feeding the
// loss, so parameters, x and h each sum contributions from several places.
// The op must reproduce the graph's order of those sums bit for bit.
TEST(GruStepTest, UnrolledWindowMatchesTheGraphBitForBit) {
  const int64_t m = 3, rows = 40, in = 5, hidden = 16;
  Rng rng(77);
  const GruLeaves w(in, hidden, rng);
  const Tensor source = Tensor::Randn({m, rows, in}, rng, 0.f, 1.f);
  const Tensor head_w = Tensor::Rand({hidden, 1}, rng, -1.f, 1.f);
  const Tensor c = Tensor::Randn({rows}, rng, 0.f, 1.f);
  struct Run {
    Var scale, head_w, head_b;
    GruParams p;
  };
  auto run = [&](Var (*fn)(const Var&, const Var&, const GruParams&)) {
    Run r{Var::Leaf(Tensor::Full({1}, 0.8f), true),
          Var::Leaf(head_w.Clone(), true), Var::Leaf(Tensor::Zeros({1}), true),
          w.Vars()};
    Var e = Tanh(Mul(Var::Leaf(source), r.scale));
    Var h = Var::Leaf(Tensor::Zeros({rows, hidden}));
    std::vector<Var> d;
    for (int64_t t = 0; t < m; ++t) {
      h = fn(Reshape(Slice(e, 0, t, t + 1), {rows, in}), h, r.p);
      d.push_back(Reshape(Tanh(LinearGraph(h, r.head_w, r.head_b)), {rows}));
    }
    Var stacked = Stack(d);
    Backward(Add(SumAll(Mul(d.back(), Var::Leaf(c))),
                 MulScalar(MeanAll(Mul(stacked, stacked)), 0.5f)));
    return r;
  };
  const Run graph = run(GruGraph);
  const Run op = run(GruStep);
  ExpectParamGradsBitEqual(graph.p, op.p, "window");
  ExpectBitEqual(graph.scale.node()->grad, op.scale.node()->grad, "dscale");
  ExpectBitEqual(graph.head_w.node()->grad, op.head_w.node()->grad, "dhead_w");
  ExpectBitEqual(graph.head_b.node()->grad, op.head_b.node()->grad, "dhead_b");
}

TEST(GruStepTest, MatchesFiniteDifferences) {
  Rng rng(12);
  const int64_t rows = 3, in = 2, hidden = 3;
  std::vector<Tensor> inputs = {Tensor::Randn({rows, in}, rng, 0.f, 1.f),
                                Tensor::Rand({rows, hidden}, rng, -1.f, 1.f)};
  for (int g = 0; g < 3; ++g) {
    inputs.push_back(Tensor::Rand({in, hidden}, rng, -1.f, 1.f));
    inputs.push_back(Tensor::Rand({hidden}, rng, -0.5f, 0.5f));
    inputs.push_back(Tensor::Rand({hidden, hidden}, rng, -1.f, 1.f));
  }
  ExpectGradientsMatch(std::move(inputs), [](std::vector<Var>& v) {
    GruParams p;
    for (int g = 0; g < 3; ++g) {
      p.wx[g] = v[2 + 3 * g];
      p.b[g] = v[3 + 3 * g];
      p.wh[g] = v[4 + 3 * g];
    }
    // Two steps, so dh flows through the op as well as into it.
    Var h = GruStep(v[0], GruStep(v[0], v[1], p), p);
    return SumAll(Mul(h, h));
  });
}

// --- conv -------------------------------------------------------------------

// Naive direct convolution as the reference implementation.
Tensor NaiveConv(const Tensor& x, const Tensor& w2d, int64_t out_ch,
                 int64_t k, int64_t pad) {
  const int64_t b = x.dim(0), c = x.dim(1), h = x.dim(2), wdt = x.dim(3);
  Tensor out = Tensor::Zeros({b, out_ch, h, wdt});  // stride 1, same pad
  for (int64_t bi = 0; bi < b; ++bi) {
    for (int64_t oc = 0; oc < out_ch; ++oc) {
      for (int64_t i = 0; i < h; ++i) {
        for (int64_t j = 0; j < wdt; ++j) {
          float acc = 0.f;
          for (int64_t ci = 0; ci < c; ++ci) {
            for (int64_t ki = 0; ki < k; ++ki) {
              for (int64_t kj = 0; kj < k; ++kj) {
                const int64_t ii = i - pad + ki, jj = j - pad + kj;
                if (ii < 0 || ii >= h || jj < 0 || jj >= wdt) continue;
                acc += x.at({bi, ci, ii, jj}) *
                       w2d.at({oc, (ci * k + ki) * k + kj});
              }
            }
          }
          out.at({bi, oc, i, j}) = acc;
        }
      }
    }
  }
  return out;
}

TEST(Conv2dTest, MatchesNaiveReference) {
  Rng rng(8);
  nn::Conv2d conv(2, 3, 3, rng, /*stride=*/1, /*padding=*/1,
                  /*has_bias=*/false);
  Tensor x = Tensor::Randn({2, 2, 4, 5}, rng);
  NoGradGuard no_grad;
  Var out = conv.Forward(Var::Leaf(x));
  // Extract the weight to run the reference.
  const Tensor& w = conv.Parameters()[0].value();
  Tensor ref = NaiveConv(x, w, 3, 3, 1);
  ASSERT_EQ(out.value().shape(), ref.shape());
  for (int64_t i = 0; i < ref.numel(); ++i) {
    EXPECT_NEAR(out.value().data()[i], ref.data()[i], 1e-4);
  }
}

TEST(Conv2dTest, Im2ColGradCheck) {
  Rng rng(9);
  Tensor x = Tensor::Randn({1, 2, 3, 3}, rng);
  ExpectGradientsMatch({x}, [](std::vector<Var>& v) {
    Var cols = nn::Im2Col(v[0], 2, 1, 0);
    return SumAll(Mul(cols, cols));
  });
}

TEST(Conv2dTest, OutputSpatialDims) {
  Rng rng(10);
  nn::Conv2d conv(1, 1, 3, rng, /*stride=*/2, /*padding=*/1);
  NoGradGuard no_grad;
  Var out = conv.Forward(Var::Leaf(Tensor::Ones({1, 1, 7, 7})));
  EXPECT_EQ(out.value().shape(), (Shape{1, 1, 4, 4}));
}

// --- losses -----------------------------------------------------------------

TEST(LossTest, MseKnownValue) {
  Var pred = Var::Leaf(Tensor::FromVector({2}, {1.f, 3.f}), true);
  Var target = Var::Leaf(Tensor::FromVector({2}, {0.f, 0.f}));
  EXPECT_FLOAT_EQ(nn::MseLoss(pred, target).value().data()[0], 5.f);
  EXPECT_FLOAT_EQ(nn::MaeLoss(pred, target).value().data()[0], 2.f);
}

TEST(LossTest, HuberBetweenMaeAndMse) {
  Rng rng(2);
  Tensor p = Tensor::Randn({16}, rng, 0.f, 3.f);
  Var pred = Var::Leaf(p, true);
  Var target = Var::Leaf(Tensor::Zeros({16}));
  const float huber = nn::HuberLoss(pred, target, 1.f).value().data()[0];
  const float mse = nn::MseLoss(pred, target).value().data()[0];
  EXPECT_LT(huber, mse);  // pseudo-Huber grows linearly in the tails
  EXPECT_GT(huber, 0.f);
}

TEST(LossTest, EvlUpweightsExtremes) {
  nn::EvlConfig config;
  config.high_threshold = 10.f;
  config.low_threshold = -10.f;
  config.beta = 2.f;
  config.gamma = 1.f;
  // One extreme target, one normal; identical absolute errors.
  Var pred = Var::Leaf(Tensor::FromVector({2}, {21.f, 1.f}), true);
  Var target = Var::Leaf(Tensor::FromVector({2}, {20.f, 0.f}));
  const float evl = nn::EvlLoss(pred, target, config).value().data()[0];
  // Plain MSE would be 1.0; the extreme element weight is
  // beta*(1-0.5)^-1 = 4 -> (4 + 1)/2 = 2.5.
  EXPECT_NEAR(evl, 2.5f, 1e-5);
}

TEST(LossTest, EvlReducesToWeightedMseGradients) {
  Rng rng(3);
  Tensor p = Tensor::Rand({8}, rng, 0.f, 2.f);
  nn::EvlConfig config;
  config.high_threshold = 100.f;  // nothing extreme
  config.low_threshold = -100.f;
  Var pred = Var::Leaf(p, true);
  Var target = Var::Leaf(Tensor::Zeros({8}));
  Var loss = nn::EvlLoss(pred, target, config);
  Backward(loss);
  for (int64_t i = 0; i < 8; ++i) {
    EXPECT_NEAR(pred.grad().data()[i], 2.f * p.data()[i] / 8.f, 1e-5);
  }
}

// --- optimizers -------------------------------------------------------------

// Fits y = 2x - 1 with a single Linear layer.
template <typename MakeOpt>
double FitLinearRegression(MakeOpt make_opt, int steps) {
  Rng rng(11);
  nn::Linear fc(1, 1, rng);
  auto opt = make_opt(fc.Parameters());
  Tensor x = Tensor::Rand({32, 1}, rng, -1.f, 1.f);
  Tensor y(x.shape());
  for (int64_t i = 0; i < x.numel(); ++i) {
    y.data()[i] = 2.f * x.data()[i] - 1.f;
  }
  double last = 0;
  for (int s = 0; s < steps; ++s) {
    fc.ZeroGrad();
    Var loss = nn::MseLoss(fc.Forward(Var::Leaf(x)), Var::Leaf(y));
    Backward(loss);
    opt->Step();
    last = loss.value().data()[0];
  }
  return last;
}

TEST(OptimizerTest, SgdConvergesOnLinearRegression) {
  const double loss = FitLinearRegression(
      [](std::vector<Var> p) {
        return std::make_unique<nn::Sgd>(std::move(p), 0.2f);
      },
      200);
  EXPECT_LT(loss, 1e-3);
}

TEST(OptimizerTest, SgdMomentumConvergesFaster) {
  const double plain = FitLinearRegression(
      [](std::vector<Var> p) {
        return std::make_unique<nn::Sgd>(std::move(p), 0.05f);
      },
      80);
  const double momentum = FitLinearRegression(
      [](std::vector<Var> p) {
        return std::make_unique<nn::Sgd>(std::move(p), 0.05f, 0.9f);
      },
      80);
  EXPECT_LT(momentum, plain);
}

TEST(OptimizerTest, AdamConvergesOnLinearRegression) {
  const double loss = FitLinearRegression(
      [](std::vector<Var> p) {
        return std::make_unique<nn::Adam>(std::move(p), 0.05f);
      },
      300);
  EXPECT_LT(loss, 1e-3);
}

TEST(OptimizerTest, ClipGradNormScalesDown) {
  Var p = Var::Leaf(Tensor::Zeros({2}), true);
  p.grad().CopyFrom(Tensor::FromVector({2}, {3.f, 4.f}));  // norm 5
  std::vector<Var> params{p};
  const float before = nn::ClipGradNorm(params, 1.f);
  EXPECT_FLOAT_EQ(before, 5.f);
  EXPECT_NEAR(params[0].grad().at({0}), 0.6f, 1e-5);
  EXPECT_NEAR(params[0].grad().at({1}), 0.8f, 1e-5);
  // Under the cap: untouched.
  const float again = nn::ClipGradNorm(params, 10.f);
  EXPECT_NEAR(again, 1.f, 1e-5);
  EXPECT_NEAR(params[0].grad().at({0}), 0.6f, 1e-5);
}

// --- serialization ----------------------------------------------------------

/// Every named parameter of `m`, as CaptureParams-style map entries.
std::map<std::string, Tensor> ParamMap(const nn::Module& m) {
  std::map<std::string, Tensor> out;
  for (const auto& [name, p] : m.NamedParameters()) {
    out.emplace(name, p.value());
  }
  return out;
}

TEST(SerializeTest, SaveLoadRoundTrip) {
  Rng rng(13);
  nn::GruCell a(2, 3, rng), b(2, 3, rng);
  const StateFormat format{"ealgap-test-params", 1, "test params"};
  StateFileWriter out(format);
  out.Section("params");
  nn::WriteParameters(out, a);
  auto in = StateFileReader::Parse(out.Finish(), "gru params", format);
  ASSERT_TRUE(in.ok()) << in.status().ToString();
  auto section = in->Section("params");
  ASSERT_TRUE(section.ok());
  std::map<std::string, Tensor> loaded;
  ASSERT_TRUE(nn::ReadTensorMap(*section, &loaded).ok());
  ASSERT_TRUE(nn::ApplyParameters(b, loaded, "gru params").ok());
  auto pa = a.NamedParameters();
  auto pb = b.NamedParameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t i = 0; i < pa.size(); ++i) {
    const Tensor& ta = pa[i].second.value();
    const Tensor& tb = pb[i].second.value();
    ASSERT_EQ(ta.numel(), tb.numel());
    EXPECT_EQ(std::memcmp(ta.data(), tb.data(), ta.numel() * sizeof(float)),
              0)
        << pa[i].first;
  }
}

TEST(SerializeTest, MissingParameterIsNotFound) {
  Rng rng(13);
  nn::Linear small(2, 2, rng);
  nn::GruCell big(2, 3, rng);
  EXPECT_EQ(nn::ApplyParameters(big, ParamMap(small), "small").code(),
            StatusCode::kNotFound);
}

TEST(SerializeTest, ShapeMismatchRejected) {
  Rng rng(13);
  nn::Linear a(2, 2, rng), b(2, 3, rng);
  EXPECT_EQ(nn::ApplyParameters(b, ParamMap(a), "mismatch").code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace ealgap
