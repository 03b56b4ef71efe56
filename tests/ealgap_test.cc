#include <cmath>
#include <cstring>
#include <map>
#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/historical_average.h"
#include "common/rng.h"
#include "core/ealgap.h"
#include "core/extreme_degree.h"
#include "core/global_impact.h"
#include "data/dataset.h"
#include "nn/loss.h"
#include "tensor/ops.h"
#include "stats/metrics.h"
#include "tests/gradcheck.h"

namespace ealgap {
namespace core {
namespace {

// --- GlobalImpactModule -----------------------------------------------------

TEST(GlobalImpactTest, OutputShapes) {
  Rng rng(1);
  GlobalImpactModule module(7, 5, 16, rng);
  Var x = Var::Leaf(Tensor::Rand({7, 5}, rng, 0.f, 3.f));
  auto out = module.Forward(x);
  EXPECT_EQ(out.xg_history.value().shape(), (Shape{7, 5}));
  EXPECT_EQ(out.xg_next.value().shape(), (Shape{7}));
}

TEST(GlobalImpactTest, GradientsReachAllParameters) {
  Rng rng(2);
  GlobalImpactModule module(3, 4, 8, rng);
  Var x = Var::Leaf(Tensor::Rand({3, 4}, rng, 0.5f, 2.f));
  module.ZeroGrad();
  Backward(SumAll(module.Forward(x).xg_next));
  int with_grad = 0, total = 0;
  for (Var& p : module.Parameters()) {
    ++total;
    double s = 0;
    for (int64_t i = 0; i < p.grad().numel(); ++i) {
      s += std::fabs(p.grad().data()[i]);
    }
    if (s > 0) ++with_grad;
  }
  // All six FC layers (weight+bias each) should receive gradient.
  EXPECT_EQ(total, 12);
  EXPECT_GE(with_grad, 10);  // ReLU may zero out an unlucky bias
}

TEST(GlobalImpactTest, NormalFamilyAblationRuns) {
  Rng rng(3);
  GlobalImpactModule module(3, 4, 8, rng, stats::DistributionFamily::kNormal);
  Var x = Var::Leaf(Tensor::Rand({3, 4}, rng, 0.f, 3.f));
  auto out = module.Forward(x);
  EXPECT_TRUE(std::isfinite(out.xg_next.value().data()[0]));
}

// --- ExtremeDegreeModule ----------------------------------------------------

TEST(ExtremeDegreeTest, DegreesBoundedAndCentered) {
  Rng rng(4);
  ExtremeDegreeModule module(5, 4, 6, rng);
  Var x = Var::Leaf(Tensor::Rand({5, 4}, rng, 10.f, 20.f));
  Var mu = Var::Leaf(Tensor::Full({5, 4}, 15.f));
  Var sigma = Var::Leaf(Tensor::Full({5, 4}, 3.f));
  Var d = module.ExtremeDegree(x, mu, sigma);
  for (int64_t i = 0; i < d.value().numel(); ++i) {
    EXPECT_GE(d.value().data()[i], -1.f);
    EXPECT_LE(d.value().data()[i], 1.f);
  }
  // x == mu -> degree 0.
  Var d0 = module.ExtremeDegree(mu, mu, sigma);
  for (int64_t i = 0; i < d0.value().numel(); ++i) {
    EXPECT_NEAR(d0.value().data()[i], 0.f, 1e-6);
  }
}

TEST(ExtremeDegreeTest, ScaleInvariance) {
  // D computed from (x, mu, sigma) equals D from (cx, c*mu, c*sigma):
  // the normalization that makes EALGAP's internal rescaling sound.
  Rng rng(5);
  ExtremeDegreeModule module(3, 4, 6, rng);
  Tensor x = Tensor::Rand({3, 4}, rng, 5.f, 50.f);
  Tensor mu = Tensor::Rand({3, 4}, rng, 5.f, 50.f);
  Tensor sigma = Tensor::Rand({3, 4}, rng, 2.f, 8.f);
  Var d1 = module.ExtremeDegree(Var::Leaf(x), Var::Leaf(mu), Var::Leaf(sigma));
  const float c = 37.f;
  Var d2 = module.ExtremeDegree(Var::Leaf(ops::MulScalar(x, c)),
                                Var::Leaf(ops::MulScalar(mu, c)),
                                Var::Leaf(ops::MulScalar(sigma, c)));
  for (int64_t i = 0; i < d1.value().numel(); ++i) {
    // Not exactly equal: the |eps| floor does not scale. Tolerate a small
    // difference on large-sigma entries.
    EXPECT_NEAR(d1.value().data()[i], d2.value().data()[i], 5e-3);
  }
}

TEST(ExtremeDegreeTest, SurgeGivesPositiveDropGivesNegative) {
  Rng rng(6);
  ExtremeDegreeModule module(2, 3, 4, rng);
  Tensor mu = Tensor::Full({2, 3}, 10.f);
  Tensor sigma = Tensor::Full({2, 3}, 2.f);
  Tensor surge = Tensor::Full({2, 3}, 18.f);
  Tensor drop = Tensor::Full({2, 3}, 2.f);
  Var ds = module.ExtremeDegree(Var::Leaf(surge), Var::Leaf(mu),
                                Var::Leaf(sigma));
  Var dd = module.ExtremeDegree(Var::Leaf(drop), Var::Leaf(mu),
                                Var::Leaf(sigma));
  for (int64_t i = 0; i < 6; ++i) {
    EXPECT_GT(ds.value().data()[i], 0.5f);
    EXPECT_LT(dd.value().data()[i], -0.5f);
  }
}

TEST(ExtremeDegreeTest, ForwardShapesAndWindowCount) {
  Rng rng(7);
  const int64_t m = 3, n = 4, l = 5;
  ExtremeDegreeModule module(n, l, 6, rng);
  Var f = Var::Leaf(Tensor::Rand({m, n, l}, rng, 0.f, 10.f));
  Var mu = Var::Leaf(Tensor::Full({m, n, l}, 5.f));
  Var sigma = Var::Leaf(Tensor::Full({m, n, l}, 2.f));
  auto out = module.Forward(f, mu, sigma);
  EXPECT_EQ(out.d_next.value().shape(), (Shape{n}));
  EXPECT_EQ(out.d_steps.size(), static_cast<size_t>(m));
  for (const Var& d : out.d_steps) {
    EXPECT_EQ(d.value().shape(), (Shape{n}));
  }
  for (int64_t i = 0; i < n; ++i) {
    EXPECT_GE(out.d_next.value().data()[i], -1.f);
    EXPECT_LE(out.d_next.value().data()[i], 1.f);
  }
}

TEST(ExtremeDegreeTest, ParameterGradientsMatchFiniteDifferences) {
  // Finite-difference check over every learnable parameter of the module —
  // in particular the per-region instance-norm scale gamma and the learned
  // sqrt-floor epsilon of Eq. (9), which no other gradcheck covers — plus
  // the GRU gates and prediction head behind them.
  Rng rng(11);
  const int64_t m = 2, n = 3, l = 4;
  ExtremeDegreeModule module(n, l, 5, rng);
  Tensor f = Tensor::Rand({m, n, l}, rng, 0.5f, 4.f);
  Tensor mu = Tensor::Rand({m, n, l}, rng, 1.f, 3.f);
  Tensor sigma = Tensor::Rand({m, n, l}, rng, 0.5f, 1.5f);
  testing::ExpectParameterGradientsMatch(module, [&]() {
    auto out = module.Forward(Var::Leaf(f.Clone()), Var::Leaf(mu.Clone()),
                              Var::Leaf(sigma.Clone()));
    Var total = SumAll(out.d_next);
    for (const Var& d : out.d_steps) total = Add(total, SumAll(d));
    return total;
  });
}

// --- end-to-end EALGAP -------------------------------------------------------

data::MobilitySeries MakeSeries(int regions, int days, uint64_t seed) {
  Rng rng(seed);
  data::MobilitySeries series;
  series.num_regions = regions;
  series.steps_per_day = 24;
  series.start_date = {2020, 6, 1};
  series.num_days = days;
  series.counts = Tensor::Zeros({regions, static_cast<int64_t>(days) * 24});
  for (int r = 0; r < regions; ++r) {
    double ar = 0;
    for (int64_t s = 0; s < days * 24; ++s) {
      const int h = static_cast<int>(s % 24);
      const double base =
          15.0 + 12.0 * std::exp(-0.5 * std::pow((h - 8.0) / 2.5, 2)) +
          14.0 * std::exp(-0.5 * std::pow((h - 18.0) / 2.5, 2));
      ar = 0.9 * ar + rng.Normal(0, 1.0);
      series.counts.data()[r * days * 24 + s] =
          static_cast<float>(std::max(0.0, base + ar + rng.Normal(0, 1)));
    }
  }
  return series;
}

struct Env {
  data::SlidingWindowDataset dataset;
  data::StepRanges split;
};

Env MakeEnv(uint64_t seed = 8) {
  data::DatasetOptions options;
  options.history_length = 5;
  options.num_windows = 3;
  options.norm_history = 3;
  auto ds = data::SlidingWindowDataset::Create(MakeSeries(4, 40, seed),
                                               options);
  EXPECT_TRUE(ds.ok());
  auto split = data::MakeChronoSplit(*ds);
  EXPECT_TRUE(split.ok());
  return {std::move(ds).value(), *split};
}

// The serve entry point (PredictSampleInto: the fused pass for the full
// J = 1 model, the graph path otherwise) equals Predict bit for bit.
void ExpectServeMatchesPredict(EalgapForecaster& model, const Env& env) {
  for (int64_t step = env.split.test_begin; step < env.split.test_end;
       step += 7) {
    auto graph = model.Predict(env.dataset, step);
    ASSERT_TRUE(graph.ok()) << graph.status().ToString();
    std::vector<double> served;
    ASSERT_TRUE(
        model.PredictSampleInto(env.dataset.MakeSample(step), &served).ok());
    ASSERT_EQ(served, *graph) << "step " << step;
  }
}

class EalgapVariantTest : public ::testing::TestWithParam<EalgapOptions> {};

TEST_P(EalgapVariantTest, TrainsAndPredictsSanely) {
  Env env = MakeEnv();
  EalgapForecaster model(GetParam());
  TrainConfig train;
  train.epochs = 5;
  train.learning_rate = 3e-3f;
  train.seed = 13;
  ASSERT_TRUE(model.Fit(env.dataset, env.split, train).ok());
  std::vector<double> pred, truth;
  ASSERT_TRUE(model
                  .PredictRange(env.dataset, env.split.test_begin,
                                env.split.test_end, &pred, &truth)
                  .ok());
  for (double p : pred) {
    EXPECT_GE(p, 0.0);
    EXPECT_TRUE(std::isfinite(p));
  }
  EXPECT_LT(stats::ErrorRate(pred, truth), 0.5);
  ExpectServeMatchesPredict(model, env);
}

TEST(EalgapTest, AttentionDimTwoServesLikePredict) {
  // J > 1 keeps the graph path for serving too.
  Env env = MakeEnv();
  EalgapOptions options;
  options.attention_dim = 2;
  EalgapForecaster model(options);
  TrainConfig train;
  train.epochs = 2;
  train.learning_rate = 3e-3f;
  train.seed = 13;
  ASSERT_TRUE(model.Fit(env.dataset, env.split, train).ok());
  ExpectServeMatchesPredict(model, env);
}

EalgapOptions Full() { return {}; }
EalgapOptions GlobalOnly() {
  EalgapOptions o;
  o.use_extreme = false;
  return o;
}
EalgapOptions ExtremeOnly() {
  EalgapOptions o;
  o.use_global_attention = false;
  return o;
}
EalgapOptions MlpOnly() {
  // Neither module: the MLP global path with the ReLU output.
  EalgapOptions o;
  o.use_global_attention = false;
  o.use_extreme = false;
  return o;
}
EalgapOptions NormalFamily() {
  EalgapOptions o;
  o.family = stats::DistributionFamily::kNormal;
  return o;
}

INSTANTIATE_TEST_SUITE_P(Variants, EalgapVariantTest,
                         ::testing::Values(Full(), GlobalOnly(), ExtremeOnly(),
                                           NormalFamily(), MlpOnly()));

TEST(EalgapTest, BeatsHistoricalAverageOnTurbulentSeries) {
  // A series whose AR(1) turbulence dominates the daily cycle: the
  // historical same-hour average cannot see it, recent history can.
  Rng rng(21);
  data::MobilitySeries series;
  series.num_regions = 4;
  series.steps_per_day = 24;
  series.start_date = {2020, 6, 1};
  series.num_days = 40;
  series.counts = Tensor::Zeros({4, 40 * 24});
  for (int r = 0; r < 4; ++r) {
    double ar = 0;
    for (int64_t s = 0; s < 40 * 24; ++s) {
      const int h = static_cast<int>(s % 24);
      const double base =
          30.0 + 10.0 * std::exp(-0.5 * std::pow((h - 12.0) / 4.0, 2));
      ar = 0.95 * ar + rng.Normal(0, 4.0);
      series.counts.data()[r * 40 * 24 + s] =
          static_cast<float>(std::max(0.0, base + ar));
    }
  }
  data::DatasetOptions d_options;
  d_options.history_length = 5;
  d_options.num_windows = 3;
  auto ds = data::SlidingWindowDataset::Create(std::move(series), d_options);
  ASSERT_TRUE(ds.ok());
  auto split_r = data::MakeChronoSplit(*ds);
  ASSERT_TRUE(split_r.ok());
  Env env{std::move(ds).value(), *split_r};
  EalgapForecaster ealgap;
  TrainConfig train;
  train.epochs = 12;
  train.learning_rate = 3e-3f;
  train.seed = 5;
  ASSERT_TRUE(ealgap.Fit(env.dataset, env.split, train).ok());
  HistoricalAverageForecaster ha;
  ASSERT_TRUE(ha.Fit(env.dataset, env.split, train).ok());
  auto er = [&](Forecaster& m) {
    std::vector<double> pred, truth;
    EXPECT_TRUE(m.PredictRange(env.dataset, env.split.test_begin,
                               env.split.test_end, &pred, &truth)
                    .ok());
    return stats::ErrorRate(pred, truth);
  };
  // The AR(1) turbulence is unpredictable from the daily average alone, so
  // EALGAP's local modeling must come out ahead.
  EXPECT_LT(er(ealgap), er(ha));
}

TEST(EalgapTest, FitRejectsBatchSizeBelowOne) {
  Env env = MakeEnv();
  for (int bs : {0, -1}) {
    EalgapForecaster model;
    TrainConfig train;
    train.epochs = 1;
    train.batch_size = bs;
    Status st = model.Fit(env.dataset, env.split, train);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << bs;
    EXPECT_NE(st.message().find("batch_size"), std::string::npos) << bs;
    // Rejected before Initialize: the model is still unfitted.
    EXPECT_FALSE(model.Predict(env.dataset, env.split.test_begin).ok()) << bs;
  }
}

// --- the stacked training forward -------------------------------------------

/// Opens the protected training hooks to the batch tests.
class BatchProbe : public EalgapForecaster {
 public:
  using EalgapForecaster::EalgapForecaster;
  using EalgapForecaster::ComputeLoss;
  using EalgapForecaster::ForwardBatch;
  using EalgapForecaster::module;
  using EalgapForecaster::ScaleTargets;
};

Tensor StackedTargets(const std::vector<data::WindowSample>& batch) {
  std::vector<Tensor> rows;
  for (const data::WindowSample& s : batch) {
    rows.push_back(s.target.Reshape({1, s.target.numel()}));
  }
  return ops::Concat(rows, 0);
}

/// The loss ForwardBatch + ComputeLoss give for the whole batch.
Var BatchedLoss(BatchProbe& model,
                const std::vector<data::WindowSample>& batch, Var* pred) {
  *pred = model.ForwardBatch(batch);
  return model.ComputeLoss(*pred, model.ScaleTargets(StackedTargets(batch)));
}

/// The same loss built from B one-sample ForwardBatch calls: the MSE of the
/// concatenated predictions, plus the weighted mean of the samples' Eq. (10)
/// degree losses. A one-sample degree loss is read back through
/// ComputeLoss against the prediction's own values, whose MSE term is
/// exactly 0, so `degree_loss_weight` must be 1 when it is on.
Var SingletonLoss(BatchProbe& model,
                  const std::vector<data::WindowSample>& batch, Var* pred) {
  const float w = model.options().degree_loss_weight;
  EXPECT_TRUE(w == 0.f || w == 1.f) << "degree_loss_weight " << w;
  std::vector<Var> preds, degrees;
  for (const data::WindowSample& s : batch) {
    preds.push_back(model.ForwardBatch({s}));
    if (w > 0.f) {
      degrees.push_back(model.ComputeLoss(preds.back(), preds.back().value()));
    }
  }
  *pred = Concat(preds, 0);
  Var loss = nn::MseLoss(
      *pred, Var::Leaf(model.ScaleTargets(StackedTargets(batch))));
  if (w > 0.f) loss = Add(loss, MulScalar(MeanAll(Concat(degrees, 0)), w));
  return loss;
}

std::map<std::string, Tensor> Gradients(BatchProbe& model, const Var& loss) {
  model.module()->ZeroGrad();
  Backward(loss);
  std::map<std::string, Tensor> out;
  for (auto& [name, p] : model.module()->NamedParameters()) {
    out.emplace(name, p.grad().Clone());
  }
  return out;
}

bool BitEqual(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

struct BatchCase {
  const char* name;
  EalgapOptions options;
};

void PrintTo(const BatchCase& c, std::ostream* os) { *os << c.name; }

class BatchParityTest
    : public ::testing::TestWithParam<std::tuple<BatchCase, int>> {};

TEST_P(BatchParityTest, StackedBatchEqualsConcatenatedSingletons) {
  const BatchCase& c = std::get<0>(GetParam());
  const int b = std::get<1>(GetParam());
  Env env = MakeEnv();
  BatchProbe model(c.options);
  TrainConfig train;
  train.epochs = 1;
  train.learning_rate = 3e-3f;
  train.seed = 13;
  ASSERT_TRUE(model.Fit(env.dataset, env.split, train).ok());
  std::vector<data::WindowSample> batch;
  const auto steps =
      env.dataset.TargetSteps(env.split.train_begin, env.split.train_end);
  ASSERT_GE(steps.size(), static_cast<size_t>(b));
  for (int i = 0; i < b; ++i) {
    batch.push_back(env.dataset.MakeSample(steps[i * 5 % steps.size()]));
  }

  Var batched_pred, single_pred;
  const Var batched = BatchedLoss(model, batch, &batched_pred);
  const Var single = SingletonLoss(model, batch, &single_pred);
  ASSERT_TRUE(BitEqual(batched_pred.value(), single_pred.value()));
  ASSERT_TRUE(BitEqual(batched.value(), single.value()))
      << batched.value().data()[0] << " vs " << single.value().data()[0];
  // No-grad forwards (evaluation, Predict) give the same bits.
  {
    NoGradGuard no_grad;
    ASSERT_TRUE(BitEqual(model.ForwardBatch(batch).value(),
                         batched_pred.value()));
  }

  // Only the summation order of the parameter gradients differs.
  const auto want = Gradients(model, single);
  const auto got = Gradients(model, batched);
  for (const auto& [name, g] : want) {
    const Tensor& h = got.at(name);
    ASSERT_EQ(h.shape(), g.shape()) << name;
    float max_abs = 0.f, max_diff = 0.f;
    for (int64_t i = 0; i < g.numel(); ++i) {
      max_abs = std::max(max_abs, std::fabs(g.data()[i]));
      max_diff = std::max(max_diff, std::fabs(g.data()[i] - h.data()[i]));
    }
    EXPECT_LE(max_diff, 1e-5f * max_abs) << name << " max-abs " << max_abs;
  }
}

EalgapOptions AttentionDimTwo() {
  EalgapOptions o;
  o.attention_dim = 2;
  return o;
}
EalgapOptions DegreeLoss() {
  EalgapOptions o;
  o.degree_loss_weight = 1.f;  // see SingletonLoss
  return o;
}

INSTANTIATE_TEST_SUITE_P(
    Variants, BatchParityTest,
    ::testing::Combine(
        ::testing::Values(BatchCase{"full", Full()},
                          BatchCase{"global_only", GlobalOnly()},
                          BatchCase{"extreme_only", ExtremeOnly()},
                          BatchCase{"normal", NormalFamily()},
                          BatchCase{"j2", AttentionDimTwo()},
                          BatchCase{"degree_loss", DegreeLoss()}),
        ::testing::Values(1, 3, 16)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param).name) + "_b" +
             std::to_string(std::get<1>(info.param));
    });

class WholeModelGradTest
    : public ::testing::TestWithParam<std::tuple<int64_t, float>> {};

TEST_P(WholeModelGradTest, BatchedLossMatchesFiniteDifferences) {
  // Every parameter of the full model, through the stacked forward and the
  // batched loss (the Eq. 10 degree term on or off): B = 2, N = 3, L = 5,
  // M = 3.
  const int64_t j = std::get<0>(GetParam());
  const float degree_weight = std::get<1>(GetParam());
  data::DatasetOptions options;
  options.history_length = 5;
  options.num_windows = 3;
  options.norm_history = 3;
  auto ds = data::SlidingWindowDataset::Create(MakeSeries(3, 30, 31), options);
  ASSERT_TRUE(ds.ok());
  auto split = data::MakeChronoSplit(*ds);
  ASSERT_TRUE(split.ok());
  EalgapOptions model_options;
  model_options.hidden = 8;
  model_options.gru_hidden = 4;
  model_options.attention_dim = j;
  model_options.degree_loss_weight = degree_weight;
  BatchProbe model(model_options);
  TrainConfig train;
  train.epochs = 0;  // initialized weights; sets the input scale
  train.seed = 17;
  ASSERT_TRUE(model.Fit(*ds, *split, train).ok());
  const auto steps = ds->TargetSteps(split->train_begin, split->train_end);
  const std::vector<data::WindowSample> batch = {ds->MakeSample(steps[3]),
                                                 ds->MakeSample(steps[40])};
  // The Eq. (10) target is the realized degree under the current gamma and
  // eps, held constant: finite differences see its dependence on them, the
  // gradient by design does not. With the degree term on they are checked
  // only through the other terms, i.e. in the degree-off cases.
  auto skip = [degree_weight](const std::string& name) {
    return degree_weight > 0.f &&
           (name == "extreme.gamma" || name == "extreme.epsilon");
  };
  testing::ExpectParameterGradientsMatch(
      *model.module(),
      [&]() {
        Var pred;
        return BatchedLoss(model, batch, &pred);
      },
      1e-3f, 2e-2f, skip);
}

INSTANTIATE_TEST_SUITE_P(AttentionDimAndDegreeLoss, WholeModelGradTest,
                         ::testing::Combine(::testing::Values(1, 2),
                                            ::testing::Values(0.f, 0.5f)));

TEST(EalgapTest, SaveLoadPreservesPredictions) {
  Env env = MakeEnv(22);
  EalgapForecaster model;
  TrainConfig train;
  train.epochs = 2;
  train.seed = 3;
  ASSERT_TRUE(model.Fit(env.dataset, env.split, train).ok());
  auto before = model.Predict(env.dataset, env.split.test_begin);
  ASSERT_TRUE(before.ok());
  auto again = model.Predict(env.dataset, env.split.test_begin);
  ASSERT_TRUE(again.ok());
  for (size_t i = 0; i < before->size(); ++i) {
    EXPECT_DOUBLE_EQ((*before)[i], (*again)[i]);  // inference is pure
  }
}

}  // namespace
}  // namespace core
}  // namespace ealgap
