// Batch-vs-streaming parity harness for serve::OnlinePredictor.
//
// The contract under test: replaying a feed through Observe()/PredictNext()
// produces predictions BIT-IDENTICAL (exact double equality, no tolerance)
// to the batch pipeline that rebuilds every sample from the full
// SlidingWindowDataset — at every step of a 200+ step replay, across
// thread counts, through a mid-stream checkpoint save/load boundary, and
// under the batched PredictMany entry point.

#include <cmath>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/ealgap.h"
#include "core/experiment.h"
#include "core/rollout.h"
#include "data/dataset.h"
#include "serve/online_predictor.h"
#include "tensor/kernels.h"
#include "tests/state_file_testing.h"

namespace ealgap {
namespace {

using serve::OnlinePredictor;

// Daily structure + AR noise (same recipe as baselines_test): enough
// signal that the fitted model produces non-trivial predictions.
data::MobilitySeries MakeTestSeries(int regions = 4, int days = 40,
                                    uint64_t seed = 3) {
  Rng rng(seed);
  data::MobilitySeries series;
  series.num_regions = regions;
  series.steps_per_day = 24;
  series.start_date = {2020, 6, 1};
  series.num_days = days;
  series.counts = Tensor::Zeros({regions, static_cast<int64_t>(days) * 24});
  for (int r = 0; r < regions; ++r) {
    double ar = 0.0;
    for (int64_t s = 0; s < days * 24; ++s) {
      const int h = static_cast<int>(s % 24);
      const double base =
          20.0 + 15.0 * std::exp(-0.5 * std::pow((h - 8.5) / 2.5, 2)) +
          18.0 * std::exp(-0.5 * std::pow((h - 17.5) / 2.5, 2));
      ar = 0.9 * ar + rng.Normal(0.0, 1.5);
      series.counts.data()[r * days * 24 + s] = static_cast<float>(
          std::max(0.0, base * (1.0 + 0.1 * r) + ar + rng.Normal(0, 1)));
    }
  }
  return series;
}

std::vector<double> StepTruth(const data::SlidingWindowDataset& dataset,
                              int64_t step) {
  const std::vector<float> row = dataset.StepCounts(step);
  return std::vector<double>(row.begin(), row.end());
}

// One fitted EALGAP shared by every test in the suite (training is the
// expensive part; each test only runs forward passes).
class ServeParityTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::DatasetOptions options;
    options.history_length = 5;
    options.num_windows = 3;
    options.norm_history = 3;
    auto ds = data::SlidingWindowDataset::Create(MakeTestSeries(), options);
    ASSERT_TRUE(ds.ok()) << ds.status().ToString();
    dataset_ = new data::SlidingWindowDataset(std::move(ds).value());
    auto split = data::MakeChronoSplit(*dataset_);
    ASSERT_TRUE(split.ok()) << split.status().ToString();
    split_ = new data::StepRanges(*split);
    model_ = new core::EalgapForecaster();
    TrainConfig train;
    train.epochs = 2;
    train.learning_rate = 3e-3f;
    train.seed = 11;
    ASSERT_TRUE(model_->Fit(*dataset_, *split_, train).ok());
  }

  static void TearDownTestSuite() {
    delete model_;
    delete split_;
    delete dataset_;
    model_ = nullptr;
    split_ = nullptr;
    dataset_ = nullptr;
  }

  static data::SlidingWindowDataset* dataset_;
  static data::StepRanges* split_;
  static core::EalgapForecaster* model_;
};

data::SlidingWindowDataset* ServeParityTest::dataset_ = nullptr;
data::StepRanges* ServeParityTest::split_ = nullptr;
core::EalgapForecaster* ServeParityTest::model_ = nullptr;

TEST_F(ServeParityTest, StreamingMatchesBatchBitExactOver200Steps) {
  auto predictor =
      OnlinePredictor::Create(model_, *dataset_, split_->test_begin);
  ASSERT_TRUE(predictor.ok()) << predictor.status().ToString();

  int64_t checked = 0;
  for (int64_t step = split_->test_begin; step < split_->test_end; ++step) {
    ASSERT_EQ(predictor->next_step(), step);
    auto streaming = predictor->PredictNext();
    ASSERT_TRUE(streaming.ok()) << streaming.status().ToString();
    auto batch = model_->Predict(*dataset_, step);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    ASSERT_EQ(streaming->size(), batch->size());
    for (size_t r = 0; r < batch->size(); ++r) {
      // Exact equality: the streaming path must reproduce the batch
      // pipeline's floating-point computation bit for bit.
      ASSERT_EQ((*streaming)[r], (*batch)[r])
          << "step " << step << " region " << r;
    }
    ASSERT_TRUE(predictor->Observe(StepTruth(*dataset_, step)).ok());
    ++checked;
  }
  EXPECT_GE(checked, 200) << "replay too short to be meaningful";
}

TEST_F(ServeParityTest, ReplayInvariantToThreadCount) {
  const int saved = GetNumThreads();
  const int64_t replay_steps = 60;
  std::vector<std::vector<double>> runs;
  for (int threads : {1, 2, 8}) {
    SetNumThreads(threads);
    auto predictor =
        OnlinePredictor::Create(model_, *dataset_, split_->test_begin);
    ASSERT_TRUE(predictor.ok());
    std::vector<double> flat;
    for (int64_t step = split_->test_begin;
         step < split_->test_begin + replay_steps; ++step) {
      auto pred = predictor->PredictNext();
      ASSERT_TRUE(pred.ok());
      flat.insert(flat.end(), pred->begin(), pred->end());
      ASSERT_TRUE(predictor->Observe(StepTruth(*dataset_, step)).ok());
    }
    runs.push_back(std::move(flat));
  }
  SetNumThreads(saved);
  ASSERT_EQ(runs.size(), 3u);
  EXPECT_EQ(runs[0], runs[1]) << "1 vs 2 threads diverged";
  EXPECT_EQ(runs[0], runs[2]) << "1 vs 8 threads diverged";
}

TEST_F(ServeParityTest, PredictManyMatchesSerialAcrossThreadCounts) {
  // Six predictors advanced to different stream positions, sharing one
  // model. PredictMany must equal serial PredictNext bit for bit, at any
  // pool size.
  const int kClients = 6;
  std::vector<OnlinePredictor> owned;
  owned.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    auto p = OnlinePredictor::Create(model_, *dataset_, split_->test_begin);
    ASSERT_TRUE(p.ok());
    owned.push_back(std::move(p).value());
    for (int64_t step = split_->test_begin; step < split_->test_begin + 3 * i;
         ++step) {
      ASSERT_TRUE(owned[i].Observe(StepTruth(*dataset_, step)).ok());
    }
  }
  std::vector<OnlinePredictor*> predictors;
  for (auto& p : owned) predictors.push_back(&p);

  std::vector<std::vector<double>> serial;
  for (auto* p : predictors) {
    auto pred = p->PredictNext();
    ASSERT_TRUE(pred.ok());
    serial.push_back(std::move(pred).value());
  }

  const int saved = GetNumThreads();
  for (int threads : {1, 2, 8}) {
    SetNumThreads(threads);
    auto many = OnlinePredictor::PredictMany(predictors);
    ASSERT_EQ(many.size(), static_cast<size_t>(kClients));
    for (int i = 0; i < kClients; ++i) {
      ASSERT_TRUE(many[i].ok()) << many[i].status().ToString();
      EXPECT_EQ(*many[i], serial[i]) << "client " << i << " at " << threads
                                     << " threads";
    }
  }
  SetNumThreads(saved);
}

TEST_F(ServeParityTest, MidStreamCheckpointPreservesBitExactness) {
  const std::string ckpt = ::testing::TempDir() + "/parity_model.ckpt";
  const std::string state = ::testing::TempDir() + "/parity_serve.state";

  auto predictor =
      OnlinePredictor::Create(model_, *dataset_, split_->test_begin);
  ASSERT_TRUE(predictor.ok());
  for (int64_t step = split_->test_begin; step < split_->test_begin + 50;
       ++step) {
    ASSERT_TRUE(predictor->Observe(StepTruth(*dataset_, step)).ok());
  }

  ASSERT_TRUE(model_->SaveCheckpoint(ckpt).ok());
  ASSERT_TRUE(predictor->SaveState(state).ok());

  auto loaded = core::LoadForecasterFromCheckpoint(ckpt);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->name(), "EALGAP");
  auto restored = OnlinePredictor::LoadState(state, loaded->get());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ASSERT_EQ(restored->next_step(), predictor->next_step());

  // Original and restored node must agree with each other AND with the
  // batch pipeline for the rest of the replay.
  for (int64_t step = predictor->next_step(); step < split_->test_end;
       ++step) {
    auto a = predictor->PredictNext();
    auto b = restored->PredictNext();
    auto batch = model_->Predict(*dataset_, step);
    ASSERT_TRUE(a.ok() && b.ok() && batch.ok());
    ASSERT_EQ(*a, *b) << "restored node diverged at step " << step;
    ASSERT_EQ(*a, *batch) << "stream diverged from batch at step " << step;
    const std::vector<double> truth = StepTruth(*dataset_, step);
    ASSERT_TRUE(predictor->Observe(truth).ok());
    ASSERT_TRUE(restored->Observe(truth).ok());
  }
}

TEST_F(ServeParityTest, RolloutMatchesRepeatedObservePredictNext) {
  const int horizon = 12;
  auto rollout = core::RolloutForecast(*model_, *dataset_, split_->test_begin,
                                       horizon);
  ASSERT_TRUE(rollout.ok()) << rollout.status().ToString();
  ASSERT_EQ(rollout->size(), static_cast<size_t>(horizon));

  auto predictor =
      OnlinePredictor::Create(model_, *dataset_, split_->test_begin);
  ASSERT_TRUE(predictor.ok());
  for (int h = 0; h < horizon; ++h) {
    auto pred = predictor->PredictNext();
    ASSERT_TRUE(pred.ok());
    EXPECT_EQ(*pred, (*rollout)[h]) << "horizon " << h;
    ASSERT_TRUE(predictor->Observe(*pred).ok());
  }
}

TEST_F(ServeParityTest, StreamingRolloutMatchesLegacyClonePath) {
  // The pre-streaming implementation: clone the dataset, write each
  // prediction back, re-predict. The incremental path must reproduce it
  // exactly.
  const int horizon = 12;
  auto streaming = core::RolloutForecast(*model_, *dataset_,
                                         split_->test_begin, horizon);
  ASSERT_TRUE(streaming.ok());

  data::SlidingWindowDataset working = dataset_->Clone();
  for (int h = 0; h < horizon; ++h) {
    const int64_t step = split_->test_begin + h;
    auto pred = model_->Predict(working, step);
    ASSERT_TRUE(pred.ok());
    EXPECT_EQ(*pred, (*streaming)[h]) << "horizon " << h;
    ASSERT_TRUE(working.OverwriteStep(step, *pred).ok());
  }
}

TEST_F(ServeParityTest, ExponentialRateTracksLiveWindow) {
  auto predictor =
      OnlinePredictor::Create(model_, *dataset_, split_->test_begin);
  ASSERT_TRUE(predictor.ok());
  for (int64_t step = split_->test_begin; step < split_->test_begin + 30;
       ++step) {
    ASSERT_TRUE(predictor->Observe(StepTruth(*dataset_, step)).ok());
    // lambda = 1 / mean over the last L observed values.
    const int64_t l = dataset_->options().history_length;
    for (int r = 0; r < predictor->num_regions(); ++r) {
      double sum = 0.0;
      for (int64_t s = step - l + 1; s <= step; ++s) {
        sum += dataset_->StepCounts(s)[r];
      }
      const double mean = std::max(sum / static_cast<double>(l), 1e-12);
      EXPECT_NEAR(predictor->ExponentialRate(r), 1.0 / mean,
                  1e-9 * (1.0 + 1.0 / mean));
    }
  }
}

// --- checkpoint / state error handling --------------------------------------

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void WriteAll(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
}

TEST_F(ServeParityTest, CorruptCheckpointsReturnErrorsNotCrashes) {
  const std::string good = ::testing::TempDir() + "/err_model.ckpt";
  ASSERT_TRUE(model_->SaveCheckpoint(good).ok());
  const std::string text = ReadAll(good);
  const std::string bad = ::testing::TempDir() + "/err_model_bad.ckpt";

  EXPECT_FALSE(core::LoadForecasterFromCheckpoint(
                   ::testing::TempDir() + "/no_such_file.ckpt")
                   .ok());

  WriteAll(bad, "hello world, not a checkpoint\n");
  EXPECT_FALSE(core::LoadForecasterFromCheckpoint(bad).ok());

  // Truncation at several depths: mid-header, mid-params, missing the end
  // marker. Every cut must be detected.
  for (double frac : {0.1, 0.5, 0.98}) {
    WriteAll(bad, text.substr(0, static_cast<size_t>(frac * text.size())));
    auto r = core::LoadForecasterFromCheckpoint(bad);
    EXPECT_FALSE(r.ok()) << "truncation at " << frac << " went undetected";
  }

  // Config/parameter shape mismatch: shrink the hidden width the config
  // advertises (a validly sealed section); the stored tensors no longer
  // fit the rebuilt network.
  WriteAll(bad, text);
  const std::string key = testing::EncodeStr("hidden");
  const std::string from = key + testing::EncodeStr("32");
  testing::RewriteSection(
      bad, kCheckpointFormat, "config", [&](std::string* config) {
        const size_t pos = config->find(from);
        ASSERT_NE(pos, std::string::npos);
        config->replace(pos, from.size(), key + testing::EncodeStr("8"));
      });
  auto shrunk = core::LoadForecasterFromCheckpoint(bad);
  ASSERT_FALSE(shrunk.ok());
  EXPECT_NE(shrunk.status().message().find("shape mismatch"),
            std::string::npos)
      << shrunk.status().ToString();

  // Wrong model name vs the loading forecaster.
  WriteAll(bad, text);
  testing::RewriteSection(bad, kCheckpointFormat, "model",
                          [](std::string* model) {
                            *model = testing::EncodeStr("ST-Norm");
                          });
  core::EalgapForecaster fresh;
  const Status renamed = fresh.LoadCheckpoint(bad);
  ASSERT_FALSE(renamed.ok());
  EXPECT_NE(renamed.message().find("holds model ST-Norm"), std::string::npos)
      << renamed.ToString();

  // The intact file still loads.
  EXPECT_TRUE(core::LoadForecasterFromCheckpoint(good).ok());
}

TEST_F(ServeParityTest, CorruptServeStateReturnsErrorsNotCrashes) {
  const std::string good = ::testing::TempDir() + "/err_serve.state";
  auto predictor =
      OnlinePredictor::Create(model_, *dataset_, split_->test_begin);
  ASSERT_TRUE(predictor.ok());
  ASSERT_TRUE(predictor->SaveState(good).ok());
  const std::string text = ReadAll(good);
  const std::string bad = ::testing::TempDir() + "/err_serve_bad.state";

  EXPECT_FALSE(OnlinePredictor::LoadState(
                   ::testing::TempDir() + "/no_such.state", model_)
                   .ok());

  WriteAll(bad, "not a serve state\n");
  EXPECT_FALSE(OnlinePredictor::LoadState(bad, model_).ok());

  for (double frac : {0.1, 0.5, 0.98}) {
    WriteAll(bad, text.substr(0, static_cast<size_t>(frac * text.size())));
    EXPECT_FALSE(OnlinePredictor::LoadState(bad, model_).ok())
        << "truncation at " << frac << " went undetected";
  }

  // Wrong model name.
  WriteAll(bad, text);
  testing::RewriteSection(bad, serve::kServeStateFormat, "model",
                          [](std::string* model) {
                            *model = testing::EncodeStr("GRU");
                          });
  auto renamed = OnlinePredictor::LoadState(bad, model_);
  ASSERT_FALSE(renamed.ok());
  EXPECT_NE(renamed.status().message().find("holds model GRU"),
            std::string::npos)
      << renamed.status().ToString();

  EXPECT_TRUE(OnlinePredictor::LoadState(good, model_).ok());
}

TEST_F(ServeParityTest, CreateRejectsBadArgumentsAndModels) {
  EXPECT_FALSE(OnlinePredictor::Create(nullptr, *dataset_, split_->test_begin)
                   .ok());
  // Too little history for the first prediction's windows.
  EXPECT_FALSE(OnlinePredictor::Create(model_, *dataset_,
                                       dataset_->MinTargetStep() - 1)
                   .ok());
  // Beyond the series.
  EXPECT_FALSE(OnlinePredictor::Create(model_, *dataset_,
                                       dataset_->series().total_steps() + 1)
                   .ok());
  // Wrong-width observation.
  auto p = OnlinePredictor::Create(model_, *dataset_, split_->test_begin);
  ASSERT_TRUE(p.ok());
  EXPECT_FALSE(p->Observe({1.0}).ok());
}


// --- fused serve pass vs graph path -----------------------------------------
//
// EalgapForecaster::PredictSampleInto serves through one fused pass per
// block of regions (KernelTable::ealgap_serve_rows); Predict() stays on the
// graph path. They must agree bit for bit at region counts around the
// 1/4/8-lane block widths, under every backend and thread count, on normal
// and event-day windows, and right after the parameters change in place.

constexpr int kEventDays = 30;
constexpr int kSurgeDay = 22;     // every region at 4x its usual demand
constexpr int kSilentFrom = 18;   // region 0 reads exactly 0 from this day
constexpr int kSilentUntil = 26;  // ... up to this one (exclusive)

// MakeTestSeries plus two kinds of event day: a citywide surge, and a run
// of exact-zero days in region 0 whose matched statistics reach sigma = 0.
data::MobilitySeries MakeEventSeries(int regions) {
  data::MobilitySeries series = MakeTestSeries(regions, kEventDays, 5);
  const int64_t steps = series.counts.dim(1);
  float* p = series.counts.data();
  for (int r = 0; r < regions; ++r) {
    for (int64_t s = kSurgeDay * 24; s < (kSurgeDay + 1) * 24; ++s) {
      p[r * steps + s] *= 4.f;
    }
  }
  for (int64_t s = kSilentFrom * 24; s < kSilentUntil * 24; ++s) p[s] = 0.f;
  return series;
}

struct FusedCase {
  data::SlidingWindowDataset dataset;
  data::StepRanges split;
  std::unique_ptr<core::EalgapForecaster> model;
};

class FusedServeParityTest : public ::testing::Test {
 protected:
  /// A trained EALGAP per region count, built on first use and shared.
  static FusedCase& Case(int regions) {
    static std::map<int, std::unique_ptr<FusedCase>> cases;
    std::unique_ptr<FusedCase>& c = cases[regions];
    if (c == nullptr) {
      data::DatasetOptions options;
      options.history_length = 5;
      options.num_windows = 3;
      options.norm_history = 3;
      auto ds = data::SlidingWindowDataset::Create(MakeEventSeries(regions),
                                                   options);
      EALGAP_CHECK(ds.ok()) << ds.status().ToString();
      auto split = data::MakeChronoSplit(*ds);
      EALGAP_CHECK(split.ok()) << split.status().ToString();
      c = std::make_unique<FusedCase>(
          FusedCase{std::move(ds).value(), *split,
                    std::make_unique<core::EalgapForecaster>()});
      TrainConfig train;
      train.epochs = 1;
      train.learning_rate = 3e-3f;
      train.seed = 17;
      EALGAP_CHECK(c->model->Fit(c->dataset, c->split, train).ok());
    }
    return *c;
  }

  /// Normal test-range steps plus steps on and after both event days.
  static std::vector<int64_t> Steps(const FusedCase& c) {
    return {c.split.test_begin,
            c.split.test_begin + 7,
            kSurgeDay * 24 + 9,
            kSurgeDay * 24 + 18,
            (kSurgeDay + 1) * 24 + 2,
            kSilentUntil * 24 - 3,
            kSilentUntil * 24 + 4,
            c.dataset.series().total_steps() - 1};
  }

  static std::vector<double> Fused(core::EalgapForecaster& model,
                                   const data::SlidingWindowDataset& dataset,
                                   int64_t step) {
    std::vector<double> out;
    EXPECT_TRUE(model.PredictSampleInto(dataset.MakeSample(step), &out).ok());
    return out;
  }

  static std::vector<double> Graph(core::EalgapForecaster& model,
                                   const data::SlidingWindowDataset& dataset,
                                   int64_t step) {
    auto out = model.Predict(dataset, step);
    EXPECT_TRUE(out.ok()) << out.status().ToString();
    return out.ok() ? *out : std::vector<double>{};
  }
};

// Bit equality of doubles that may be +-0 or huge: compare bit patterns.
bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST_F(FusedServeParityTest,
       MatchesGraphAtEveryBlockShapeBackendAndThreadCount) {
  const kernels::Backend saved_backend = kernels::ActiveBackend();
  const int saved_threads = GetNumThreads();
  for (int regions : {1, 3, 4, 7, 8, 9, 15, 16, 17, 20, 24, 25, 1000}) {
    FusedCase& c = Case(regions);
    for (int64_t step : Steps(c)) {
      std::vector<double> first;
      for (kernels::Backend b :
           {kernels::Backend::kScalar, kernels::Backend::kSse2,
            kernels::Backend::kAvx2, kernels::Backend::kAvx512}) {
        if (!kernels::BackendSupported(b)) continue;
        kernels::SetBackendForTesting(b);
        for (int threads : {1, 4}) {
          SetNumThreads(threads);
          const std::vector<double> fused = Fused(*c.model, c.dataset, step);
          const std::vector<double> graph = Graph(*c.model, c.dataset, step);
          ASSERT_EQ(fused.size(), static_cast<size_t>(regions));
          ASSERT_TRUE(SameBits(fused, graph))
              << "N=" << regions << " step " << step << " backend "
              << kernels::BackendName(b) << " threads " << threads;
          if (first.empty()) first = fused;
          ASSERT_TRUE(SameBits(fused, first))
              << "N=" << regions << " step " << step << " backend "
              << kernels::BackendName(b) << " threads " << threads
              << " differs from the first backend";
        }
      }
    }
  }
  kernels::SetBackendForTesting(saved_backend);
  SetNumThreads(saved_threads);
}

TEST_F(FusedServeParityTest, MatchesGraphAtNonDefaultWidths) {
  // L, FC and GRU widths other than 5/32/16 take the kernel's runtime-size
  // instantiation.
  data::DatasetOptions options;
  options.history_length = 7;
  options.num_windows = 2;
  options.norm_history = 3;
  auto ds = data::SlidingWindowDataset::Create(MakeEventSeries(11), options);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  auto split = data::MakeChronoSplit(*ds);
  ASSERT_TRUE(split.ok());
  core::EalgapOptions widths;
  widths.hidden = 6;
  widths.gru_hidden = 5;
  core::EalgapForecaster model(widths);
  TrainConfig train;
  train.epochs = 1;
  train.learning_rate = 3e-3f;
  train.seed = 19;
  ASSERT_TRUE(model.Fit(*ds, *split, train).ok());
  for (int64_t step = split->test_begin; step < split->test_end; step += 5) {
    ASSERT_TRUE(SameBits(Fused(model, *ds, step), Graph(model, *ds, step)))
        << "step " << step;
  }
}

TEST_F(FusedServeParityTest, FixtureReachesBiasesAndExtremeWindows) {
  // The parity sweep means something only if every bias add adds a
  // non-zero value, and the event days put the pass where it matters: a
  // surge far from the matched mean, and sigma = 0 where only the epsilon
  // floor keeps Eq. 9 finite.
  FusedCase& c = Case(20);
  auto params = c.model->CaptureParams();
  ASSERT_TRUE(params.ok());
  int biases = 0;
  for (const auto& [name, value] : *params) {
    if (name.size() < 5 || name.substr(name.size() - 5) != ".bias") continue;
    ++biases;
    bool nonzero = false;
    for (int64_t i = 0; i < value.numel(); ++i) {
      nonzero = nonzero || value.data()[i] != 0.f;
    }
    EXPECT_TRUE(nonzero) << name << " is all zero";
  }
  EXPECT_EQ(biases, 10);  // dec1..3, pred1..3, the three gates, the head
  const data::WindowSample surge = c.dataset.MakeSample(kSurgeDay * 24 + 18);
  const data::WindowSample silent = c.dataset.MakeSample(kSilentUntil * 24 - 3);
  bool zero_sigma = false;
  for (int64_t i = 0; i < silent.f_sigma.numel(); ++i) {
    zero_sigma = zero_sigma || silent.f_sigma.data()[i] == 0.f;
  }
  EXPECT_TRUE(zero_sigma);
  double surge_sum = 0.0, base_sum = 0.0;
  const data::WindowSample base = c.dataset.MakeSample(c.split.test_begin);
  for (int64_t i = 0; i < surge.x.numel(); ++i) {
    surge_sum += surge.x.data()[i];
    base_sum += base.x.data()[i];
  }
  EXPECT_GT(surge_sum, 2.0 * base_sum);
  for (const data::WindowSample* s : {&surge, &silent}) {
    std::vector<double> out;
    ASSERT_TRUE(c.model->PredictSampleInto(*s, &out).ok());
    for (double v : out) EXPECT_TRUE(std::isfinite(v));
  }
}

TEST_F(FusedServeParityTest, ReadsLiveWeightsAfterInPlaceChanges) {
  FusedCase& c = Case(20);
  const std::string ckpt = ::testing::TempDir() + "/fused_parity.ckpt";
  ASSERT_TRUE(c.model->SaveCheckpoint(ckpt).ok());
  core::EalgapForecaster model;
  ASSERT_TRUE(model.LoadCheckpoint(ckpt).ok());
  const int64_t step = kSurgeDay * 24 + 18;
  const std::vector<double> before = Fused(model, c.dataset, step);
  ASSERT_TRUE(SameBits(before, Graph(*c.model, c.dataset, step)));

  // An adaptation commit: a bounded SGD fine-tune writes every parameter
  // in place.
  std::vector<data::WindowSample> samples;
  for (int64_t s = c.split.test_begin; s < c.split.test_begin + 8; ++s) {
    samples.push_back(c.dataset.MakeSample(s));
  }
  NeuralForecaster::MicroFitConfig fit;
  fit.learning_rate = 5e-2f;
  ASSERT_TRUE(model.MicroFit(samples, fit).ok());
  const std::vector<double> adapted = Fused(model, c.dataset, step);
  EXPECT_FALSE(SameBits(adapted, before)) << "fine-tune left outputs unchanged";
  EXPECT_TRUE(SameBits(adapted, Graph(model, c.dataset, step)));

  // A RestoreParams rollback, then a LoadCheckpoint over the live model.
  auto snapshot = model.CaptureParams();
  ASSERT_TRUE(snapshot.ok());
  ASSERT_TRUE(model.MicroFit(samples, fit).ok());
  ASSERT_TRUE(model.RestoreParams(*snapshot).ok());
  EXPECT_TRUE(SameBits(Fused(model, c.dataset, step), adapted));
  ASSERT_TRUE(model.LoadCheckpoint(ckpt).ok());
  EXPECT_TRUE(SameBits(Fused(model, c.dataset, step), before));
  EXPECT_TRUE(SameBits(Graph(model, c.dataset, step), before));
}

}  // namespace
}  // namespace ealgap
