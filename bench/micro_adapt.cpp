// google-benchmark microbenchmarks of the test-time adaptation layer
// (DESIGN.md §8h): the per-step tracking overhead the AdaptivePredictor
// adds to a serve step (observation backfill, EWMA/CUSUM detector, ring
// clone, A/B scoring), the cost of one full adaptation attempt (snapshot,
// micro-fine-tune, holdout validation, commit-or-rollback), and the
// adapt.state checkpoint round trip. The float baseline runs in the same
// process so BENCH_adapt.json carries the overhead ratio, not just the
// absolute numbers.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.h"
#include "core/ealgap.h"
#include "data/dataset.h"
#include "data/synthetic_city.h"
#include "serve/adaptive_predictor.h"
#include "serve/online_predictor.h"

namespace {

using namespace ealgap;

/// One fitted model + dataset per region count, shared across iterations.
/// Fit runs with epochs=0 (initialized, never trained): weight VALUES do
/// not change the serve-step cost — micro_serve.cpp uses the same trick.
struct Fixture {
  data::SlidingWindowDataset dataset;
  data::StepRanges split;
  std::unique_ptr<core::EalgapForecaster> model;
};

Fixture MakeFixture(int regions) {
  Fixture f;
  data::RegionSeriesConfig series_config;
  series_config.num_regions = regions;
  series_config.num_days = 40;
  data::DatasetOptions options;
  options.history_length = 5;
  options.num_windows = 3;
  options.norm_history = 3;
  f.dataset = data::SlidingWindowDataset::Create(
                  data::GenerateRegionSeries(series_config), options)
                  .value();
  f.split = data::MakeChronoSplit(f.dataset).value();
  f.model = std::make_unique<core::EalgapForecaster>();
  TrainConfig train;
  train.epochs = 0;
  train.seed = 11;
  EALGAP_CHECK(f.model->Fit(f.dataset, f.split, train).ok());
  return f;
}

Fixture& GetScaleFixture(int regions) {
  static std::map<int, Fixture> cache;
  auto it = cache.find(regions);
  if (it != cache.end()) return it->second;
  return cache.emplace(regions, MakeFixture(regions)).first->second;
}

/// Tail latency counters, same shape as micro_serve.cpp's.
class LatencyRecorder {
 public:
  explicit LatencyRecorder(benchmark::State& state) : state_(state) {
    samples_.reserve(1024);
  }
  ~LatencyRecorder() {
    if (samples_.empty()) return;
    std::sort(samples_.begin(), samples_.end());
    state_.counters["p50_us"] = Quantile(0.50);
    state_.counters["p95_us"] = Quantile(0.95);
    state_.counters["p99_us"] = Quantile(0.99);
  }
  void Record(std::chrono::steady_clock::time_point t0,
              std::chrono::steady_clock::time_point t1) {
    samples_.push_back(
        std::chrono::duration<double, std::micro>(t1 - t0).count());
  }

 private:
  double Quantile(double q) const {
    const auto i = static_cast<size_t>(q * (samples_.size() - 1));
    return samples_[i];
  }
  benchmark::State& state_;
  std::vector<double> samples_;
};

/// Feed the served values back as the next observation (self-rollout, so
/// any region count replays indefinitely), sanitized so the input guard
/// never rejects: non-finite -> 0, negative -> 0.
void FeedBack(const std::vector<double>& out, std::vector<double>* row) {
  row->resize(out.size());
  for (size_t i = 0; i < out.size(); ++i) {
    const double v = out[i];
    (*row)[i] = std::isfinite(v) && v > 0.0 ? v : 0.0;
  }
}

// ---------------------------------------------------------------------------
// Per-step overhead: the adaptation-tracking serve step vs the float step.
// ---------------------------------------------------------------------------

/// Float baseline in THIS binary: one PredictNextInto + Observe of the
/// served values — the same loop the tracked variant runs, minus the
/// adaptive wrapper.
void BM_ServeFloatStepRegions(benchmark::State& state) {
  Fixture& f = GetScaleFixture(static_cast<int>(state.range(0)));
  auto predictor = serve::OnlinePredictor::Create(f.model.get(), f.dataset,
                                                  f.split.test_begin)
                       .value();
  std::vector<double> out, row;
  EALGAP_CHECK(predictor.PredictNextInto(&out).ok());  // warm the buffers
  LatencyRecorder latency(state);
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(predictor.PredictNextInto(&out));
    FeedBack(out, &row);
    EALGAP_CHECK(predictor.Observe(row).ok());
    const auto t1 = std::chrono::steady_clock::now();
    latency.Record(t0, t1);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ServeFloatStepRegions)->Arg(20)->Arg(1000);

/// The same step through an AdaptivePredictor that never triggers
/// (cusum_h effectively infinite): what every adapt-enabled step pays for
/// observation backfill, the EWMA/CUSUM detector, the ring clone, and
/// pre-divergence A/B scoring. delta vs BM_ServeFloatStepRegions is the
/// tracking overhead.
void BM_ServeAdaptTrackedStepRegions(benchmark::State& state) {
  Fixture& f = GetScaleFixture(static_cast<int>(state.range(0)));
  serve::AdaptOptions aopt;
  aopt.cusum_h = 1e18;  // track, never adapt
  auto adaptive =
      serve::AdaptivePredictor::Create(f.model.get(), aopt).value();
  auto predictor = serve::OnlinePredictor::Create(adaptive.get(), f.dataset,
                                                  f.split.test_begin)
                       .value();
  std::vector<double> out, row;
  EALGAP_CHECK(predictor.PredictNextInto(&out).ok());  // warm the buffers
  LatencyRecorder latency(state);
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(predictor.PredictNextInto(&out));
    FeedBack(out, &row);
    EALGAP_CHECK(predictor.Observe(row).ok());
    const auto t1 = std::chrono::steady_clock::now();
    latency.Record(t0, t1);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.counters["observed"] =
      static_cast<double>(adaptive->stats().observed);
}
BENCHMARK(BM_ServeAdaptTrackedStepRegions)->Arg(20)->Arg(1000);

// ---------------------------------------------------------------------------
// The adaptation attempt itself (runs OUTSIDE the timed predict path in
// production — the daemon phases it into the supervisor; this bench prices
// the supervisor-side budget, not a request's deadline).
// ---------------------------------------------------------------------------

/// One full MaybeAdapt attempt per iteration: parameter snapshot,
/// micro-fine-tune (4 SGD steps x batch 8 on the ring), holdout
/// validation, then commit or bit-exact rollback. The feed is perturbed so
/// the CUSUM detector trips every observed step, and cooldown/min_window
/// are floored so every MaybeAdapt call runs an attempt.
void BM_AdaptMicroFitAttempt(benchmark::State& state) {
  // Own fixture: attempts mutate (and roll back) the model's weights, so
  // keep this model out of the shared cache.
  static Fixture f = MakeFixture(static_cast<int>(state.range(0)));
  serve::AdaptOptions aopt;
  aopt.cusum_k = 0.0;
  aopt.cusum_h = 0.5;
  aopt.window = 32;
  aopt.min_window = 16;
  aopt.holdout = 4;
  aopt.cooldown = 0;
  aopt.freeze_after = 1000000000;  // never freeze: price every attempt
  auto adaptive =
      serve::AdaptivePredictor::Create(f.model.get(), aopt).value();
  auto predictor = serve::OnlinePredictor::Create(adaptive.get(), f.dataset,
                                                  f.split.test_begin)
                       .value();
  std::vector<double> out, row;
  // Fill the ring past min_window so the first timed call can attempt.
  for (int i = 0; i < aopt.min_window + 2; ++i) {
    EALGAP_CHECK(predictor.PredictNextInto(&out).ok());
    FeedBack(out, &row);
    for (size_t r = 0; r < row.size(); ++r) {
      row[r] += 2.0 + static_cast<double>(r % 3);  // sustained drift
    }
    EALGAP_CHECK(predictor.Observe(row).ok());
  }
  for (auto _ : state) {
    EALGAP_CHECK(predictor.PredictNextInto(&out).ok());
    FeedBack(out, &row);
    for (size_t r = 0; r < row.size(); ++r) {
      row[r] += 2.0 + static_cast<double>(r % 3);
    }
    EALGAP_CHECK(predictor.Observe(row).ok());
    auto event = adaptive->MaybeAdapt();
    EALGAP_CHECK(event.ok());
    benchmark::DoNotOptimize(event);
  }
  const serve::AdaptStats& stats = adaptive->stats();
  EALGAP_CHECK(stats.attempts > 0);
  state.counters["attempts_per_iter"] =
      static_cast<double>(stats.attempts) /
      static_cast<double>(state.iterations());
  state.counters["commits"] = static_cast<double>(stats.commits);
  state.SetItemsProcessed(stats.attempts);
}
BENCHMARK(BM_AdaptMicroFitAttempt)->Arg(20);

// ---------------------------------------------------------------------------
// Detector/freeze posture checkpoint round trip (restartable shards).
// ---------------------------------------------------------------------------

void BM_AdaptStateRoundTrip(benchmark::State& state) {
  Fixture& f = GetScaleFixture(1000);
  auto adaptive =
      serve::AdaptivePredictor::Create(f.model.get()).value();
  auto predictor = serve::OnlinePredictor::Create(adaptive.get(), f.dataset,
                                                  f.split.test_begin)
                       .value();
  std::vector<double> out, row;
  // A couple of steps so the per-region detector state exists.
  for (int i = 0; i < 3; ++i) {
    EALGAP_CHECK(predictor.PredictNextInto(&out).ok());
    FeedBack(out, &row);
    EALGAP_CHECK(predictor.Observe(row).ok());
  }
  const std::string path = "/tmp/ealgap_bench_adapt.state";
  for (auto _ : state) {
    EALGAP_CHECK(adaptive->SaveState(path).ok());
    benchmark::DoNotOptimize(adaptive->LoadState(path));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AdaptStateRoundTrip);

}  // namespace

// main() lives in bench_main.cc (stamps ealgap_build_type / ealgap_simd).
