// Reproduces the Sec. VI-B training-cost comparison: average wall-clock
// time of one optimization step for each deep scheme (the paper reports
// per-step-per-epoch averages on its GPU desktop; here the substrate is a
// single CPU core, so magnitudes differ but the ordering is comparable).
// The pool is pinned to one thread, and each scheme trains five times:
// read the `_median` rows' opt_step_ms.

#include <benchmark/benchmark.h>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "core/experiment.h"

namespace {

using namespace ealgap;

// One small shared experiment (8 regions, 60 days) so each benchmark run
// stays in milliseconds.
const core::PreparedData& SmallData() {
  static core::PreparedData* data = [] {
    data::PeriodConfig config = data::MakePeriodConfig(
        data::City::kNycBike, data::Period::kWeather, /*seed=*/7,
        /*scale=*/0.6);
    config.generator.num_stations = 60;
    config.generator.num_regions = 8;
    config.generator.num_days = 60;
    config.partition.num_regions = 8;
    auto prepared = core::PrepareData(config);
    EALGAP_CHECK(prepared.ok()) << prepared.status().ToString();
    return new core::PreparedData(std::move(prepared).value());
  }();
  return *data;
}

void BM_TrainStep(benchmark::State& state, const char* scheme) {
  SetNumThreads(1);
  const core::PreparedData& data = SmallData();
  TrainConfig train;
  train.epochs = 1;
  train.patience = 1;
  double step_ms = 0.0;
  for (auto _ : state) {
    auto result = core::RunScheme(scheme, data, train);
    EALGAP_CHECK(result.ok()) << result.status().ToString();
    step_ms = result->train_step_ms;
    benchmark::DoNotOptimize(result->metrics.er);
  }
  state.counters["opt_step_ms"] = step_ms;
}

/// One training run per repetition, five repetitions, aggregates only.
void OneStepFiveTimes(benchmark::internal::Benchmark* b) {
  b->Iterations(1)->Repetitions(5)->ReportAggregatesOnly(true)->Unit(
      benchmark::kMillisecond);
}

}  // namespace

BENCHMARK_CAPTURE(BM_TrainStep, gru, "GRU")->Apply(OneStepFiveTimes);
BENCHMARK_CAPTURE(BM_TrainStep, lstm, "LSTM")->Apply(OneStepFiveTimes);
BENCHMARK_CAPTURE(BM_TrainStep, rnn, "RNN")->Apply(OneStepFiveTimes);
BENCHMARK_CAPTURE(BM_TrainStep, st_norm, "ST-Norm")->Apply(OneStepFiveTimes);
BENCHMARK_CAPTURE(BM_TrainStep, st_resnet, "ST-ResNet")->Apply(OneStepFiveTimes);
BENCHMARK_CAPTURE(BM_TrainStep, evl, "EVL")->Apply(OneStepFiveTimes);
BENCHMARK_CAPTURE(BM_TrainStep, chat, "CHAT")->Apply(OneStepFiveTimes);
BENCHMARK_CAPTURE(BM_TrainStep, ealgap, "EALGAP")->Apply(OneStepFiveTimes);

// main() lives in bench_main.cc (stamps ealgap_build_type / ealgap_simd).
