// train: EALGAP on the nyc_bike weather period (core::PrepareData, N=20,
// batch 16). One op = one epoch through the public resume path: Fit with
// epochs=k, resume=true, checkpoint_every=1, so every op loads the train
// state, trains one epoch, validates and writes the state back.

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/checksum.h"
#include "common/thread_pool.h"
#include "core/ealgap.h"
#include "core/experiment.h"
#include "core/extreme_degree.h"
#include "core/global_impact.h"
#include "data/aggregate.h"
#include "data/cleaning.h"
#include "data/dataset_configs.h"
#include "data/partition.h"
#include "data/synthetic_city.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "stats/metrics.h"
#include "tensor/autograd.h"
#include "workloads.h"

namespace ledgerbench {
namespace {

using namespace ealgap;

/// Nominal epochs per second on the reference host (~105 steps, ~1.3 s per epoch).
constexpr double kOpsPerSecond = 0.96;
constexpr int kBatch = 16;

int64_t OpsFor(double seconds) {
  return std::max<int64_t>(12, std::llround(seconds * kOpsPerSecond));
}

data::PeriodConfig Config(uint64_t seed) {
  return data::MakePeriodConfig(data::City::kNycBike, data::Period::kWeather, seed);
}

/// PrepareData's public calls, each in a span (traced setup only).
core::PreparedData PrepareTraced(const data::PeriodConfig& config, Ledger* ledger) {
  core::PreparedData out;
  {
    Ledger::Span s(ledger, "data.generate");
    auto city = data::GenerateCity(config.generator);
    Gate(city.ok(), "train_generate", city.status().ToString());
    out.city = std::move(city).value();
  }
  out.stations = out.city.stations;
  std::vector<data::TripRecord> clean;
  {
    Ledger::Span s(ledger, "data.clean");
    clean = data::CleanTrips(out.city.trips, out.stations, config.cleaning,
                             &out.cleaning);
  }
  {
    Ledger::Span s(ledger, "data.partition");
    auto partition = data::PartitionStations(out.stations, config.partition);
    Gate(partition.ok(), "train_partition", partition.status().ToString());
    out.partition = std::move(partition).value();
  }
  data::MobilitySeries series;
  {
    Ledger::Span s(ledger, "data.aggregate");
    auto agg = data::AggregateTrips(clean, out.stations, out.partition,
                                    config.generator.start_date,
                                    config.generator.num_days);
    Gate(agg.ok(), "train_aggregate", agg.status().ToString());
    series = std::move(agg).value();
  }
  Ledger::Span s(ledger, "data.window");
  auto dataset = data::SlidingWindowDataset::Create(std::move(series), config.dataset);
  Gate(dataset.ok(), "train_window", dataset.status().ToString());
  out.dataset = std::move(dataset).value();
  auto split = data::MakeChronoSplit(out.dataset);
  Gate(split.ok(), "train_split", split.status().ToString());
  out.split = *split;
  return out;
}

core::PreparedData Prepare(uint64_t seed, Ledger* ledger) {
  if (ledger != nullptr) return PrepareTraced(Config(seed), ledger);
  auto prepared = core::PrepareData(Config(seed));
  Gate(prepared.ok(), "train_prepare", prepared.status().ToString());
  return std::move(prepared).value();
}

/// Forward with grad + backward of both EALGAP modules on one batch, then
/// one Adam step, on modules of the trained model's shapes: the per-step
/// work Fit repeats ~105 times an epoch.
void StepLedger(const core::PreparedData& data, uint64_t seed, Ledger* ledger,
                Outcome* outcome, double epoch_p50_ms, double steps_per_epoch) {
  const int64_t n = data.dataset.series().num_regions;
  const int64_t l = data.dataset.options().history_length;
  Rng rng(seed);
  core::GlobalImpactModule global(n, l, 32, rng);
  core::ExtremeDegreeModule extreme(n, l, 16, rng);
  std::vector<Var> params = global.Parameters();
  for (const Var& p : extreme.Parameters()) params.push_back(p);
  nn::Adam adam(params, 2e-4f);
  const std::vector<int64_t> steps =
      data.dataset.TargetSteps(data.split.train_begin, data.split.train_end);
  std::vector<data::WindowSample> batch;
  for (int i = 0; i < kBatch; ++i) {
    batch.push_back(data.dataset.MakeSample(steps[static_cast<size_t>(i)]));
  }
  for (int it = 0; it < 100; ++it) {
    ledger->NextGroup();
    double loss_value = 0.0;
    {
      Ledger::Span s(ledger, "core.fwd_bwd");
      global.ZeroGrad();
      extreme.ZeroGrad();
      std::vector<Var> rows, targets;
      for (const data::WindowSample& b : batch) {
        Var xg = global.Forward(Var::Leaf(b.x)).xg_next;
        Var d = extreme.Forward(Var::Leaf(b.f), Var::Leaf(b.f_mu),
                                Var::Leaf(b.f_sigma)).d_next;
        Var pred = Relu(Add(xg, Mul(xg, d)));  // Eq. 11
        rows.push_back(Reshape(pred, {1, n}));
        targets.push_back(Var::Leaf(b.target.Reshape({1, n})));
      }
      Var loss = nn::MseLoss(Concat(rows, 0), Concat(targets, 0));
      loss_value = loss.value().data()[0];
      Backward(loss);
    }
    Gate(std::isfinite(loss_value), "train_ledger_finite_loss");
    Ledger::Span s(ledger, "nn.adam");
    adam.Step();
  }
  const auto rows = ledger->Reduce();
  PrintLedger("train step calls", rows, {});
  const double fwd_bwd = RowMs(rows, "core.fwd_bwd"), step = RowMs(rows, "nn.adam");
  outcome->metrics.push_back({"core.fwd_bwd_ms", fwd_bwd, "ms"});
  outcome->metrics.push_back({"nn.adam_ms", step, "ms"});
  outcome->metrics.push_back({"baselines.epoch_residual_ms",
                              epoch_p50_ms - steps_per_epoch * (fwd_bwd + step), "ms"});
}

}  // namespace

Outcome RunTrain(const RunSpec& spec) {
  SetNumThreads(kPoolSize);
  Outcome outcome;
  const std::string dir = spec.state_dir + "/train";
  const std::string state = dir + "/train.state";
  // The traced run needs epochs only for the epoch median and the state
  // file; half its share of the time goes to the step ledger.
  const int64_t epochs =
      spec.trace ? std::max<int64_t>(4, std::llround(spec.seconds * kOpsPerSecond / 2))
                 : OpsFor(spec.seconds);
  Ledger ledger;

  std::vector<double> setup_s;
  core::PreparedData data;
  std::unique_ptr<core::EalgapForecaster> model;
  for (int i = 0; i < (spec.trace ? 1 : kSetupRepeats); ++i) {
    model.reset();
    data = core::PreparedData();
    const auto t0 = Clock::now();
    data = Prepare(spec.seed, spec.trace ? &ledger : nullptr);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    model = std::make_unique<core::EalgapForecaster>();
    setup_s.push_back(MsBetween(t0, Clock::now()) / 1e3);
  }
  // Training never reads the raw trips; dropping them keeps the loop's
  // memory independent of the seed's trip count (~300k to ~390k).
  std::vector<data::TripRecord>().swap(data.city.trips);
  ResetPeakRss();

  TrainConfig config;
  config.batch_size = kBatch;
  config.seed = spec.seed;
  config.patience = 1 << 30;  // every op trains a full epoch
  config.checkpoint_path = state;
  config.checkpoint_every = 1;
  config.resume = true;
  std::vector<double> epoch_ms;
  double loop_s = 0.0;
  int64_t steps = 0;
  for (int64_t k = 1; k <= epochs; ++k) {
    config.epochs = static_cast<int>(k);
    const auto t0 = Clock::now();
    Status fit = model->Fit(data.dataset, data.split, config);
    const double ms = MsBetween(t0, Clock::now());
    Gate(fit.ok(), "train_fit", fit.ToString());
    const TrainStats& stats = model->train_stats();
    Gate(stats.rollbacks == 0, "train_rollback",
         std::to_string(stats.rollbacks) + " rollbacks by epoch " + std::to_string(k));
    Gate(stats.epochs_completed == k, "train_epochs_completed",
         std::to_string(stats.epochs_completed) + " != " + std::to_string(k));
    loop_s += ms / 1e3;
    epoch_ms.push_back(ms);
    steps = stats.steps;
  }

  // Quality on the test split after the last epoch.
  double abs_err = 0.0, truth_sum = 0.0;
  uint32_t crc = 0;
  for (int64_t s : data.dataset.TargetSteps(data.split.test_begin, data.split.test_end)) {
    auto pred = model->Predict(data.dataset, s);
    Gate(pred.ok(), "train_predict", pred.status().ToString());
    for (double v : *pred) Gate(std::isfinite(v), "train_finite_predictions");
    const std::vector<float> row = data.dataset.StepCounts(s);
    const std::vector<double> truth(row.begin(), row.end());
    double sum = 0.0;
    for (double t : truth) sum += t;
    const double denom = std::max(sum, 1.0);
    abs_err += stats::ErrorRate(*pred, truth) * denom;
    truth_sum += denom;
    crc = Crc32(pred->data(), pred->size() * sizeof(double), crc);
  }
  outcome.attempted = steps;
  outcome.failed = model->train_stats().skipped_steps;
  outcome.outputs["quality_er"] = std::to_string(abs_err / truth_sum);
  outcome.outputs["failed_share"] = std::to_string(
      static_cast<double>(outcome.failed) / std::max<int64_t>(steps, 1));
  outcome.outputs["output_crc"] = Crc32Hex(crc);
  outcome.outputs["steps"] = std::to_string(steps);
  outcome.info["ops"] = std::to_string(epochs);

  if (!spec.trace) {
    const Latency lat = Summarize(epoch_ms);
    outcome.info["tail_pct"] = std::to_string(lat.tail_pct);
    outcome.metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"op_p50_ms", lat.p50_ms, "ms"},
        {"op_tail_ms", lat.tail_ms, "ms"},
        {"throughput_per_s", steps / loop_s, "1/s"},
        {"peak_rss_mb", PeakRssMb(), "MiB"},
    };
    return outcome;
  }

  const auto rows = ledger.Reduce();
  PrintLedger("train setup", rows, {});
  auto& m = outcome.metrics;
  for (const char* row : {"data.generate", "data.clean", "data.partition",
                          "data.aggregate", "data.window"}) {
    m.push_back({std::string(row) + "_ms", RowMs(rows, row), "ms"});
  }
  m.push_back({"baselines.train_state_bytes",
               static_cast<double>(std::filesystem::file_size(state)), "B"});
  Ledger steps_ledger;
  StepLedger(data, spec.seed, &steps_ledger, &outcome, Median(epoch_ms),
             static_cast<double>(steps) / epochs);
  return outcome;
}

}  // namespace ledgerbench
