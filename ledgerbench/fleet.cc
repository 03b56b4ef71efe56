// fleet: a serve::Daemon of 64 shards x 8 regions under an open-loop load
// that alternates steady ticks with bursts above batch_max, with a seeded
// low-rate daemon.shard.crash. One op = one Daemon::Tick.
//
// The untraced fleet keeps shard state in memory (restarts re-seed from
// the dataset): fsync latency on the checkout's disk moved several-fold
// within a minute, which no tick-time bound survives. The traced fleet
// gives every shard a state directory with the default checkpoint cadence,
// so the ledger times checkpoint and restart-from-disk ticks.

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/bounded_queue.h"
#include "common/checksum.h"
#include "common/fault_injection.h"
#include "common/thread_pool.h"
#include "core/ealgap.h"
#include "data/aggregate.h"
#include "data/dataset.h"
#include "data/synthetic_city.h"
#include "serve/daemon.h"
#include "serve/load_gen.h"
#include "serve/online_predictor.h"
#include "serve/shard.h"
#include "workloads.h"

namespace ledgerbench {
namespace {

using namespace ealgap;

constexpr int kShards = 64;
constexpr int kRegionsPerShard = 8;
/// Nominal ticks per second on the reference host: state in memory, and
/// with the traced fleet's on-disk checkpoints.
constexpr double kOpsPerSecond = 200.0;
constexpr double kDiskOpsPerSecond = 90.0;
/// daemon.shard.crash probability per shard per tick: ~32 crashes per 1000
/// ticks across the 64 shards.
constexpr const char* kCrashRate = "0.0005";

int64_t OpsFor(double seconds) {
  return std::max<int64_t>(64, std::llround(seconds * kOpsPerSecond));
}

std::unique_ptr<serve::Shard> MakeShard(const data::MobilitySeries& city, int s,
                                        uint64_t seed, const std::string& state_dir) {
  auto slice = data::SliceRegions(city, s * kRegionsPerShard,
                                  (s + 1) * kRegionsPerShard);
  Gate(slice.ok(), "fleet_slice", slice.status().ToString());
  data::DatasetOptions options;
  options.history_length = 5;
  options.num_windows = 3;
  options.norm_history = 3;
  auto dataset = data::SlidingWindowDataset::Create(std::move(slice).value(), options);
  Gate(dataset.ok(), "fleet_dataset", dataset.status().ToString());
  auto split = data::MakeChronoSplit(*dataset);
  Gate(split.ok(), "fleet_split", split.status().ToString());
  auto model = std::make_unique<core::EalgapForecaster>();
  TrainConfig train;
  train.epochs = 0;  // untrained: N=8 forwards cost the same either way
  train.seed = seed + static_cast<uint64_t>(s);
  Status fit = model->Fit(*dataset, *split, train);
  Gate(fit.ok(), "fleet_fit", fit.ToString());
  serve::ShardConfig config;
  config.name = "s" + std::to_string(s);
  if (!state_dir.empty()) {
    config.state_dir = state_dir + "/" + config.name;
    std::filesystem::create_directories(config.state_dir);
  }
  config.guard.on_bad_value = serve::RepairPolicy::kImpute;
  config.guard.on_gap = serve::RepairPolicy::kImpute;
  config.guard.max_gap_steps = 4096;
  auto shard = serve::Shard::Create(std::move(*dataset), std::move(model),
                                    split->test_begin, config);
  Gate(shard.ok(), "fleet_shard_create", shard.status().ToString());
  return std::move(shard).value();
}

data::MobilitySeries MakeCity(uint64_t seed) {
  data::RegionSeriesConfig config;
  config.num_regions = kShards * kRegionsPerShard;
  config.num_days = 40;
  config.seed = seed;
  return data::GenerateRegionSeries(config);
}

/// `dir` empty: shard state stays in memory.
std::unique_ptr<serve::Daemon> BuildFleet(uint64_t seed, const std::string& dir) {
  if (!dir.empty()) std::filesystem::remove_all(dir);
  const data::MobilitySeries city = MakeCity(seed);
  auto daemon = std::make_unique<serve::Daemon>(serve::DaemonConfig{});
  for (int s = 0; s < kShards; ++s) {
    daemon->AddShard(MakeShard(city, s, seed, dir));
  }
  return daemon;
}

serve::LoadGenConfig Load(uint64_t seed) {
  serve::LoadGenConfig config;
  // 56 steady ticks, then 8 ticks at 1.5x batch_max (64): the backlog
  // fills the 128-slot queues, so admission control sheds in every burst.
  // Most ticks are steady, so the median tick is a steady one.
  config.phases = {{56, 2.0}, {8, 96.0}};
  config.seed = seed;
  config.num_shards = kShards;
  return config;
}

struct FleetCounts {
  int64_t checkpoints = 0, restarts = 0;
};

FleetCounts CountFleet(serve::Daemon& daemon) {
  FleetCounts c;
  for (int s = 0; s < daemon.num_shards(); ++s) {
    const serve::ShardTotals t = daemon.shard(s)->Totals();
    c.checkpoints += t.checkpoints_written;
    c.restarts += t.restarts;
  }
  return c;
}

double FileBytes(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  Gate(!ec, "file_size", path);
  return static_cast<double>(size);
}

/// Side measurements on a shard outside the daemon, so they never perturb
/// its replay: state and model checkpoint round trips, restart, the
/// bounded queue and the load generator.
void SideLedger(uint64_t seed, const std::string& dir, Ledger* ledger,
                Outcome* outcome) {
  const data::MobilitySeries city = MakeCity(seed);
  std::unique_ptr<serve::Shard> shard = MakeShard(city, 0, seed, dir + "/side");
  const std::string state = dir + "/side/ledger.state";
  const std::string ckpt = dir + "/side/ledger.ckpt";
  auto* neural = dynamic_cast<NeuralForecaster*>(shard->model());
  Gate(neural != nullptr, "fleet_side_model");
  for (int i = 0; i < 40; ++i) {
    ledger->NextGroup();
    Status st;
    {
      Ledger::Span s(ledger, "serve.state_save");
      st = shard->predictor()->SaveState(state);
    }
    Gate(st.ok(), "fleet_state_save", st.ToString());
    {
      Ledger::Span s(ledger, "serve.state_load");
      auto loaded = serve::OnlinePredictor::LoadState(state, shard->model());
      Gate(loaded.ok(), "fleet_state_load", loaded.status().ToString());
    }
    {
      Ledger::Span s(ledger, "baselines.ckpt_save");
      st = neural->SaveCheckpoint(ckpt);
    }
    Gate(st.ok(), "fleet_ckpt_save", st.ToString());
    {
      Ledger::Span s(ledger, "baselines.ckpt_load");
      core::EalgapForecaster loaded;
      st = loaded.LoadCheckpoint(ckpt);
    }
    Gate(st.ok(), "fleet_ckpt_load", st.ToString());
    {
      Ledger::Span s(ledger, "serve.restart");
      shard->BeginQuarantine(0, /*injected_crash=*/false);
      st = shard->Restart();
    }
    Gate(st.ok(), "fleet_restart", st.ToString());
  }
  outcome->metrics.push_back({"serve.state_bytes", FileBytes(state), "B"});
  outcome->metrics.push_back({"baselines.ckpt_bytes", FileBytes(ckpt), "B"});

  constexpr int kPairs = 1000, kCalls = 100;
  BoundedQueue<serve::Request> queue(128);
  serve::LoadGen gen(Load(seed));
  std::vector<int> arrivals;
  serve::Request req, popped;
  int64_t moved = 0;
  for (int i = 0; i < 50; ++i) {
    ledger->NextGroup();
    {
      Ledger::Span s(ledger, "common.queue");
      for (int k = 0; k < kPairs; ++k) {
        req.id = k;
        moved += queue.TryPush(req) && queue.TryPop(&popped) ? 1 : 0;
      }
    }
    Ledger::Span s(ledger, "serve.loadgen");
    for (int k = 0; k < kCalls; ++k) gen.ArrivalsAt(i * kCalls + k, &arrivals);
  }
  Gate(moved == 50 * kPairs, "fleet_queue_roundtrip");
  const auto rows = ledger->Reduce();
  outcome->metrics.push_back(
      {"common.queue_ns", RowMs(rows, "common.queue") * 1e6 / kPairs, "ns"});
  outcome->metrics.push_back(
      {"serve.loadgen_ns", RowMs(rows, "serve.loadgen") * 1e6 / kCalls, "ns"});
  for (const char* row : {"serve.state_save", "serve.state_load", "baselines.ckpt_save",
                          "baselines.ckpt_load", "serve.restart"}) {
    outcome->metrics.push_back({std::string(row) + "_ms", RowMs(rows, row), "ms"});
  }
  PrintLedger("fleet side calls", rows, {});
}

}  // namespace

Outcome RunFleet(const RunSpec& spec) {
  SetNumThreads(kPoolSize);
  Outcome outcome;
  const std::string dir = spec.state_dir + "/fleet";
  // Traced runs split their time between an untraced and a traced phase.
  const int64_t ticks =
      spec.trace ? std::max<int64_t>(64, std::llround(spec.seconds * kDiskOpsPerSecond / 2))
                 : OpsFor(spec.seconds);
  const int64_t total = spec.trace ? 2 * ticks : ticks;

  std::vector<double> setup_s;
  std::unique_ptr<serve::Daemon> daemon;
  for (int i = 0; i < (spec.trace ? 1 : kSetupRepeats); ++i) {
    daemon.reset();
    const auto t0 = Clock::now();
    daemon = BuildFleet(spec.seed, spec.trace ? dir : "");
    setup_s.push_back(MsBetween(t0, Clock::now()) / 1e3);
  }

  Status armed = fault::ArmFromSpec(std::string("daemon.shard.crash:p=") + kCrashRate +
                                    ":seed=" + std::to_string(spec.seed));
  Gate(armed.ok(), "fleet_arm_crash", armed.ToString());
  serve::LoadGen gen(Load(spec.seed));
  std::vector<int> arrivals;
  std::vector<double> tick_ms, traced_ms;
  std::vector<double> plain_ms, checkpoint_ms, restart_ms;
  ResetPeakRss();
  double loop_s = 0.0;
  for (int64_t i = 0; i < total; ++i) {
    const bool trace_op = spec.trace && i >= ticks;
    gen.ArrivalsAt(daemon->now_tick(), &arrivals);
    FleetCounts before;
    if (trace_op) before = CountFleet(*daemon);
    const auto t0 = Clock::now();
    daemon->Tick(arrivals);
    const double ms = MsBetween(t0, Clock::now());
    loop_s += ms / 1e3;
    (trace_op ? traced_ms : tick_ms).push_back(ms);
    if (trace_op) {
      const FleetCounts after = CountFleet(*daemon);
      if (after.restarts > before.restarts) {
        restart_ms.push_back(ms);
      } else if (after.checkpoints > before.checkpoints) {
        checkpoint_ms.push_back(ms);
      } else {
        plain_ms.push_back(ms);
      }
    }
  }
  fault::DisarmAll();

  // Report() copies and sorts every latency sample: once, after the loop.
  const serve::SloReport report = daemon->Report();
  Gate(report.UnattributedPredicts() == 0, "fleet_unattributed_predicts",
       std::to_string(report.UnattributedPredicts()));
  Gate(report.UnattributedObserves() == 0, "fleet_unattributed_observes",
       std::to_string(report.UnattributedObserves()));
  Gate(report.DegradedCauseMismatch() == 0, "fleet_degraded_cause_mismatch",
       std::to_string(report.DegradedCauseMismatch()));
  Gate(report.adapt.UnattributedAdaptations() == 0, "fleet_unattributed_adaptations");
  Gate(report.checkpoint_failures == 0, "fleet_checkpoint_failures",
       std::to_string(report.checkpoint_failures));
  const int64_t shed = report.shed_overload_predict + report.shed_quarantine_predict;
  const int64_t answered =
      report.served_model + report.served_degraded + report.expired_fallback;
  const int64_t failed_predicts = shed + report.expired_fallback + report.served_degraded;
  Gate(report.predict_requests > 0 && shed > 0, "fleet_load_sheds",
       "the bursts must drive admission control");

  outcome.attempted = total;
  outcome.failed = 0;  // a tick never fails; shed predicts are failed_share
  outcome.outputs["digest"] = Crc32Hex(daemon->digest());
  outcome.outputs["failed_share"] = std::to_string(
      static_cast<double>(failed_predicts) / report.predict_requests);
  outcome.outputs["predicts"] = std::to_string(report.predict_requests);
  outcome.outputs["shed"] = std::to_string(shed);
  outcome.outputs["restarts"] = std::to_string(report.restarts);
  outcome.outputs["checkpoints"] = std::to_string(report.checkpoints_written);
  outcome.info["ops"] = std::to_string(total);

  if (!spec.trace) {
    const Latency lat = Summarize(tick_ms);
    outcome.info["tail_pct"] = std::to_string(lat.tail_pct);
    outcome.metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"op_p50_ms", lat.p50_ms, "ms"},
        {"op_tail_ms", lat.tail_ms, "ms"},
        {"throughput_per_s", answered / loop_s, "1/s"},
        {"peak_rss_mb", PeakRssMb(), "MiB"},
    };
    return outcome;
  }

  daemon.reset();
  Gate(!restart_ms.empty() && !checkpoint_ms.empty(), "fleet_tick_classes",
       "the traced phase saw no restart or no checkpoint tick");
  auto& m = outcome.metrics;
  m.push_back({"serve.tick_plain_ms", Median(plain_ms), "ms"});
  m.push_back({"serve.tick_checkpoint_ms", Median(checkpoint_ms), "ms"});
  m.push_back({"serve.tick_restart_ms", Median(restart_ms), "ms"});
  m.push_back({"fleet.admitted", static_cast<double>(report.predict_requests - shed), "count"});
  m.push_back({"fleet.shed", static_cast<double>(shed), "count"});
  m.push_back({"fleet.expired", static_cast<double>(report.expired_fallback), "count"});
  m.push_back({"fleet.degraded", static_cast<double>(report.served_degraded), "count"});
  m.push_back({"fleet.checkpoints", static_cast<double>(report.checkpoints_written), "count"});
  m.push_back({"fleet.restarts", static_cast<double>(report.restarts), "count"});
  m.push_back({"trace.fleet_overhead_ms", Median(traced_ms) - Median(tick_ms), "ms"});
  std::printf("ledger fleet: ticks plain %zu p50 %.3f ms, checkpoint %zu p50 %.3f ms, "
              "restart %zu p50 %.3f ms\n",
              plain_ms.size(), Median(plain_ms), checkpoint_ms.size(),
              Median(checkpoint_ms), restart_ms.size(), Median(restart_ms));
  Ledger side;
  SideLedger(spec.seed, dir, &side, &outcome);
  return outcome;
}

}  // namespace ledgerbench
