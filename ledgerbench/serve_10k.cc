// serve_10k: one 10,000-region city served step by step through
// ResilientPredictor. One op = PredictNextInto + Observe of the realized
// row. The traced run adds the model ledger: the EALGAP forward rebuilt
// from the public calls of modules with the serve model's shapes and
// weights, each call inside a span.

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "common/arena.h"
#include "common/checksum.h"
#include "common/thread_pool.h"
#include "core/ealgap.h"
#include "core/extreme_degree.h"
#include "core/global_impact.h"
#include "data/dataset.h"
#include "data/synthetic_city.h"
#include "nn/linear.h"
#include "nn/rnn_cells.h"
#include "serve/online_predictor.h"
#include "serve/resilient_predictor.h"
#include "stats/distribution.h"
#include "stats/metrics.h"
#include "tensor/autograd.h"
#include "workloads.h"

namespace ledgerbench {
namespace {

using namespace ealgap;

constexpr int kRegions = 10000;
constexpr int kHistory = 5;   // L
constexpr int kWindows = 3;   // M
constexpr int kHidden = 32;   // EalgapOptions::hidden
constexpr int kGruHidden = 16;
constexpr int kStepsPerDay = 24;
/// Nominal serve steps per second on the reference host (~36 ms/step).
constexpr double kOpsPerSecond = 28.0;

int64_t OpsFor(double seconds) {
  return std::max<int64_t>(40, std::llround(seconds * kOpsPerSecond));
}

// ---------------------------------------------------------------------------
// Analytic work counts of one serve-step forward at (n, l, m). Flops count a
// multiply-add as 2 and every other element op (exp, tanh, div, ...) as 1;
// bytes are the float32 inputs, weights and outputs each kernel call touches,
// with no cache modelling. MACs are tallied separately for the self-test.

struct Tally {
  Work work;
  double macs = 0.0;
  void Linear(double rows, double in, double out) {
    macs += rows * in * out;
    work.flops += 2 * rows * in * out + rows * out;
    work.bytes += 4 * (rows * in + in * out + out + rows * out);
  }
  void BMatMul(double batch, double m, double k, double n) {
    macs += batch * m * k * n;
    work.flops += 2 * batch * m * k * n;
    work.bytes += 4 * batch * (m * k + k * n + m * n);
  }
  /// `ops` element-wise passes over `elems` values; unary passes touch two
  /// tensors, binary ones three.
  void Elementwise(double elems, double unary, double binary) {
    work.flops += elems * (unary + binary);
    work.bytes += 4 * elems * (2 * unary + 3 * binary);
  }
};

struct ModelWork {
  Tally pdf, decoder, attention, predictor, gru, extreme;
  double TotalMacs() const {
    return pdf.macs + decoder.macs + attention.macs + predictor.macs +
           gru.macs + extreme.macs;
  }
};

ModelWork CountModelWork(double n, double l, double m) {
  const double hd = kHidden, h = kGruHidden;
  ModelWork w;
  // RowwisePdf: per row an L-sum and a rate, then rate*exp(-rate*x).
  w.pdf.Elementwise(n * l, 3, 0);
  w.pdf.work.flops += n * (l + 1);
  // Decoder: three Linears on the flattened citywide density, each output
  // but the last through a softmax (max, sub, exp, sum, div).
  w.decoder.Linear(1, n * l, hd);
  w.decoder.Elementwise(hd, 3, 2);
  w.decoder.Linear(1, hd, hd);
  w.decoder.Elementwise(hd, 3, 2);
  w.decoder.Linear(1, hd, 3 * n);
  // Eq. 6: q/k/v outer products, q k^T, scale, softmax, scores v.
  for (int i = 0; i < 3; ++i) w.attention.BMatMul(n, l, 1, 1);
  w.attention.BMatMul(n, l, 1, l);
  w.attention.Elementwise(n * l * l, 4, 2);
  w.attention.BMatMul(n, l, l, 1);
  // Eq. 7: three Linears with ReLUs.
  w.predictor.Linear(n, l, hd);
  w.predictor.Elementwise(n * hd, 1, 0);
  w.predictor.Linear(n, hd, hd);
  w.predictor.Elementwise(n * hd, 1, 0);
  w.predictor.Linear(n, hd, 1);
  for (int window = 0; window < m; ++window) {
    // GruCell::Forward: six gate Linears, then 5 unary and 7 binary passes.
    for (int g = 0; g < 3; ++g) w.gru.Linear(n, l, h);
    for (int g = 0; g < 3; ++g) w.gru.Linear(n, h, h);
    w.gru.Elementwise(n * h, 5, 7);
    // Eq. 9 extreme degree (2 unary + 5 binary passes over N x L) and the
    // tanh head.
    w.extreme.Elementwise(n * l, 2, 5);
    w.extreme.Linear(n, h, 1);
    w.extreme.Elementwise(n, 1, 0);
  }
  return w;
}

// ---------------------------------------------------------------------------
// Model ledger: GlobalImpactModule / ExtremeDegreeModule built with the
// serve model's shapes and initializer stream (so also its weights), and
// their forwards recomposed from the public calls of their child modules.

struct ModelReplica {
  std::unique_ptr<core::GlobalImpactModule> global;
  std::unique_ptr<core::ExtremeDegreeModule> extreme;
  const nn::Linear* dec[3] = {};
  const nn::Linear* pred[3] = {};
  const nn::GruCell* gru = nullptr;
  const nn::Linear* head = nullptr;
};

ModelReplica MakeReplica(uint64_t model_seed) {
  ModelReplica r;
  Rng rng(model_seed);  // same order as EalgapForecaster's Net
  r.global = std::make_unique<core::GlobalImpactModule>(
      kRegions, kHistory, kHidden, rng);
  r.extreme = std::make_unique<core::ExtremeDegreeModule>(
      kRegions, kHistory, kGruHidden, rng);
  r.global->VisitModules([&](const std::string& name, nn::Module* m) {
    for (int i = 0; i < 3; ++i) {
      if (name == "dec" + std::to_string(i + 1)) r.dec[i] = dynamic_cast<nn::Linear*>(m);
      if (name == "pred" + std::to_string(i + 1)) r.pred[i] = dynamic_cast<nn::Linear*>(m);
    }
  });
  r.extreme->VisitModules([&](const std::string& name, nn::Module* m) {
    if (name == "gru") r.gru = dynamic_cast<nn::GruCell*>(m);
    if (name == "head") r.head = dynamic_cast<nn::Linear*>(m);
  });
  for (int i = 0; i < 3; ++i) {
    Gate(r.dec[i] != nullptr && r.pred[i] != nullptr, "replica_modules",
         "GlobalImpactModule children dec1..3/pred1..3 not found");
  }
  Gate(r.gru != nullptr && r.head != nullptr, "replica_modules",
       "ExtremeDegreeModule children gru/head not found");
  return r;
}

/// GlobalImpactModule::Forward(x).xg_next, one span per public call group.
Var GlobalForward(const ModelReplica& r, const Var& x, Ledger* ledger) {
  Ledger::Span span(ledger, "core.global");
  const int64_t n = kRegions, l = kHistory;
  Var zv;
  {
    Ledger::Span s(ledger, "stats.pdf");
    zv = Var::Leaf(stats::RowwisePdf(x.value(), r.global->family()));
  }
  Var w;
  {
    Ledger::Span s(ledger, "nn.decoder");
    Var h = SoftmaxLastDim(r.dec[0]->Forward(Reshape(zv, {1, n * l})));
    h = SoftmaxLastDim(r.dec[1]->Forward(h));
    w = Reshape(r.dec[2]->Forward(h), {n, 3});
  }
  Var xg;
  {
    Ledger::Span s(ledger, "core.attention");
    Var x3 = Reshape(x, {n, l, 1});
    Var q = BMatMul(x3, Reshape(Slice(w, 1, 0, 1), {n, 1, 1}));
    Var k = BMatMul(x3, Reshape(Slice(w, 1, 1, 2), {n, 1, 1}));
    Var v = BMatMul(x3, Reshape(Slice(w, 1, 2, 3), {n, 1, 1}));
    Var logits = MulScalar(BMatMul(q, TransposeLast2(k)), 1.f);
    xg = Reshape(BMatMul(SoftmaxLastDim(logits), v), {n, l});
  }
  Ledger::Span s(ledger, "nn.predictor");
  Var p = ReluInPlace(r.pred[0]->Forward(xg));
  p = ReluInPlace(r.pred[1]->Forward(p));
  return Reshape(r.pred[2]->Forward(p), {n});
}

/// ExtremeDegreeModule::ForwardInto(...).d_next, GRU calls in spans.
Var ExtremeForward(const ModelReplica& r, const Var& f, const Var& f_mu,
                   const Var& f_sigma, Ledger* ledger) {
  Ledger::Span span(ledger, "core.extreme");
  const int64_t n = kRegions, l = kHistory;
  Var h = nn::ZeroState(n, r.gru->hidden_size());
  Var d;
  for (int64_t w = 0; w < kWindows; ++w) {
    Var e = r.extreme->ExtremeDegree(Reshape(Slice(f, 0, w, w + 1), {n, l}),
                                     Reshape(Slice(f_mu, 0, w, w + 1), {n, l}),
                                     Reshape(Slice(f_sigma, 0, w, w + 1), {n, l}));
    {
      Ledger::Span s(ledger, "nn.gru");
      h = r.gru->Forward(e, h);
    }
    d = Reshape(Tanh(r.head->Forward(h)), {n});
  }
  return d;
}

bool BitEqual(const Tensor& a, const Tensor& b) {
  if (a.numel() != b.numel()) return false;
  return std::equal(a.data(), a.data() + a.numel(), b.data());
}

// ---------------------------------------------------------------------------

struct Stack {
  data::SlidingWindowDataset dataset;
  std::unique_ptr<core::EalgapForecaster> model;
  std::unique_ptr<serve::OnlinePredictor> online;
  std::unique_ptr<serve::ResilientPredictor> served;
  int64_t first_step = 0;
};

std::unique_ptr<Stack> BuildStack(uint64_t seed, int64_t ops, Ledger* ledger) {
  auto stack = std::make_unique<Stack>();
  data::RegionSeriesConfig series_config;
  series_config.num_regions = kRegions;
  series_config.num_days = static_cast<int>(
      std::max<int64_t>(40, (ops + 1) / kStepsPerDay + 7));
  series_config.seed = seed;
  data::MobilitySeries series;
  {
    Ledger::Span s(ledger, "data.series");
    series = data::GenerateRegionSeries(series_config);
  }
  data::StepRanges split;
  {
    Ledger::Span s(ledger, "data.dataset");
    data::DatasetOptions options;
    options.history_length = kHistory;
    options.num_windows = kWindows;
    options.norm_history = 3;
    auto dataset = data::SlidingWindowDataset::Create(std::move(series), options);
    Gate(dataset.ok(), "serve_10k_dataset", dataset.status().ToString());
    stack->dataset = std::move(dataset).value();
    auto s2 = data::MakeChronoSplit(stack->dataset);
    Gate(s2.ok(), "serve_10k_split", s2.status().ToString());
    split = *s2;
  }
  Ledger::Span s(ledger, "serve.create");
  // Untrained: Fit with epochs=0 sets shapes and the input scale only;
  // weight values do not change the cost of a serve step.
  stack->model = std::make_unique<core::EalgapForecaster>();
  TrainConfig train;
  train.epochs = 0;
  train.seed = seed;
  Status fit = stack->model->Fit(stack->dataset, split, train);
  Gate(fit.ok(), "serve_10k_fit", fit.ToString());
  stack->first_step = stack->dataset.MinTargetStep();
  auto online = serve::OnlinePredictor::Create(stack->model.get(),
                                               stack->dataset, stack->first_step);
  Gate(online.ok(), "serve_10k_predictor", online.status().ToString());
  stack->online =
      std::make_unique<serve::OnlinePredictor>(std::move(online).value());
  stack->served = std::make_unique<serve::ResilientPredictor>(stack->online.get());
  const int64_t total = stack->dataset.series().total_steps();
  Gate(stack->first_step + ops <= total, "serve_10k_series_length",
       std::to_string(ops) + " ops need more steps than the series holds");
  return stack;
}

/// Served-value accounting shared by the untraced and traced loops.
struct Served {
  int64_t ops = 0;
  int64_t fallback = 0;
  double abs_err = 0.0, truth_sum = 0.0;  // ErrorRate numerator/denominator
  uint32_t crc = 0;
};

void Account(const serve::ServedPrediction& out, const std::vector<double>& truth,
             Served* acc) {
  for (double v : out.values) {
    Gate(std::isfinite(v), "serve_10k_finite_values",
         "non-finite served value at op " + std::to_string(acc->ops));
  }
  if (out.source != serve::FallbackLevel::kFullModel) ++acc->fallback;
  // stats::ErrorRate per step, recombined over steps by its denominator.
  double truth_sum = 0.0;
  for (double t : truth) truth_sum += t;
  const double denom = std::max(truth_sum, 1.0);
  acc->abs_err += stats::ErrorRate(out.values, truth) * denom;
  acc->truth_sum += denom;
  acc->crc = Crc32(out.values.data(), out.values.size() * sizeof(double), acc->crc);
  ++acc->ops;
}

std::vector<double> Truth(const data::SlidingWindowDataset& ds, int64_t step) {
  const std::vector<float> row = ds.StepCounts(step);
  return std::vector<double>(row.begin(), row.end());
}

}  // namespace

std::string CheckWorkCounts() {
  const double n = kRegions, l = kHistory, m = kWindows, h = kGruHidden;
  const ModelWork w = CountModelWork(n, l, m);
  // Hand count: six gate Linears per window, three on the (N, L) input and
  // three on the (N, H) state.
  const double gru_hand = m * (3 * n * l * h + 3 * n * h * h);
  if (w.gru.macs != gru_hand) {
    return "GRU MACs " + std::to_string(w.gru.macs) + " != hand count " +
           std::to_string(gru_hand);
  }
  const double total = w.TotalMacs();
  if (total < 40e6 || total > 50e6) {
    return "serve-step MACs " + std::to_string(total) + " not ~45M";
  }
  const double gru_share = w.gru.macs / total;
  if (gru_share < 0.6 || gru_share > 0.72) {
    return "GRU share of MACs " + std::to_string(gru_share) + " not ~2/3";
  }
  return "";
}

Outcome RunServe10k(const RunSpec& spec) {
  SetNumThreads(kPoolSize);
  Outcome outcome;
  Served acc;
  std::vector<double> setup_s;
  std::unique_ptr<Stack> stack;
  Ledger ledger;
  Ledger* traced = spec.trace ? &ledger : nullptr;
  // Traced runs split their time between an untraced phase (for the
  // tracing overhead) and a traced one whose ops are ~2.4x longer.
  const int64_t ops = spec.trace ? OpsFor(spec.seconds) / 3 : OpsFor(spec.seconds);
  const int64_t total_ops = spec.trace ? 2 * ops : ops;
  for (int i = 0; i < (spec.trace ? 1 : kServeSetupRepeats); ++i) {
    stack.reset();
    const auto t0 = Clock::now();
    stack = BuildStack(spec.seed, total_ops, traced);
    setup_s.push_back(MsBetween(t0, Clock::now()) / 1e3);
  }

  serve::ServedPrediction out;
  std::vector<double> untraced_ms, traced_ms;
  ModelReplica replica;
  Arena arena(size_t{64} << 20);
  std::vector<data::WindowSample> samples;
  if (spec.trace) {
    replica = MakeReplica(spec.seed);
    for (int i = 0; i < 4; ++i) {
      samples.push_back(stack->dataset.MakeSample(stack->first_step + i));
    }
    // The recomposed forwards must equal the modules' own forwards.
    NoGradGuard no_grad;
    const data::WindowSample& s = samples[0];
    Var x = Var::Leaf(s.x), f = Var::Leaf(s.f), mu = Var::Leaf(s.f_mu),
        sg = Var::Leaf(s.f_sigma);
    Gate(BitEqual(GlobalForward(replica, x, nullptr).value(),
                  replica.global->Forward(x).xg_next.value()),
         "replica_matches_global_module");
    Gate(BitEqual(ExtremeForward(replica, f, mu, sg, nullptr).value(),
                  replica.extreme->Forward(f, mu, sg).d_next.value()),
         "replica_matches_extreme_module");
  }

  ResetPeakRss();
  double loop_s = 0.0;
  for (int64_t i = 0; i < total_ops; ++i) {
    const bool trace_op = spec.trace && i >= ops;
    const int64_t step = stack->first_step + i;
    const std::vector<double> truth = Truth(stack->dataset, step);
    Ledger* l = trace_op ? traced : nullptr;
    if (trace_op) ledger.NextGroup();
    const auto t0 = Clock::now();
    Status st;
    {
      Ledger::Span s(l, "serve.predict");
      st = stack->served->PredictNextInto(&out);
    }
    Gate(st.ok(), "serve_10k_predict", st.ToString());
    {
      Ledger::Span s(l, "serve.observe");
      st = stack->served->Observe(truth);
    }
    const auto t1 = Clock::now();
    Gate(st.ok(), "serve_10k_observe", st.ToString());
    const double ms = MsBetween(t0, t1);
    loop_s += ms / 1e3;
    (trace_op ? traced_ms : untraced_ms).push_back(ms);
    Account(out, truth, &acc);
    if (trace_op) {
      const data::WindowSample& s = samples[static_cast<size_t>(i) % samples.size()];
      const Arena::Mark mark = arena.Checkpoint();
      {
        NoGradGuard no_grad;
        ArenaScope scope(&arena);
        Var x = Var::Leaf(s.x), f = Var::Leaf(s.f), mu = Var::Leaf(s.f_mu),
            sg = Var::Leaf(s.f_sigma);
        Var g = GlobalForward(replica, x, traced);
        Var d = ExtremeForward(replica, f, mu, sg, traced);
      }
      arena.Rewind(mark);
    }
  }
  outcome.attempted = acc.ops;
  outcome.failed = acc.fallback;
  outcome.outputs["quality_er"] = std::to_string(acc.abs_err / acc.truth_sum);
  outcome.outputs["failed_share"] =
      std::to_string(static_cast<double>(acc.fallback) / acc.ops);
  outcome.outputs["output_crc"] = Crc32Hex(acc.crc);
  outcome.info["ops"] = std::to_string(acc.ops);

  if (!spec.trace) {
    const Latency lat = Summarize(untraced_ms);
    outcome.info["tail_pct"] = std::to_string(lat.tail_pct);
    outcome.metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"op_p50_ms", lat.p50_ms, "ms"},
        {"op_tail_ms", lat.tail_ms, "ms"},
        {"throughput_per_s", acc.ops / loop_s, "1/s"},
        {"peak_rss_mb", PeakRssMb(), "MiB"},
    };
    return outcome;
  }

  const auto rows = ledger.Reduce();
  const ModelWork work = CountModelWork(kRegions, kHistory, kWindows);
  const std::map<std::string, Work> work_rows = {
      {"stats.pdf", work.pdf.work},         {"nn.decoder", work.decoder.work},
      {"core.attention", work.attention.work}, {"nn.predictor", work.predictor.work},
      {"nn.gru", work.gru.work},            {"core.extreme", work.extreme.work},
  };
  PrintLedger("serve_10k", rows, work_rows);
  const double step_p50 = Median(traced_ms);
  double model_ms = 0.0;
  for (const char* row : {"core.global", "stats.pdf", "nn.decoder", "core.attention",
                          "nn.predictor", "core.extreme", "nn.gru"}) {
    model_ms += RowMs(rows, row);
  }
  auto& m = outcome.metrics;
  m.push_back({"serve.predict_ms", RowMs(rows, "serve.predict"), "ms"});
  m.push_back({"serve.observe_ms", RowMs(rows, "serve.observe"), "ms"});
  m.push_back({"serve.residual_ms",
               step_p50 - RowMs(rows, "serve.observe") - model_ms, "ms"});
  for (const char* row : {"core.global", "stats.pdf", "nn.decoder", "core.attention",
                          "nn.predictor", "core.extreme", "nn.gru"}) {
    m.push_back({std::string(row) + "_ms", RowMs(rows, row), "ms"});
  }
  for (const auto& [row, w] : work_rows) {
    m.push_back({row + ".flops", w.flops, "flop"});
    m.push_back({row + ".bytes", w.bytes, "B"});
    m.push_back({row + ".gflops", w.flops / (RowMs(rows, row) * 1e6), "GFLOP/s"});
  }
  for (const char* row : {"data.series", "data.dataset", "serve.create"}) {
    m.push_back({std::string(row) + "_ms", RowMs(rows, row), "ms"});
  }
  m.push_back({"trace.serve_10k_overhead_ms", step_p50 - Median(untraced_ms), "ms"});
  std::printf("ledger serve_10k: step p50 %.3f ms (untraced %.3f ms), model rows "
              "%.3f ms, residual %.3f ms\n",
              step_p50, Median(untraced_ms), model_ms,
              step_p50 - RowMs(rows, "serve.observe") - model_ms);
  return outcome;
}

}  // namespace ledgerbench
