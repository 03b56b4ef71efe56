#include "core/ealgap.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <sstream>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "core/extreme_degree.h"
#include "core/global_impact.h"
#include "nn/linear.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"

namespace ealgap {
namespace core {

struct EalgapForecaster::Net : nn::Module {
  Net(const EalgapOptions& opts, int64_t n, int64_t l, Rng& rng) {
    if (opts.use_global_attention) {
      global = std::make_unique<GlobalImpactModule>(
          n, l, opts.hidden, rng, opts.family, opts.attention_dim);
      RegisterModule("global", global.get());
    } else {
      // Ablation (iii): two Dense layers with ReLU predict the global
      // impacts (paper Sec. VI-C).
      mlp1 = std::make_unique<nn::Linear>(l, opts.hidden, rng);
      mlp2 = std::make_unique<nn::Linear>(opts.hidden, 1, rng);
      RegisterModule("mlp1", mlp1.get());
      RegisterModule("mlp2", mlp2.get());
    }
    if (opts.use_extreme) {
      extreme =
          std::make_unique<ExtremeDegreeModule>(n, l, opts.gru_hidden, rng);
      RegisterModule("extreme", extreme.get());
    }
    if (global && extreme && opts.attention_dim == 1 &&
        l <= kernels::kEalgapServeMaxHistory &&
        opts.hidden <= kernels::kEalgapServeMaxHidden &&
        opts.gru_hidden <= kernels::kEalgapServeMaxGru) {
      fused = std::make_unique<FusedParams>(*this);
    }
  }

  /// Handles on the parameters the fused serve pass reads. A Var shares
  /// its parameter's node, so every call reads the live values: optimizer
  /// steps, RestoreParams and adaptation commits all write in place, and
  /// LoadCheckpoint rebuilds the Net (and with it these handles).
  struct FusedParams {
    explicit FusedParams(const Net& net) {
      std::map<std::string, Var> p;
      for (auto& [name, var] : net.NamedParameters()) p.emplace(name, var);
      auto get = [&p](const std::string& name) {
        auto it = p.find(name);
        EALGAP_CHECK(it != p.end()) << "no parameter " << name;
        return it->second;
      };
      for (int i = 0; i < 3; ++i) {
        const std::string dec = "global.dec" + std::to_string(i + 1);
        const std::string pred = "global.pred" + std::to_string(i + 1);
        dec_w[i] = get(dec + ".weight");
        dec_b[i] = get(dec + ".bias");
        pred_w[i] = get(pred + ".weight");
        pred_b[i] = get(pred + ".bias");
      }
      gamma = get("extreme.gamma");
      epsilon = get("extreme.epsilon");
      const char* const kGates[3][2] = {{"iz", "hz"}, {"ir", "hr"},
                                        {"in", "hn"}};
      for (int i = 0; i < 3; ++i) {
        const std::string gru = "extreme.gru.";
        gate_wx[i] = get(gru + kGates[i][0] + ".weight");
        gate_b[i] = get(gru + kGates[i][0] + ".bias");
        gate_wh[i] = get(gru + kGates[i][1] + ".weight");
      }
      head_w = get("extreme.head.weight");
      head_b = get("extreme.head.bias");
    }

    Var dec_w[3], dec_b[3], pred_w[3], pred_b[3];
    Var gamma, epsilon;
    Var gate_wx[3], gate_b[3], gate_wh[3];
    Var head_w, head_b;
  };

  /// The serve forward of Forward() + InverseScale as one pass per block
  /// of regions, bit-identical to the graph path (DESIGN.md §8e). The
  /// PDF rows and the citywide decoder run as GlobalImpactModule::Forward
  /// runs them; ealgap_serve_rows does the rest per region.
  void ServeFused(const data::WindowSample& sample, float scale,
                  stats::DistributionFamily family,
                  std::vector<double>* out) const {
    const int64_t n = sample.x.dim(0);
    const int64_t l = sample.x.dim(1);
    // The kernel's stack buffers are sized by the checks at construction.
    EALGAP_CHECK_EQ(l, fused->pred_w[0].value().dim(0));
    EALGAP_CHECK_EQ(sample.f.dim(1), n);
    EALGAP_CHECK_EQ(sample.f.dim(2), l);
    EALGAP_CHECK(sample.f_mu.SameShape(sample.f) &&
                 sample.f_sigma.SameShape(sample.f));
    const float inv = 1.f / scale;
    const Tensor x = ops::MulScalar(sample.x, inv);
    Tensor h = stats::RowwisePdf(x, family).Reshape({1, n * l});
    for (int i = 0; i < 3; ++i) {
      const Tensor& b = fused->dec_b[i].value();
      h = ops::Add(ops::MatMul(h, fused->dec_w[i].value()),
                   b.Reshape({1, b.numel()}));
      if (i < 2) h = ops::SoftmaxLastDim(h);
    }
    kernels::EalgapServeArgs a;
    a.n = n;
    a.l = l;
    a.m = sample.f.dim(0);
    a.hidden = fused->pred_b[0].value().numel();
    a.gru = fused->gate_b[0].value().numel();
    a.x = x.data();
    a.f = sample.f.data();
    a.f_mu = sample.f_mu.data();
    a.f_sigma = sample.f_sigma.data();
    a.inv_scale = inv;
    a.scale = scale;
    a.wqkv = h.data();
    for (int i = 0; i < 3; ++i) {
      a.pred_w[i] = fused->pred_w[i].value().data();
      a.pred_b[i] = fused->pred_b[i].value().data();
      a.gate_wx[i] = fused->gate_wx[i].value().data();
      a.gate_b[i] = fused->gate_b[i].value().data();
      a.gate_wh[i] = fused->gate_wh[i].value().data();
    }
    a.gamma = fused->gamma.value().data();
    a.epsilon = fused->epsilon.value().data();
    a.head_w = fused->head_w.value().data();
    a.head_b = fused->head_b.value().data();
    out->resize(n);
    a.out = out->data();
    const kernels::KernelTable& t = kernels::Active();
    // Regions are independent, so any split gives the same bits.
    ParallelFor(0, n, kFusedGrain, [&t, &a](int64_t r0, int64_t r1) {
      t.ealgap_serve_rows(a, r0, r1);
    });
  }

  /// Regions per ParallelFor chunk of the fused pass (~0.3 ms of work).
  static constexpr int64_t kFusedGrain = 512;

  // All inputs in model space. Returns the (N) prediction; when `d_steps`
  // is non-null (training with degree supervision) it receives Eq. (10)'s
  // per-window degree predictions. The serve path passes nullptr, so the
  // per-step forward builds no vectors at all: the extreme module fills a
  // thread-local scratch Output that is cleared before returning (its Vars
  // are arena-backed under a serve ArenaScope and must not outlive it).
  Var Forward(const Var& x, const Var& f, const Var& f_mu, const Var& f_sigma,
              std::vector<Var>* d_steps) const {
    const int64_t n = x.value().dim(0);
    Var xg_next;
    if (global) {
      xg_next = global->Forward(x).xg_next;
    } else {
      xg_next = Reshape(mlp2->Forward(ReluInPlace(mlp1->Forward(x))), {n});
    }
    if (!extreme) {
      // ablation (ii): global impacts only
      return ReluInPlace(std::move(xg_next));
    }
    static thread_local ExtremeDegreeModule::Output ed;
    extreme->ForwardInto(f, f_mu, f_sigma, &ed);
    // Eq. (11): X̂ = ReLU(X̂g + X̂g ⊙ D̂). In serving (no grad) the ReLU
    // overwrites the sum's buffer instead of allocating a per-step temporary.
    Var result = ReluInPlace(Add(xg_next, Mul(xg_next, ed.d_next)));
    if (d_steps != nullptr) *d_steps = ed.d_steps;
    ed.d_next = Var();
    ed.e.clear();
    ed.d_steps.clear();
    return result;
  }

  std::unique_ptr<GlobalImpactModule> global;
  std::unique_ptr<nn::Linear> mlp1, mlp2;
  std::unique_ptr<ExtremeDegreeModule> extreme;
  std::unique_ptr<FusedParams> fused;  ///< null: serve on the graph path
};

EalgapForecaster::EalgapForecaster(EalgapOptions options)
    : options_(options) {}

EalgapForecaster::~EalgapForecaster() = default;

nn::Module* EalgapForecaster::module() { return net_.get(); }

void EalgapForecaster::Initialize(const data::SlidingWindowDataset& dataset,
                                  const data::StepRanges& split,
                                  const TrainConfig& config) {
  // Scale = std of the training slice (no centering: the global module
  // needs non-negative inputs for the exponential fit).
  Tensor train_slice =
      ops::Slice(dataset.series().counts, 1, 0, split.train_end);
  const float* p = train_slice.data();
  double ss = 0.0;
  for (int64_t i = 0; i < train_slice.numel(); ++i) ss += double(p[i]) * p[i];
  scale_ = static_cast<float>(
      std::sqrt(std::max(ss / train_slice.numel(), 1e-12)));
  num_regions_ = dataset.series().num_regions;
  history_length_ = dataset.options().history_length;
  Rng rng(config.seed);
  net_ = std::make_unique<Net>(options_, num_regions_, history_length_, rng);
}

Var EalgapForecaster::ForwardBatch(
    const std::vector<data::WindowSample>& batch) {
  const float inv = 1.f / scale_;
  // Thread-local scratch (ForwardBatch runs concurrently from EvaluateLoss
  // pool threads): capacity is reused across calls and every vector is
  // cleared before returning, so no Var survives a serve-path arena rewind
  // and the steady-state serve step performs zero heap allocations.
  static thread_local std::vector<Var> outs;
  static thread_local std::vector<Var> degree_losses;
  static thread_local std::vector<Var> d_steps;
  outs.clear();
  degree_losses.clear();
  outs.reserve(batch.size());
  const bool want_degree =
      net_->extreme && options_.degree_loss_weight > 0.f && GradEnabled();
  for (const data::WindowSample& sample : batch) {
    Var x = Var::Leaf(ops::MulScalar(sample.x, inv));
    Var f = Var::Leaf(ops::MulScalar(sample.f, inv));
    Var f_mu = Var::Leaf(ops::MulScalar(sample.f_mu, inv));
    Var f_sigma = Var::Leaf(ops::MulScalar(sample.f_sigma, inv));
    Var prediction = net_->Forward(x, f, f_mu, f_sigma,
                                   want_degree ? &d_steps : nullptr);
    outs.push_back(Reshape(prediction, {1, prediction.value().numel()}));
    // Eq. (10) supervision: each window's degree prediction is pulled
    // toward the realized degree one step past the window (computed with
    // the current gamma/eps, treated as a constant target).
    if (want_degree) {
      const int64_t m = sample.w_next.dim(0);
      const int64_t n = sample.w_next.dim(1);
      for (int64_t w = 0; w < m; ++w) {
        Var xw = Var::Leaf(
            ops::MulScalar(ops::Slice(sample.w_next, 0, w, w + 1), inv)
                .Reshape({n, 1}));
        Var mw = Var::Leaf(
            ops::MulScalar(ops::Slice(sample.w_next_mu, 0, w, w + 1), inv)
                .Reshape({n, 1}));
        Var sw = Var::Leaf(
            ops::MulScalar(ops::Slice(sample.w_next_sigma, 0, w, w + 1), inv)
                .Reshape({n, 1}));
        Var target = net_->extreme->ExtremeDegree(xw, mw, sw).Detach();
        Var diff = Sub(Reshape(d_steps[w], {n, 1}), target);
        degree_losses.push_back(MeanAll(Mul(diff, diff)));
      }
    }
  }
  // pending_degree_loss_ is only touched while gradients are recorded: the
  // no-grad evaluation/serving paths (EvaluateLoss, PredictSample) call
  // ForwardBatch concurrently from the thread pool, and an unconditional
  // reset here would be a data race.
  if (!degree_losses.empty()) {
    Var total = degree_losses[0];
    for (size_t i = 1; i < degree_losses.size(); ++i) {
      total = Add(total, degree_losses[i]);
    }
    pending_degree_loss_ =
        MulScalar(total, 1.f / static_cast<float>(degree_losses.size()));
  } else if (GradEnabled()) {
    pending_degree_loss_ = Var();
  }
  Var result = Concat(outs, 0);  // (B, N)
  outs.clear();
  degree_losses.clear();
  d_steps.clear();
  return result;
}

void EalgapForecaster::ServeForwardInto(const data::WindowSample& sample,
                                        std::vector<double>* out) {
  if (!net_->fused) {
    NeuralForecaster::ServeForwardInto(sample, out);
    return;
  }
  net_->ServeFused(sample, scale_, options_.family, out);
}

Var EalgapForecaster::ComputeLoss(const Var& predictions,
                                  const Tensor& scaled_targets) {
  Var loss = NeuralForecaster::ComputeLoss(predictions, scaled_targets);
  if (pending_degree_loss_.defined()) {
    loss = Add(loss,
               MulScalar(pending_degree_loss_, options_.degree_loss_weight));
    pending_degree_loss_ = Var();
  }
  return loss;
}

Tensor EalgapForecaster::ScaleTargets(const Tensor& targets) const {
  return ops::MulScalar(targets, 1.f / scale_);
}

Tensor EalgapForecaster::InverseScale(const Tensor& predictions) const {
  return ops::MaximumScalar(ops::MulScalar(predictions, scale_), 0.f);
}

Status EalgapForecaster::EncodeConfig(CheckpointConfig* config) const {
  std::ostringstream scale;
  scale.precision(std::numeric_limits<float>::max_digits10);
  scale << scale_;
  std::ostringstream dlw;
  dlw.precision(std::numeric_limits<float>::max_digits10);
  dlw << options_.degree_loss_weight;
  config->emplace_back("use_global_attention",
                       options_.use_global_attention ? "1" : "0");
  config->emplace_back("use_extreme", options_.use_extreme ? "1" : "0");
  config->emplace_back(
      "family", options_.family == stats::DistributionFamily::kNormal
                    ? "normal"
                    : "exponential");
  config->emplace_back("hidden", std::to_string(options_.hidden));
  config->emplace_back("gru_hidden", std::to_string(options_.gru_hidden));
  config->emplace_back("attention_dim",
                       std::to_string(options_.attention_dim));
  config->emplace_back("degree_loss_weight", dlw.str());
  config->emplace_back("num_regions", std::to_string(num_regions_));
  config->emplace_back("history_length", std::to_string(history_length_));
  config->emplace_back("scale", scale.str());
  return Status::OK();
}

Status EalgapForecaster::DecodeConfig(
    const std::map<std::string, std::string>& config) {
  EalgapOptions opts;
  int64_t v = 0;
  EALGAP_RETURN_IF_ERROR(ConfigInt(config, "use_global_attention", 0, 1, &v));
  opts.use_global_attention = v == 1;
  EALGAP_RETURN_IF_ERROR(ConfigInt(config, "use_extreme", 0, 1, &v));
  opts.use_extreme = v == 1;
  auto family = config.find("family");
  if (family == config.end()) {
    return Status::ParseError("checkpoint config missing key family");
  }
  if (family->second == "exponential") {
    opts.family = stats::DistributionFamily::kExponential;
  } else if (family->second == "normal") {
    opts.family = stats::DistributionFamily::kNormal;
  } else {
    return Status::InvalidArgument("unknown distribution family " +
                                   family->second);
  }
  EALGAP_RETURN_IF_ERROR(ConfigInt(config, "hidden", 1, 1 << 16, &opts.hidden));
  EALGAP_RETURN_IF_ERROR(
      ConfigInt(config, "gru_hidden", 1, 1 << 16, &opts.gru_hidden));
  EALGAP_RETURN_IF_ERROR(
      ConfigInt(config, "attention_dim", 1, 1 << 10, &opts.attention_dim));
  EALGAP_RETURN_IF_ERROR(
      ConfigFloat(config, "degree_loss_weight", &opts.degree_loss_weight));
  int64_t n = 0, l = 0;
  EALGAP_RETURN_IF_ERROR(ConfigInt(config, "num_regions", 1, 1 << 20, &n));
  EALGAP_RETURN_IF_ERROR(ConfigInt(config, "history_length", 1, 1 << 16, &l));
  float scale = 1.f;
  EALGAP_RETURN_IF_ERROR(ConfigFloat(config, "scale", &scale));
  if (!(scale > 0.f) || !std::isfinite(scale)) {
    return Status::InvalidArgument("checkpoint scale must be positive");
  }
  options_ = opts;
  num_regions_ = n;
  history_length_ = l;
  scale_ = scale;
  // The initializer RNG is irrelevant: every parameter is overwritten by
  // the checkpoint's values right after this rebuild.
  Rng rng(0);
  net_ = std::make_unique<Net>(options_, num_regions_, history_length_, rng);
  return Status::OK();
}

}  // namespace core
}  // namespace ealgap
