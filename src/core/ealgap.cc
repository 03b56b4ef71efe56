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

namespace {

/// One field of every sample, stacked on its region axis (`axis`) and
/// scaled into model space: (N, L) -> (B·N, L), (M, N, ...) -> (M, B·N, ...).
Tensor StackRegions(const std::vector<data::WindowSample>& batch,
                    Tensor data::WindowSample::*field, int64_t axis,
                    float inv) {
  const Tensor& first = batch[0].*field;
  Shape shape = first.shape();
  int64_t windows = 1;
  for (int64_t d = 0; d < axis; ++d) windows *= shape[d];
  const int64_t chunk = first.numel() / windows;
  const int64_t b = static_cast<int64_t>(batch.size());
  shape[axis] *= b;
  Tensor out(shape);
  float* po = out.data();
  for (int64_t i = 0; i < b; ++i) {
    const Tensor& t = batch[i].*field;
    EALGAP_CHECK(t.SameShape(first));
    for (int64_t w = 0; w < windows; ++w) {
      const float* src = t.data() + w * chunk;
      float* dst = po + (w * b + i) * chunk;
      for (int64_t j = 0; j < chunk; ++j) dst[j] = src[j] * inv;
    }
  }
  return out;
}

}  // namespace

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
  EALGAP_CHECK(!batch.empty());
  EALGAP_CHECK_EQ(batch[0].x.dim(0), num_regions_);
  const float inv = 1.f / scale_;
  const int64_t b = static_cast<int64_t>(batch.size());
  const int64_t rows = b * num_regions_;
  // One graph for the whole batch, its samples stacked on the region axis
  // in model space. Every op below is row-independent (per-row fits and
  // softmaxes, row-wise matmuls, elementwise math), so each sample's
  // prediction is the bits a one-sample batch gives.
  Var x = Var::Leaf(StackRegions(batch, &data::WindowSample::x, 0, inv));
  Var xg_next;
  if (net_->global) {
    xg_next = net_->global->Forward(x).xg_next;
  } else {
    xg_next = Reshape(net_->mlp2->Forward(ReluInPlace(net_->mlp1->Forward(x))),
                      {rows});
  }
  Var prediction;
  Var degree_loss;
  if (!net_->extreme) {
    // ablation (ii): global impacts only
    prediction = ReluInPlace(std::move(xg_next));
  } else {
    auto windows = [&](Tensor data::WindowSample::*field) {
      return Var::Leaf(StackRegions(batch, field, 1, inv));
    };
    ExtremeDegreeModule::Output ed = net_->extreme->Forward(
        windows(&data::WindowSample::f), windows(&data::WindowSample::f_mu),
        windows(&data::WindowSample::f_sigma));
    // Eq. (11): X̂ = ReLU(X̂g + X̂g ⊙ D̂). In serving (no grad) the ReLU
    // overwrites the sum's buffer instead of allocating a temporary.
    prediction = ReluInPlace(Add(xg_next, Mul(xg_next, ed.d_next)));
    if (options_.degree_loss_weight > 0.f && GradEnabled()) {
      // Eq. (10) supervision: each window's degree prediction is pulled
      // toward the realized degree one step past the window (computed with
      // the current gamma/eps, treated as a constant target). The loss is
      // the mean over samples of each sample's mean over its windows and
      // regions, so a batch's loss is the mean of its one-sample losses.
      const int64_t m = static_cast<int64_t>(ed.d_steps.size());
      auto next = [&](Tensor data::WindowSample::*field) {
        return Reshape(windows(field), {m, rows, 1});
      };
      Var target = net_->extreme
                       ->ExtremeDegree(next(&data::WindowSample::w_next),
                                       next(&data::WindowSample::w_next_mu),
                                       next(&data::WindowSample::w_next_sigma))
                       .Detach();
      Var diff = Sub(Reshape(Stack(ed.d_steps), {m, rows, 1}), target);
      Var sq = Reshape(Mul(diff, diff), {m, b, num_regions_});
      degree_loss = MeanAll(MeanAxis(MeanAxis(sq, 2), 0));
    }
  }
  // pending_degree_loss_ is only touched while gradients are recorded: the
  // no-grad evaluation/serving paths (EvaluateLoss, PredictSample) call
  // ForwardBatch concurrently from the thread pool, and an unconditional
  // write here would be a data race.
  if (GradEnabled()) pending_degree_loss_ = degree_loss;
  return Reshape(prediction, {b, num_regions_});
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
