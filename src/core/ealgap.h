#ifndef EALGAP_CORE_EALGAP_H_
#define EALGAP_CORE_EALGAP_H_

#include <memory>
#include <string>

#include "baselines/neural.h"
#include "stats/distribution.h"

namespace ealgap {
namespace core {

/// Configuration of the EALGAP model, including the ablation switches of
/// the paper's Fig. 11.
struct EalgapOptions {
  /// (ii)/(iii): which modules participate. Both false is a valid model:
  /// the MLP global path with the ReLU output.
  bool use_global_attention = true;  ///< false = ablation (iii): plain MLP
  bool use_extreme = true;           ///< false = ablation (ii): global only
  /// (iv): distribution family fitted in the Global Impact Module.
  stats::DistributionFamily family = stats::DistributionFamily::kExponential;
  int64_t hidden = 32;      ///< FC width in the global module
  int64_t gru_hidden = 16;  ///< GRU width in the extreme-degree module
  int64_t attention_dim = 1;  ///< the paper's J (study uses 1)
  /// Weight of the per-window extreme-degree supervision (Eq. 10): each
  /// window's GRU output is trained toward the realized extreme degree one
  /// step past the window. Disabled by default — the ext_design_ablations
  /// bench shows end-to-end training of D̂ works better on this data.
  float degree_loss_weight = 0.f;
};

/// EALGAP: Extreme-Aware Local-Global Attention mobility predictor
/// (the paper's contribution, Sec. V).
///
/// Prediction (Eq. 11):
///   X̂[:, t+1] = ReLU( X̂g[:, t+1] + X̂g[:, t+1] ⊙ D̂[:, t+1] )
/// where X̂g comes from the Global Impact Modeling Module and D̂ from the
/// Extreme Degree and Local Impact Modeling Module. Trained end-to-end with
/// MSE. Internally the series is divided by its training standard deviation
/// (the extreme degree is invariant to this; the exponential fit stays
/// exponential), which stabilizes optimization on raw counts.
class EalgapForecaster : public NeuralForecaster {
 public:
  explicit EalgapForecaster(EalgapOptions options = {});
  ~EalgapForecaster() override;

  std::string name() const override { return "EALGAP"; }

  const EalgapOptions& options() const { return options_; }

 protected:
  void Initialize(const data::SlidingWindowDataset& dataset,
                  const data::StepRanges& split,
                  const TrainConfig& config) override;
  Var ForwardBatch(const std::vector<data::WindowSample>& batch) override;
  /// With both modules on and J = 1, one fused pass per block of regions
  /// (kernels::KernelTable::ealgap_serve_rows), bit-identical to the graph
  /// path; every other configuration serves through ForwardBatch.
  void ServeForwardInto(const data::WindowSample& sample,
                        std::vector<double>* out) override;
  Var ComputeLoss(const Var& predictions,
                  const Tensor& scaled_targets) override;
  Tensor ScaleTargets(const Tensor& targets) const override;
  Tensor InverseScale(const Tensor& predictions) const override;
  nn::Module* module() override;
  Status EncodeConfig(CheckpointConfig* config) const override;
  Status DecodeConfig(
      const std::map<std::string, std::string>& config) override;

 private:
  struct Net;
  EalgapOptions options_;
  int64_t num_regions_ = 0;      ///< N the net was built for
  int64_t history_length_ = 0;   ///< L the net was built for
  float scale_ = 1.f;  ///< training-data std used to normalize counts
  /// Auxiliary Eq. (10) loss from the most recent ForwardBatch; consumed by
  /// the immediately following ComputeLoss call.
  Var pending_degree_loss_;
  std::unique_ptr<Net> net_;
};

}  // namespace core
}  // namespace ealgap

#endif  // EALGAP_CORE_EALGAP_H_
