#ifndef EALGAP_CORE_GLOBAL_IMPACT_H_
#define EALGAP_CORE_GLOBAL_IMPACT_H_

#include <memory>

#include "common/rng.h"
#include "nn/linear.h"
#include "nn/module.h"
#include "stats/distribution.h"
#include "tensor/autograd.h"

namespace ealgap {
namespace core {

/// Global Impact Modeling Module (paper Sec. V-A, Fig. 8).
///
/// A-1 ("Global Dominant Spatial Dependencies Generation"): the mobility of
/// each region over the last L steps is fitted to an exponential
/// distribution (MLE, Eq. 3); the probability densities Z (Eq. 4) of ALL
/// regions are decoded jointly by three Softmax-interleaved FC layers into
/// *temporally-varying* per-region attention parameters W^Q, W^K, W^V
/// (Eq. 5, I = J = 1 in the paper's study). Decoding from the citywide Z
/// is what makes the parameters spatial dependencies: each region's
/// attention is conditioned on every region's density pattern.
///
/// A-2: per-region temporal self-attention (Eq. 6) re-weights the recent
/// history into global impacts Xg[:, t-L+1:t], and three ReLU-interleaved
/// FC layers predict the next-step global impact X̂g[:, t+1] (Eq. 7).
class GlobalImpactModule : public nn::Module {
 public:
  /// `attention_dim` is the paper's J (Eq. 2): each region's query/key/value
  /// projections are J-dimensional; the study fixes J = 1, and J > 1 adds a
  /// learned combine layer over the J attention outputs (extension bench
  /// ext_attention_dim sweeps it).
  GlobalImpactModule(int64_t num_regions, int64_t history_length,
                     int64_t hidden, Rng& rng,
                     stats::DistributionFamily family =
                         stats::DistributionFamily::kExponential,
                     int64_t attention_dim = 1);

  struct Output {
    Var xg_history;  ///< (B·N, L) global impacts over the input window
    Var xg_next;     ///< (B·N)    predicted global impact at t+1
  };

  /// x: (B·N, L) model-space mobility (non-negative) of B samples stacked
  /// on the region axis (sample b's regions at rows b·N .. b·N+N-1; one
  /// sample is B = 1). The decoder reads each sample's (N·L) densities as
  /// one row; everything else is per region. Every row is computed as it
  /// would be alone. x is data: gradients reach the parameters, not x (the
  /// distribution fit and PDF evaluation are not differentiated through,
  /// matching the paper's data-driven parameter generation).
  Output Forward(const Var& x) const;

  stats::DistributionFamily family() const { return family_; }

 private:
  int64_t n_;
  int64_t l_;
  int64_t j_;
  stats::DistributionFamily family_;
  // Decoder: Z -> [W^Q, W^K, W^V]
  nn::Linear dec1_, dec2_, dec3_;
  // Combines the J attention outputs when J > 1.
  std::unique_ptr<nn::Linear> combine_;
  // Predictor: Xg[:, t-L+1:t] -> X̂g[:, t+1]
  nn::Linear pred1_, pred2_, pred3_;
};

}  // namespace core
}  // namespace ealgap

#endif  // EALGAP_CORE_GLOBAL_IMPACT_H_
