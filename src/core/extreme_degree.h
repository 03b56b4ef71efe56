#ifndef EALGAP_CORE_EXTREME_DEGREE_H_
#define EALGAP_CORE_EXTREME_DEGREE_H_

#include <vector>

#include "common/rng.h"
#include "nn/linear.h"
#include "nn/module.h"
#include "nn/rnn_cells.h"
#include "tensor/autograd.h"

namespace ealgap {
namespace core {

/// Extreme Degree and Local Impact Modeling Module (paper Sec. V-B, Fig. 9).
///
/// B-1: the extreme degree of each (region, step) is the temporally-matched
/// instance normalization of Eq. (9):
///     D[n,l] = gamma_n * (X[n,l] - mu[n,l]) / sqrt(sigma^2[n,l] + eps_n)
/// followed by tanh; mu/sigma come from the same time step of day on the
/// same day type (precomputed by the dataset), and gamma_n / eps_n are
/// learnable per-region parameters.
///
/// B-2: the extreme degrees E_1..E_M of the M day-offset windows feed a GRU
/// (regions as batch, one window per GRU step, hidden state carried across
/// windows, Eq. 10); a linear head with tanh emits D̂[:, t+1] in [-1, 1].
///
/// Every input may hold B samples stacked on the region axis (B·N rows,
/// sample b's regions at rows b·N .. b·N+N-1; one sample is B = 1). Each
/// row is computed as it would be alone, and gamma/eps broadcast over the
/// batch.
class ExtremeDegreeModule : public nn::Module {
 public:
  ExtremeDegreeModule(int64_t num_regions, int64_t history_length,
                      int64_t gru_hidden, Rng& rng);

  struct Output {
    Var d_next;  ///< (B·N) predicted extreme degree at t+1
    /// Eq. (10): after consuming window m the GRU predicts the extreme
    /// degree one step past that window, D[:, t - T(M-m) + 1]; each entry
    /// is (B·N) and the last equals d_next.
    std::vector<Var> d_steps;
  };

  /// f, f_mu, f_sigma: (M, B·N, L) windows with aligned matched statistics
  /// (model space; the degree is scale-invariant).
  Output Forward(const Var& f, const Var& f_mu, const Var& f_sigma) const;

  /// Eq. (9) + tanh on (..., B·N, C) inputs of one shape.
  Var ExtremeDegree(const Var& x, const Var& mu, const Var& sigma) const;

 private:
  int64_t n_;
  Var gamma_;    // (N, 1)
  Var epsilon_;  // (N, 1), used as |eps| + floor inside the sqrt
  nn::GruCell gru_;
  nn::Linear head_;
};

}  // namespace core
}  // namespace ealgap

#endif  // EALGAP_CORE_EXTREME_DEGREE_H_
