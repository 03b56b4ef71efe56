#include "core/global_impact.h"

#include "common/logging.h"

namespace ealgap {
namespace core {

GlobalImpactModule::GlobalImpactModule(int64_t num_regions,
                                       int64_t history_length, int64_t hidden,
                                       Rng& rng,
                                       stats::DistributionFamily family,
                                       int64_t attention_dim)
    : n_(num_regions),
      l_(history_length),
      j_(attention_dim),
      family_(family),
      dec1_(num_regions * history_length, hidden, rng),
      dec2_(hidden, hidden, rng),
      dec3_(hidden, num_regions * 3 * attention_dim, rng),
      pred1_(history_length, hidden, rng),
      pred2_(hidden, hidden, rng),
      pred3_(hidden, 1, rng) {
  EALGAP_CHECK_GE(attention_dim, 1);
  RegisterModule("dec1", &dec1_);
  RegisterModule("dec2", &dec2_);
  RegisterModule("dec3", &dec3_);
  if (j_ > 1) {
    combine_ = std::make_unique<nn::Linear>(j_, 1, rng);
    RegisterModule("combine", combine_.get());
  }
  RegisterModule("pred1", &pred1_);
  RegisterModule("pred2", &pred2_);
  RegisterModule("pred3", &pred3_);
  // Start the attention parameters near identity (W^Q=W^K=W^V ~ 1) and the
  // prediction head positive, so Eq. (11)'s outer ReLU does not begin in
  // its dead zone on non-negative count data.
  const_cast<Tensor&>(dec3_.bias().value()).Fill(1.f);
  const_cast<Tensor&>(pred3_.bias().value()).Fill(1.f);
}

GlobalImpactModule::Output GlobalImpactModule::Forward(const Var& x) const {
  EALGAP_CHECK_EQ(x.value().ndim(), 2);
  const int64_t rows = x.value().dim(0);
  const int64_t l = x.value().dim(1);
  EALGAP_CHECK_EQ(rows % n_, 0);
  EALGAP_CHECK_EQ(l, l_);
  const int64_t b = rows / n_;

  // A-1: densities under the per-region fitted distribution (Eqs. 3-4).
  // The fit is a data transformation: gradients flow through the attention
  // parameters produced from Z, not through the fit itself.
  Tensor z = stats::RowwisePdf(x.value(), family_);
  Var zv = Var::Leaf(std::move(z));
  // Three FC layers interleaved with Softmax decode each sample's citywide
  // density pattern into per-region attention parameters (Eq. 5).
  Var h = SoftmaxLastDim(dec1_.Forward(Reshape(zv, {b, n_ * l})));
  h = SoftmaxLastDim(dec2_.Forward(h));
  Var w = Reshape(dec3_.Forward(h), {rows, 3 * j_});  // per-region W^Q/K/V

  // A-2: per-region temporal self-attention (Eq. 6). Q[n,l,:] is the
  // scalar history value projected by the region's J-vector (I = 1).
  Var xg3 = RegionAttention(x.value(), w, j_);  // (B·N, L, J)
  Output out;
  if (j_ == 1) {
    out.xg_history = Reshape(xg3, {rows, l});
  } else {
    out.xg_history = Reshape(combine_->Forward(xg3), {rows, l});
  }

  // Eq. 7: three FC layers with ReLU predict X̂g[:, t+1].
  Var p = ReluInPlace(pred1_.Forward(out.xg_history));
  p = ReluInPlace(pred2_.Forward(p));
  out.xg_next = Reshape(pred3_.Forward(p), {rows});
  return out;
}

}  // namespace core
}  // namespace ealgap
