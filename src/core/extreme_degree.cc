#include "core/extreme_degree.h"

#include "common/logging.h"

namespace ealgap {
namespace core {

ExtremeDegreeModule::ExtremeDegreeModule(int64_t num_regions,
                                         int64_t history_length,
                                         int64_t gru_hidden, Rng& rng)
    : n_(num_regions),
      gru_(history_length, gru_hidden, rng),
      head_(gru_hidden, 1, rng) {
  gamma_ = RegisterParameter("gamma", Tensor::Ones({num_regions, 1}));
  epsilon_ = RegisterParameter("epsilon",
                               Tensor::Full({num_regions, 1}, 1e-2f));
  RegisterModule("gru", &gru_);
  RegisterModule("head", &head_);
}

Var ExtremeDegreeModule::ExtremeDegree(const Var& x, const Var& mu,
                                       const Var& sigma) const {
  const Shape& shape = x.value().shape();
  EALGAP_CHECK_GE(shape.size(), 2u);
  const int64_t c = shape.back();
  EALGAP_CHECK_EQ(shape[shape.size() - 2] % n_, 0);
  // (..., B·N, C) -> (S, N, C), so the (N, 1) gamma and eps broadcast over
  // every sample and window; their gradients sum back over them.
  const Shape blocks = {x.value().numel() / (n_ * c), n_, c};
  // sqrt(sigma^2 + |eps| + floor): |eps| keeps the learnable offset
  // positive, the floor keeps constant histories finite.
  Var s = Reshape(sigma, blocks);
  Var var = Add(Mul(s, s), AddScalar(Abs(epsilon_), 1e-4f));
  Var d = Div(Sub(Reshape(x, blocks), Reshape(mu, blocks)), Sqrt(var));
  return Reshape(Tanh(Mul(d, gamma_)), shape);
}

ExtremeDegreeModule::Output ExtremeDegreeModule::Forward(
    const Var& f, const Var& f_mu, const Var& f_sigma) const {
  EALGAP_CHECK_EQ(f.value().ndim(), 3);
  const int64_t m = f.value().dim(0);
  const int64_t rows = f.value().dim(1);
  const int64_t l = f.value().dim(2);

  // Eq. (9) over all M windows at once: elementwise, so each window's
  // degrees are the bits a per-window call would give.
  Var e = ExtremeDegree(f, f_mu, f_sigma);  // (M, B·N, L)
  Output out;
  out.d_steps.reserve(m);
  Var h = nn::ZeroState(rows, gru_.hidden_size());
  for (int64_t w = 0; w < m; ++w) {
    // Eq. (10): the hidden state of window m seeds window m+1, and each
    // window emits a prediction of the degree one step past its end.
    h = gru_.Forward(Reshape(Slice(e, 0, w, w + 1), {rows, l}), h);
    out.d_steps.push_back(Reshape(Tanh(head_.Forward(h)), {rows}));
  }
  out.d_next = out.d_steps.back();
  return out;
}

}  // namespace core
}  // namespace ealgap
