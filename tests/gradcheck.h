#ifndef EALGAP_TESTS_GRADCHECK_H_
#define EALGAP_TESTS_GRADCHECK_H_

#include <cmath>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "nn/module.h"
#include "tensor/autograd.h"

namespace ealgap {
namespace testing {

/// Checks analytic gradients against central finite differences.
///
/// `fn` maps the leaf Vars (built fresh from `inputs` on every call) to a
/// scalar Var. Each input element is perturbed by +/-eps; the numeric slope
/// must match the gradient from Backward() within `tol` (absolute +
/// relative).
inline void ExpectGradientsMatch(
    std::vector<Tensor> inputs,
    const std::function<Var(std::vector<Var>&)>& fn, float eps = 1e-3f,
    float tol = 2e-2f) {
  // Analytic pass.
  std::vector<Var> leaves;
  leaves.reserve(inputs.size());
  for (Tensor& t : inputs) {
    leaves.push_back(Var::Leaf(t.Clone(), /*requires_grad=*/true));
  }
  Var out = fn(leaves);
  ASSERT_EQ(out.value().numel(), 1) << "gradcheck needs a scalar output";
  Backward(out);

  for (size_t i = 0; i < inputs.size(); ++i) {
    const Tensor& analytic = leaves[i].grad();
    for (int64_t j = 0; j < inputs[i].numel(); ++j) {
      const float orig = inputs[i].data()[j];
      auto eval = [&](float v) {
        NoGradGuard no_grad;
        inputs[i].data()[j] = v;
        std::vector<Var> ls;
        ls.reserve(inputs.size());
        for (Tensor& t : inputs) ls.push_back(Var::Leaf(t.Clone(), false));
        Var o = fn(ls);
        return o.value().data()[0];
      };
      const float up = eval(orig + eps);
      const float down = eval(orig - eps);
      inputs[i].data()[j] = orig;
      const float numeric = (up - down) / (2 * eps);
      const float got = analytic.data()[j];
      const float scale = std::max({1.f, std::fabs(numeric), std::fabs(got)});
      EXPECT_NEAR(got, numeric, tol * scale)
          << "input " << i << " element " << j;
    }
  }
}

/// Checks the analytic gradients of a module's *parameters* against central
/// finite differences.
///
/// Unlike ExpectGradientsMatch, the leaves here are the module's registered
/// parameters (gamma/epsilon of ExtremeDegreeModule, the six Linears of a
/// GruCell, ...). `fn` runs a forward pass over the live module and returns
/// a scalar Var; it is re-evaluated with each parameter element perturbed
/// in place by +/-eps. The re-evaluations record the graph as the analytic
/// pass does, because a loss may hold terms that only training computes
/// (EALGAP's Eq. 10 degree loss). Parameters for which `skip` returns true
/// are not checked.
inline void ExpectParameterGradientsMatch(
    nn::Module& module, const std::function<Var()>& fn, float eps = 1e-3f,
    float tol = 2e-2f,
    const std::function<bool(const std::string&)>& skip = nullptr) {
  module.ZeroGrad();
  Var out = fn();
  ASSERT_EQ(out.value().numel(), 1) << "gradcheck needs a scalar output";
  Backward(out);

  auto params = module.NamedParameters();
  ASSERT_FALSE(params.empty()) << "module has no parameters to check";
  for (auto& [name, p] : params) {
    if (skip && skip(name)) continue;
    Tensor& value = const_cast<Tensor&>(p.value());
    const Tensor& analytic = p.grad();
    ASSERT_TRUE(analytic.defined()) << name << " received no gradient";
    for (int64_t j = 0; j < value.numel(); ++j) {
      const float orig = value.data()[j];
      auto eval = [&](float v) {
        value.data()[j] = v;
        Var o = fn();
        return o.value().data()[0];
      };
      const float up = eval(orig + eps);
      const float down = eval(orig - eps);
      value.data()[j] = orig;
      const float numeric = (up - down) / (2 * eps);
      const float got = analytic.data()[j];
      const float scale = std::max({1.f, std::fabs(numeric), std::fabs(got)});
      EXPECT_NEAR(got, numeric, tol * scale)
          << "parameter " << name << " element " << j;
    }
  }
}

}  // namespace testing
}  // namespace ealgap

#endif  // EALGAP_TESTS_GRADCHECK_H_
