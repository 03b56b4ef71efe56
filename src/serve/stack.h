#ifndef EALGAP_SERVE_STACK_H_
#define EALGAP_SERVE_STACK_H_

#include <memory>
#include <optional>

#include "baselines/forecaster.h"
#include "baselines/neural.h"
#include "common/result.h"
#include "serve/adaptive_predictor.h"

namespace ealgap {
namespace serve {

/// Which optional wrappers serve a base model. Each field is an option the
/// front ends already expose (`--adapt*`); an empty spec serves the base
/// model itself.
struct StackSpec {
  std::optional<AdaptOptions> adapt;
};

/// A base model and the wrappers a StackSpec put around it:
///
///   base -> [AdaptivePredictor ->] top()
///
/// The stack owns every layer. The wrapper points at the base, so the
/// members are declared bottom-up and destroyed top-down.
struct ServingStack {
  std::unique_ptr<Forecaster> base;
  std::unique_ptr<AdaptivePredictor> adaptive;  ///< set iff spec.adapt

  /// The outermost layer, which the predictor serves through.
  Forecaster* top() const;
  /// The base when it is a NeuralForecaster (the model that checkpoints
  /// save and adaptation trains), else null.
  NeuralForecaster* checkpointable() const;
};

/// Wraps `base` as `spec` asks. Adaptation needs a fitted neural base.
/// Takes `base` only on success: on error the caller's pointer still
/// holds the model, so a restart can fall back to another base.
Result<ServingStack> BuildStack(std::unique_ptr<Forecaster>&& base,
                                const StackSpec& spec);

}  // namespace serve
}  // namespace ealgap

#endif  // EALGAP_SERVE_STACK_H_
