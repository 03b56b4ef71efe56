#ifndef EALGAP_SERVE_STACK_H_
#define EALGAP_SERVE_STACK_H_

#include <memory>
#include <optional>

#include "baselines/forecaster.h"
#include "baselines/neural.h"
#include "common/result.h"
#include "serve/adaptive_predictor.h"
#include "serve/quantized_forecaster.h"

namespace ealgap {
namespace serve {

/// Which optional wrappers serve a base model. Each field is an option the
/// front ends already expose (`--quant*`, `--adapt*`); an empty spec serves
/// the base model itself.
struct StackSpec {
  std::optional<QuantOptions> quant;
  std::optional<AdaptOptions> adapt;
};

/// A base model and the wrappers a StackSpec put around it:
///
///   base -> [QuantizedForecaster ->] [AdaptivePredictor ->] top()
///
/// The stack owns every layer. Each wrapper points at the layers below it,
/// so the members are declared bottom-up and destroyed top-down.
struct ServingStack {
  std::unique_ptr<Forecaster> base;
  std::unique_ptr<QuantizedForecaster> quant;   ///< set iff spec.quant
  std::unique_ptr<AdaptivePredictor> adaptive;  ///< set iff spec.adapt

  /// The outermost layer, which the predictor serves through.
  Forecaster* top() const;
  /// The base when it is a NeuralForecaster (the model that checkpoints
  /// save and adaptation trains), else null.
  NeuralForecaster* checkpointable() const;
};

/// Wraps `base` as `spec` asks, in the one order the serving path uses:
/// base -> int8 -> adaptation. Both wrappers need a fitted neural base.
/// Takes `base` only on success: on error the caller's pointer still
/// holds the model, so a restart can fall back to another base.
Result<ServingStack> BuildStack(std::unique_ptr<Forecaster>&& base,
                                const StackSpec& spec);

}  // namespace serve
}  // namespace ealgap

#endif  // EALGAP_SERVE_STACK_H_
