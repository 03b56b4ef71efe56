#include "serve/stack.h"

#include <utility>

namespace ealgap {
namespace serve {

Forecaster* ServingStack::top() const {
  if (adaptive != nullptr) return adaptive.get();
  if (quant != nullptr) return quant.get();
  return base.get();
}

NeuralForecaster* ServingStack::checkpointable() const {
  return dynamic_cast<NeuralForecaster*>(base.get());
}

Result<ServingStack> BuildStack(std::unique_ptr<Forecaster>&& base,
                                const StackSpec& spec) {
  if (base == nullptr) {
    return Status::InvalidArgument("serving stack needs a fitted model");
  }
  ServingStack stack;
  auto* neural = dynamic_cast<NeuralForecaster*>(base.get());
  if ((spec.quant || spec.adapt) && neural == nullptr) {
    return Status::InvalidArgument(
        base->name() +
        " is not a neural model; int8 serving and adaptation need one");
  }
  if (spec.quant) {
    EALGAP_ASSIGN_OR_RETURN(stack.quant,
                            QuantizedForecaster::Create(neural, *spec.quant));
  }
  if (spec.adapt) {
    EALGAP_ASSIGN_OR_RETURN(
        stack.adaptive,
        AdaptivePredictor::Create(neural, stack.quant.get(), *spec.adapt));
  }
  stack.base = std::move(base);
  return stack;
}

}  // namespace serve
}  // namespace ealgap
