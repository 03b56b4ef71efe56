#include "serve/stack.h"

#include <utility>

namespace ealgap {
namespace serve {

Forecaster* ServingStack::top() const {
  if (adaptive != nullptr) return adaptive.get();
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
  if (spec.adapt) {
    auto* neural = dynamic_cast<NeuralForecaster*>(base.get());
    if (neural == nullptr) {
      return Status::InvalidArgument(
          base->name() + " is not a neural model; adaptation needs one");
    }
    EALGAP_ASSIGN_OR_RETURN(stack.adaptive,
                            AdaptivePredictor::Create(neural, *spec.adapt));
  }
  stack.base = std::move(base);
  return stack;
}

}  // namespace serve
}  // namespace ealgap
