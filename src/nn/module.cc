#include "nn/module.h"

namespace ealgap {
namespace nn {

std::vector<Var> Module::Parameters() const {
  std::vector<Var> out;
  for (const auto& [name, p] : params_) out.push_back(p);
  for (const auto& [name, child] : children_) {
    auto sub = child->Parameters();
    out.insert(out.end(), sub.begin(), sub.end());
  }
  return out;
}

std::vector<std::pair<std::string, Var>> Module::NamedParameters() const {
  std::vector<std::pair<std::string, Var>> out = params_;
  for (const auto& [name, child] : children_) {
    for (auto& [sub_name, p] : child->NamedParameters()) {
      out.emplace_back(name + "." + sub_name, p);
    }
  }
  return out;
}

void Module::ZeroGrad() {
  for (Var& p : Parameters()) p.ZeroGrad();
}

int64_t Module::NumParameters() const {
  int64_t n = 0;
  for (const Var& p : Parameters()) n += p.value().numel();
  return n;
}

void Module::VisitModules(
    const std::function<void(const std::string&, Module*)>& fn,
    const std::string& prefix) {
  fn(prefix, this);
  for (auto& [name, child] : children_) {
    child->VisitModules(fn, prefix.empty() ? name : prefix + "." + name);
  }
}

Var Module::RegisterParameter(std::string name, Tensor init) {
  Var v = Var::Leaf(std::move(init), /*requires_grad=*/true);
  params_.emplace_back(std::move(name), v);
  return v;
}

void Module::RegisterModule(std::string name, Module* child) {
  children_.emplace_back(std::move(name), child);
}

}  // namespace nn
}  // namespace ealgap
