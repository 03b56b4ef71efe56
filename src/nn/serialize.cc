#include "nn/serialize.h"

namespace ealgap {
namespace nn {

namespace {

/// Ceiling on a single tensor's element count: far above any model in
/// this repo, low enough that a corrupt shape cannot drive a multi-GB
/// allocation.
constexpr int64_t kMaxTensorNumel = int64_t{1} << 28;
constexpr int64_t kMaxRank = 8;

void WriteTensor(StateFileWriter& out, const std::string& name,
                 const Tensor& t) {
  out.Str(name);
  out.I64(t.ndim());
  for (int64_t d : t.shape()) out.I64(d);
  out.F32s(t.data(), static_cast<size_t>(t.numel()));
}

}  // namespace

void WriteTensorMap(StateFileWriter& out,
                    const std::map<std::string, Tensor>& tensors) {
  out.I64(static_cast<int64_t>(tensors.size()));
  for (const auto& [name, t] : tensors) WriteTensor(out, name, t);
}

void WriteParameters(StateFileWriter& out, const Module& module) {
  // NamedParameters is in declaration order; map order keeps the bytes
  // equal to WriteTensorMap over a captured snapshot.
  std::map<std::string, Tensor> params;
  for (const auto& [name, p] : module.NamedParameters()) {
    params.emplace(name, p.value());
  }
  WriteTensorMap(out, params);
}

Status ReadTensorMap(StateDecoder& in, std::map<std::string, Tensor>* loaded) {
  const int64_t count = in.I64();
  // Every tensor takes at least its name length and rank.
  EALGAP_RETURN_IF_ERROR(in.Need(count, 2 * sizeof(int64_t), "tensor"));
  for (int64_t k = 0; k < count; ++k) {
    const std::string name = in.Str();
    const int64_t rank = in.I64();
    if (rank < 0 || rank > kMaxRank) {
      return in.Error("tensor " + name + " rank " + std::to_string(rank) +
                      " out of range [0, " + std::to_string(kMaxRank) + "]");
    }
    Shape shape(rank);
    for (int64_t i = 0; i < rank; ++i) shape[i] = in.I64();
    EALGAP_RETURN_IF_ERROR(in.Check());
    int64_t numel = 1;
    for (int64_t i = 0; i < rank; ++i) {
      // A zero or negative dimension is named here — it must never
      // survive into tensor allocation or an OOB copy.
      if (shape[i] < 1) {
        return in.Error("tensor " + name + " dimension " + std::to_string(i) +
                        " is " + std::to_string(shape[i]) + " (must be >= 1)");
      }
      if (shape[i] > kMaxTensorNumel / numel) {
        return in.Error("tensor " + name + " has more than 2^28 elements");
      }
      numel *= shape[i];
    }
    EALGAP_RETURN_IF_ERROR(in.Need(numel, sizeof(float), "tensor " + name));
    Tensor t(shape);
    in.F32s(t.data(), static_cast<size_t>(numel));
    loaded->insert_or_assign(name, std::move(t));
  }
  return in.Done();
}

Status ApplyParameters(Module& module,
                       const std::map<std::string, Tensor>& loaded,
                       const std::string& context) {
  for (auto& [name, p] : module.NamedParameters()) {
    auto it = loaded.find(name);
    if (it == loaded.end()) {
      return Status::NotFound("checkpoint missing parameter " + name + " in " +
                              context);
    }
    if (!(it->second.shape() == p.value().shape())) {
      return Status::InvalidArgument(
          "shape mismatch for " + name + ": checkpoint " +
          ShapeToString(it->second.shape()) + " vs model " +
          ShapeToString(p.value().shape()));
    }
    const_cast<Tensor&>(p.value()).CopyFrom(it->second);
  }
  return Status::OK();
}

}  // namespace nn
}  // namespace ealgap
