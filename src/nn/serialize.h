#ifndef EALGAP_NN_SERIALIZE_H_
#define EALGAP_NN_SERIALIZE_H_

#include <map>
#include <string>

#include "common/state_file.h"
#include "common/status.h"
#include "nn/module.h"

namespace ealgap {
namespace nn {

/// The tensor-map section codec shared by every state file: model
/// parameters, Adam moments and best-validation snapshots.
///
///   i64 count, then per tensor in map order:
///   str name | i64 rank | i64 dims[rank] | f32 values[numel]

/// Appends `tensors` to the writer's open section.
void WriteTensorMap(StateFileWriter& out,
                    const std::map<std::string, Tensor>& tensors);

/// Appends every named parameter of `module`, in the same layout (and the
/// same name order) as WriteTensorMap over a CaptureParams-style map.
void WriteParameters(StateFileWriter& out, const Module& module);

/// Decodes a whole section written by WriteTensorMap/WriteParameters into
/// `loaded`. A rank above 8, a dimension below 1, more than 2^28 elements
/// or more values than the section holds is a Status naming the tensor —
/// checked before any allocation.
Status ReadTensorMap(StateDecoder& in, std::map<std::string, Tensor>* loaded);

/// Copies `loaded` entries into the matching parameters of `module`.
/// Every module parameter must be present with an identical shape.
Status ApplyParameters(Module& module,
                       const std::map<std::string, Tensor>& loaded,
                       const std::string& context);

}  // namespace nn
}  // namespace ealgap

#endif  // EALGAP_NN_SERIALIZE_H_
