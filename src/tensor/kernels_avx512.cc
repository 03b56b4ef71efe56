// AVX-512 kernel table (16 lanes). This TU is compiled with -mavx512f
// -mavx512dq (and -ffp-contract=off, like every kernel TU) when the target
// is x86; elsewhere it degrades to a null table. Dispatch only selects it
// after __builtin_cpu_supports reports both avx512f and avx512dq.

#include "tensor/kernels_impl.h"

namespace ealgap {
namespace kernels {

#if defined(__AVX512F__) && defined(__AVX512DQ__)
const KernelTable* GetAvx512Table() {
  static const KernelTable table =
      impl::MakeTable<vec::VAvx512>(Backend::kAvx512);
  return &table;
}
#else
const KernelTable* GetAvx512Table() { return nullptr; }
#endif

}  // namespace kernels
}  // namespace ealgap
