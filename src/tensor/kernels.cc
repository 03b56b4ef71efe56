#include "tensor/kernels.h"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <mutex>

#include "common/logging.h"

namespace ealgap {
namespace kernels {

// Defined in kernels_{scalar,sse2,avx2,avx512}.cc; null when not compiled
// in.
const KernelTable* GetScalarTable();
const KernelTable* GetSse2Table();
const KernelTable* GetAvx2Table();
const KernelTable* GetAvx512Table();

namespace {

const KernelTable* TableOrNull(Backend b) {
  switch (b) {
    case Backend::kScalar:
      return GetScalarTable();
    case Backend::kSse2:
      return GetSse2Table();
    case Backend::kAvx2:
      return GetAvx2Table();
    case Backend::kAvx512:
      return GetAvx512Table();
  }
  return nullptr;
}

bool CpuSupports(Backend b) {
  switch (b) {
    case Backend::kScalar:
      return true;
    case Backend::kSse2:
#if defined(__x86_64__) || defined(__amd64__)
      return true;  // SSE2 is baseline on x86-64
#elif defined(__i386__)
      return __builtin_cpu_supports("sse2");
#else
      return false;
#endif
    case Backend::kAvx2:
#if defined(__x86_64__) || defined(__amd64__) || defined(__i386__)
      return __builtin_cpu_supports("avx2");
#else
      return false;
#endif
    case Backend::kAvx512:
#if defined(__x86_64__) || defined(__amd64__) || defined(__i386__)
      return __builtin_cpu_supports("avx512f") &&
             __builtin_cpu_supports("avx512dq");
#else
      return false;
#endif
  }
  return false;
}

Backend BestSupported() {
  if (BackendSupported(Backend::kAvx512)) return Backend::kAvx512;
  if (BackendSupported(Backend::kAvx2)) return Backend::kAvx2;
  if (BackendSupported(Backend::kSse2)) return Backend::kSse2;
  return Backend::kScalar;
}

/// Resolves the startup backend: EALGAP_SIMD override, else the widest
/// table the CPU can run. Unknown override values abort (typo guard);
/// unsupported-but-valid values warn and fall back (results are identical
/// in every backend, so CI scripts can pin a backend unconditionally).
Backend ResolveStartupBackend() {
  const char* env = std::getenv("EALGAP_SIMD");
  if (env == nullptr || env[0] == '\0') return BestSupported();
  Backend want;
  if (std::strcmp(env, "scalar") == 0) {
    want = Backend::kScalar;
  } else if (std::strcmp(env, "sse2") == 0) {
    want = Backend::kSse2;
  } else if (std::strcmp(env, "avx2") == 0) {
    want = Backend::kAvx2;
  } else if (std::strcmp(env, "avx512") == 0) {
    want = Backend::kAvx512;
  } else {
    EALGAP_CHECK(false) << "EALGAP_SIMD='" << env
                        << "' is not one of scalar|sse2|avx2|avx512";
    return BestSupported();  // unreachable
  }
  if (!BackendSupported(want)) {
    const Backend fallback = BestSupported();
    EALGAP_LOG(Warning) << "EALGAP_SIMD=" << env
                        << " not supported on this host/build; using "
                        << BackendName(fallback);
    return fallback;
  }
  return want;
}

std::atomic<const KernelTable*> g_active{nullptr};
std::once_flag g_init_once;

const KernelTable* ActiveSlow() {
  std::call_once(g_init_once, [] {
    g_active.store(TableOrNull(ResolveStartupBackend()),
                   std::memory_order_release);
  });
  return g_active.load(std::memory_order_acquire);
}

}  // namespace

const char* BackendName(Backend b) {
  switch (b) {
    case Backend::kScalar:
      return "scalar";
    case Backend::kSse2:
      return "sse2";
    case Backend::kAvx2:
      return "avx2";
    case Backend::kAvx512:
      return "avx512";
  }
  return "unknown";
}

bool BackendSupported(Backend b) {
  return TableOrNull(b) != nullptr && CpuSupports(b);
}

const KernelTable* Table(Backend b) {
  return BackendSupported(b) ? TableOrNull(b) : nullptr;
}

const KernelTable& Active() {
  const KernelTable* t = g_active.load(std::memory_order_acquire);
  return t != nullptr ? *t : *ActiveSlow();
}

Backend ActiveBackend() { return Active().backend; }

void SetBackendForTesting(Backend b) {
  const KernelTable* t = Table(b);
  EALGAP_CHECK(t != nullptr)
      << "backend " << BackendName(b) << " not supported on this host";
  ActiveSlow();  // make sure call_once has fired so it cannot overwrite us
  g_active.store(t, std::memory_order_release);
}

}  // namespace kernels
}  // namespace ealgap
