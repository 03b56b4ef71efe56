// Heap-allocation interposition for the zero-allocation serve tests.
//
// Linked only into alloc_guard_test and loader_fuzz_test: interposes the glibc malloc family
// (which operator new and std::aligned_alloc route through at the symbol
// level) and ticks the thread-local counters in common/alloc_count.h.
// Everything forwards to the real __libc_* entry points, so behavior is
// unchanged — the hook only observes.
//
// Under AddressSanitizer the interposition is compiled out: ASan must own
// malloc to do its job. alloc_guard_test detects the missing hook via
// HookLinked() and skips the counting assertions while still running the
// full replay, which turns the ASan build into a lifetime check of the
// exact arena-rewind scenario (use-after-rewind would trip ASan).

#include <cstddef>  // pulls in the libc feature macros (__GLIBC__)

#if defined(__SANITIZE_ADDRESS__)
#define EALGAP_ALLOC_HOOK_DISABLED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define EALGAP_ALLOC_HOOK_DISABLED 1
#endif
#endif

#if !defined(EALGAP_ALLOC_HOOK_DISABLED) && defined(__GLIBC__)

#include <cerrno>

#include "common/alloc_count.h"

extern "C" {

void* __libc_malloc(size_t size);
void* __libc_calloc(size_t n, size_t size);
void* __libc_realloc(void* p, size_t size);
void* __libc_memalign(size_t align, size_t size);
void __libc_free(void* p);

void* malloc(size_t size) {
  ealgap::alloc_count::RecordAllocation(size);
  return __libc_malloc(size);
}

void* calloc(size_t n, size_t size) {
  ealgap::alloc_count::RecordAllocation(n * size);
  return __libc_calloc(n, size);
}

void* realloc(void* p, size_t size) {
  ealgap::alloc_count::RecordAllocation(size);
  return __libc_realloc(p, size);
}

void* aligned_alloc(size_t align, size_t size) {
  ealgap::alloc_count::RecordAllocation(size);
  return __libc_memalign(align, size);
}

void* memalign(size_t align, size_t size) {
  ealgap::alloc_count::RecordAllocation(size);
  return __libc_memalign(align, size);
}

int posix_memalign(void** out, size_t align, size_t size) {
  ealgap::alloc_count::RecordAllocation(size);
  void* p = __libc_memalign(align, size);
  if (p == nullptr) return ENOMEM;
  *out = p;
  return 0;
}

void free(void* p) {
  if (p != nullptr) ealgap::alloc_count::RecordDeallocation();
  __libc_free(p);
}

}  // extern "C"

#endif  // !EALGAP_ALLOC_HOOK_DISABLED && __GLIBC__
