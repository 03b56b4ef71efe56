#include "common/aligned_alloc.h"

#include <cstdio>
#include <cstdlib>

namespace ealgap {
namespace {

/// Every block carries a kCacheAlign-byte header right before the user
/// pointer. Its magic lets AlignedFree reject foreign pointers and double
/// frees without a side table (a side table would itself allocate —
/// unacceptable under the serve path's zero-allocation contract).
struct BlockHeader {
  std::uint64_t magic;
};
static_assert(sizeof(BlockHeader) <= kCacheAlign);

constexpr std::uint64_t kHeapMagic = 0x45414c47'41503031ull;  // "EALGAP01"

std::size_t RoundUp(std::size_t v, std::size_t align) {
  return (v + align - 1) & ~(align - 1);
}

[[noreturn]] void DieOom(std::size_t bytes) {
  std::fprintf(stderr, "ealgap: AlignedAlloc(%zu) failed\n", bytes);
  std::abort();
}

}  // namespace

void* AlignedAlloc(std::size_t bytes) {
  const std::size_t payload = RoundUp(bytes == 0 ? 1 : bytes, kCacheAlign);
  void* base = std::aligned_alloc(kCacheAlign, kCacheAlign + payload);
  if (base == nullptr) DieOom(bytes);
  static_cast<BlockHeader*>(base)->magic = kHeapMagic;
  return static_cast<char*>(base) + kCacheAlign;
}

void AlignedFree(void* p) noexcept {
  if (p == nullptr) return;
  char* base = static_cast<char*>(p) - kCacheAlign;
  auto* h = reinterpret_cast<BlockHeader*>(base);
  if (h->magic != kHeapMagic) {
    std::fprintf(stderr, "ealgap: AlignedFree of foreign pointer %p\n", p);
    std::abort();
  }
  h->magic = 0;  // catches double-free as a magic mismatch
  std::free(base);
}

}  // namespace ealgap
