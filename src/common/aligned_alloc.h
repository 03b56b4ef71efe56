#ifndef EALGAP_COMMON_ALIGNED_ALLOC_H_
#define EALGAP_COMMON_ALIGNED_ALLOC_H_

/// 64-byte-aligned allocation primitives — the memory substrate under
/// Tensor storage, the serve arena, and the flat ring/slot buffers of
/// serve::OnlinePredictor (DESIGN.md §8e).
///
/// Everything hot allocates through AlignedAlloc so that buffers start on
/// a cache line: a vector row never straddles a line boundary at the base
/// pointer, and per-thread blocks never share a line (false sharing).

#include <cstddef>
#include <cstdint>
#include <type_traits>

namespace ealgap {

/// Cache-line / maximum-vector alignment used across the project. AVX2
/// needs 32; we align to the 64-byte cache line so one constant serves
/// both the SIMD kernels and false-sharing avoidance.
inline constexpr std::size_t kCacheAlign = 64;

/// True when `p` is aligned to `align` bytes (power of two).
inline bool IsAligned(const void* p, std::size_t align = kCacheAlign) {
  return (reinterpret_cast<std::uintptr_t>(p) & (align - 1)) == 0;
}

/// Allocates `bytes` with at least kCacheAlign alignment. Never returns
/// nullptr (aborts on OOM like operator new). bytes == 0 returns a valid
/// unique pointer. Free with AlignedFree — NOT free()/delete: the user
/// pointer sits one header past the start of the underlying block.
void* AlignedAlloc(std::size_t bytes);

/// Releases a block from AlignedAlloc. Aborts on a pointer that did not
/// come from AlignedAlloc or was already freed.
void AlignedFree(void* p) noexcept;

/// Fixed-size 64-byte-aligned array of trivially-destructible T. Thin
/// owning wrapper for code that wants "a flat aligned buffer" without
/// vector growth semantics: serve ring buffers, slot stats, scratch rows.
template <typename T>
class AlignedBuffer {
 public:
  AlignedBuffer() = default;
  explicit AlignedBuffer(std::size_t n) { Reset(n); }
  ~AlignedBuffer() { AlignedFree(p_); }

  AlignedBuffer(AlignedBuffer&& o) noexcept : p_(o.p_), n_(o.n_) {
    o.p_ = nullptr;
    o.n_ = 0;
  }
  AlignedBuffer& operator=(AlignedBuffer&& o) noexcept {
    if (this != &o) {
      AlignedFree(p_);
      p_ = o.p_;
      n_ = o.n_;
      o.p_ = nullptr;
      o.n_ = 0;
    }
    return *this;
  }
  AlignedBuffer(const AlignedBuffer&) = delete;
  AlignedBuffer& operator=(const AlignedBuffer&) = delete;

  /// Reallocates to `n` zero-initialized elements.
  void Reset(std::size_t n) {
    AlignedFree(p_);
    p_ = static_cast<T*>(AlignedAlloc(n * sizeof(T)));
    n_ = n;
    for (std::size_t i = 0; i < n; ++i) p_[i] = T();
  }

  T* data() { return p_; }
  const T* data() const { return p_; }
  std::size_t size() const { return n_; }
  bool empty() const { return n_ == 0; }
  T& operator[](std::size_t i) { return p_[i]; }
  const T& operator[](std::size_t i) const { return p_[i]; }
  T* begin() { return p_; }
  T* end() { return p_ + n_; }
  const T* begin() const { return p_; }
  const T* end() const { return p_ + n_; }

 private:
  static_assert(std::is_trivially_destructible_v<T>,
                "AlignedBuffer holds trivially-destructible types only");
  T* p_ = nullptr;
  std::size_t n_ = 0;
};

}  // namespace ealgap

#endif  // EALGAP_COMMON_ALIGNED_ALLOC_H_
