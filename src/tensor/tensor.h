#ifndef EALGAP_TENSOR_TENSOR_H_
#define EALGAP_TENSOR_TENSOR_H_

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"

namespace ealgap {

class Arena;

/// Tensor dimension sizes, outermost first.
///
/// A fixed-capacity inline vector (max rank 8): shapes ride in the Tensor
/// object itself instead of a heap-allocated std::vector, which removes
/// one allocation per tensor — load-bearing for the zero-allocation serve
/// step (DESIGN.md §8e). The API is the std::vector subset the codebase
/// uses; exceeding kMaxRank aborts (checked in shape.cc helpers).
class Shape {
 public:
  static constexpr int64_t kMaxRank = 8;

  using value_type = int64_t;
  using iterator = int64_t*;
  using const_iterator = const int64_t*;

  Shape() = default;
  /// `n` dimensions, value-initialized to zero (std::vector semantics).
  explicit Shape(size_t n) : size_(CheckedSize(n)) {
    for (size_t i = 0; i < size_; ++i) dims_[i] = 0;
  }
  Shape(std::initializer_list<int64_t> dims) : size_(CheckedSize(dims.size())) {
    size_t i = 0;
    for (int64_t d : dims) dims_[i++] = d;
  }
  template <typename It>
  Shape(It first, It last) {
    for (; first != last; ++first) push_back(*first);
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  int64_t& operator[](size_t i) { return dims_[i]; }
  int64_t operator[](size_t i) const { return dims_[i]; }
  int64_t back() const { return dims_[size_ - 1]; }

  iterator begin() { return dims_; }
  iterator end() { return dims_ + size_; }
  const_iterator begin() const { return dims_; }
  const_iterator end() const { return dims_ + size_; }
  const int64_t* data() const { return dims_; }

  void push_back(int64_t d) {
    CheckedSize(size_ + 1);
    dims_[size_++] = d;
  }

  iterator insert(iterator pos, int64_t d) {
    CheckedSize(size_ + 1);
    for (iterator it = end(); it != pos; --it) *it = *(it - 1);
    *pos = d;
    ++size_;
    return pos;
  }

  iterator erase(iterator pos) {
    for (iterator it = pos; it + 1 != end(); ++it) *it = *(it + 1);
    --size_;
    return pos;
  }

  friend bool operator==(const Shape& a, const Shape& b) {
    if (a.size_ != b.size_) return false;
    for (size_t i = 0; i < a.size_; ++i) {
      if (a.dims_[i] != b.dims_[i]) return false;
    }
    return true;
  }
  friend bool operator!=(const Shape& a, const Shape& b) { return !(a == b); }

 private:
  /// Aborts (via the out-of-line handler) when n exceeds kMaxRank.
  static size_t CheckedSize(size_t n);

  int64_t dims_[kMaxRank];
  size_t size_ = 0;
};

/// Prints "[d0, d1, ...]" (test failure output; gtest picks this up).
std::ostream& operator<<(std::ostream& os, const Shape& shape);

/// Returns "[d0, d1, ...]" for error messages.
std::string ShapeToString(const Shape& shape);

/// Product of all dimensions (1 for a rank-0 shape).
int64_t ShapeNumel(const Shape& shape);

/// True when two shapes are broadcast-compatible (numpy rules).
bool BroadcastCompatible(const Shape& a, const Shape& b);

/// The broadcast result shape. Requires BroadcastCompatible(a, b).
Shape BroadcastShape(const Shape& a, const Shape& b);

/// Dense row-major float32 tensor with shared copy-on-nothing storage.
///
/// Copying a Tensor is cheap: copies share the underlying buffer (like
/// torch). Use Clone() for a deep copy. All factory functions produce
/// contiguous tensors; Reshape shares storage, Slice copies.
///
/// Storage is a single intrusive refcounted block whose float payload is
/// 64-byte aligned (common/aligned_alloc.h), so a tensor's first vector
/// never straddles a cache line. When a thread has an ArenaScope active
/// (the serve step), storage comes from the arena and is reclaimed
/// wholesale by the scope's rewind; such tensors must not outlive the
/// scope.
class Tensor {
 public:
  /// An empty (undefined) tensor; defined() is false.
  Tensor() = default;

  /// Zero-initialized tensor of the given shape.
  explicit Tensor(Shape shape);

  ~Tensor() { Release(); }
  Tensor(const Tensor& o)
      : shape_(o.shape_), numel_(o.numel_), storage_(o.storage_) {
    Retain();
  }
  Tensor(Tensor&& o) noexcept
      : shape_(o.shape_), numel_(o.numel_), storage_(o.storage_) {
    o.storage_ = nullptr;
    o.numel_ = 0;
    o.shape_ = Shape();
  }
  Tensor& operator=(const Tensor& o) {
    if (this != &o) {
      Release();
      shape_ = o.shape_;
      numel_ = o.numel_;
      storage_ = o.storage_;
      Retain();
    }
    return *this;
  }
  Tensor& operator=(Tensor&& o) noexcept {
    if (this != &o) {
      Release();
      shape_ = o.shape_;
      numel_ = o.numel_;
      storage_ = o.storage_;
      o.storage_ = nullptr;
      o.numel_ = 0;
      o.shape_ = Shape();
    }
    return *this;
  }

  static Tensor Zeros(Shape shape);
  static Tensor Ones(Shape shape);
  static Tensor Full(Shape shape, float value);
  /// Scalar tensor of shape {1}.
  static Tensor Scalar(float value);
  /// Copies `values` into fresh aligned storage; requires
  /// values.size() == numel(shape).
  static Tensor FromVector(Shape shape, const std::vector<float>& values);
  /// Uniform values in [lo, hi).
  static Tensor Rand(Shape shape, Rng& rng, float lo = 0.f, float hi = 1.f);
  /// Normal values.
  static Tensor Randn(Shape shape, Rng& rng, float mean = 0.f,
                      float stddev = 1.f);
  /// 1-D tensor [start, start+step, ...) of n elements.
  static Tensor Arange(int64_t n, float start = 0.f, float step = 1.f);

  bool defined() const { return storage_ != nullptr; }
  const Shape& shape() const { return shape_; }
  int64_t ndim() const { return static_cast<int64_t>(shape_.size()); }
  int64_t dim(int64_t i) const;
  int64_t numel() const { return numel_; }

  float* data();
  const float* data() const;

  /// Element access by multi-index (row-major). Debug-checked.
  float& at(std::initializer_list<int64_t> idx);
  float at(std::initializer_list<int64_t> idx) const;

  /// Deep copy with fresh storage.
  Tensor Clone() const;

  /// View with a new shape sharing storage. Requires equal numel.
  Tensor Reshape(Shape shape) const;

  /// Copies `src` into this tensor. Requires identical shapes.
  void CopyFrom(const Tensor& src);

  /// Sets every element to `value`.
  void Fill(float value);

  /// this += other (same shape).
  void AddInPlace(const Tensor& other);
  /// this *= s.
  void ScaleInPlace(float s);

  bool SameShape(const Tensor& other) const { return shape_ == other.shape_; }

  /// True when no other Tensor shares this storage; in-place mutation is
  /// then invisible to the rest of the program.
  bool StorageUnique() const;

  /// True when the storage payload came from an arena (diagnostics/tests).
  bool ArenaBacked() const;

  /// Human-readable dump (small tensors only; elided past 64 elements).
  std::string ToString() const;

 private:
  /// Intrusive refcounted storage header. The float payload starts at
  /// kCacheAlign bytes past the header base, so payloads are 64-byte
  /// aligned whenever the block is (aligned_alloc/arena guarantee both).
  /// Arena-backed blocks are not freed on refcount zero — the owning
  /// scope's rewind reclaims them; the refcount still tracks sharing so
  /// StorageUnique() stays meaningful.
  struct Storage {
    std::atomic<int64_t> refs;
    Arena* arena;  // nullptr => heap block, AlignedFree on last release
    float* payload() {
      return reinterpret_cast<float*>(reinterpret_cast<char*>(this) + 64);
    }
  };

  static Storage* NewStorage(int64_t numel);

  void Retain() {
    if (storage_) storage_->refs.fetch_add(1, std::memory_order_relaxed);
  }
  void Release() {
    if (storage_ &&
        storage_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1 &&
        storage_->arena == nullptr) {
      FreeStorage(storage_);
    }
    storage_ = nullptr;
  }
  static void FreeStorage(Storage* s);

  Shape shape_;
  int64_t numel_ = 0;
  Storage* storage_ = nullptr;
};

}  // namespace ealgap

#endif  // EALGAP_TENSOR_TENSOR_H_
