// Dense row-major float32 ND tensor. This is the numeric substrate for the
// whole repository: the VAE, the diffusion UNet, the baselines and the PCA
// post-processor all operate on `Tensor`.
//
// Design notes
//  - Always contiguous. Storage is either OWNED (shared, 64-byte aligned) or
//    BORROWED (a view into a tensor::Workspace arena — see
//    tensor/workspace.h). Layers cache activations by value; an
//    explicit-backward engine does not need strides, and contiguity keeps
//    every kernel a flat loop the compiler can vectorize.
//  - Copy is cheap-ish (shared storage handle) but WRITES are not
//    copy-on-write: use Clone() before mutating a tensor that may be aliased.
//    All library code follows the convention that functions returning Tensor
//    return freshly-allocated storage, EXCEPT the workspace-aware inference
//    overloads, which return arena-backed views valid until the enclosing
//    Workspace::Scope resets.
//  - `Tensor(shape)` / `Zeros` zero-fill; `Empty` skips the memset for hot
//    paths that overwrite every element before reading any.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "util/check.h"
#include "util/rng.h"

namespace glsc {

namespace tensor {
class Workspace;
#if defined(GLSC_DEBUG_ARENA) && GLSC_DEBUG_ARENA
// Aborts with a use-after-rewind diagnostic unless the allocation identified
// by (`ws`, `serial`) is still live (workspace.cc). Debug accessors call this
// through the provenance Workspace::NewTensor stamps into borrowed views.
void AssertBorrowValid(const Workspace* ws, std::uint64_t serial);
#endif
}  // namespace tensor

using Shape = std::vector<std::int64_t>;

std::string ShapeToString(const Shape& shape);
std::int64_t ShapeNumel(const Shape& shape);

class Tensor {
 public:
  Tensor() = default;

  Tensor(const Tensor&) = default;
  Tensor& operator=(const Tensor&) = default;
  // Moves must reset the source: ptr_ is raw, so default-moving would leave
  // the source "defined" with a pointer whose storage keep-alive was taken —
  // a use-after-free the shared_ptr-only layout could not express. A
  // moved-from Tensor is indistinguishable from a default-constructed one.
  Tensor(Tensor&& other) noexcept { *this = std::move(other); }
  Tensor& operator=(Tensor&& other) noexcept {
    if (this != &other) {
      shape_ = std::move(other.shape_);
      storage_ = std::move(other.storage_);
      ptr_ = other.ptr_;
      defined_ = other.defined_;
      other.shape_.clear();
      other.ptr_ = nullptr;
      other.defined_ = false;
#if defined(GLSC_DEBUG_ARENA) && GLSC_DEBUG_ARENA
      arena_ = other.arena_;
      arena_serial_ = other.arena_serial_;
      other.arena_ = nullptr;
      other.arena_serial_ = 0;
#endif
    }
    return *this;
  }

  // Owned, zero-filled.
  explicit Tensor(Shape shape);

  // Owned, adopting `values` (no copy).
  Tensor(Shape shape, std::vector<float> values);

  static Tensor Zeros(Shape shape) { return Tensor(std::move(shape)); }
  // Owned, UNINITIALIZED storage: every element must be written before it is
  // read. Use at call sites that fully overwrite the buffer (GEMM outputs
  // with beta = 0, elementwise op results, im2col targets); keep Zeros where
  // partial writes rely on zero-fill.
  static Tensor Empty(Shape shape);
  // Non-owning view over caller-managed memory (typically a Workspace arena).
  // The caller must keep `data` alive and must not let the view escape the
  // arena scope that produced it. Clone() lifts a view into owned storage.
  static Tensor Borrowed(float* data, Shape shape);
  static Tensor Full(Shape shape, float value);
  static Tensor Randn(Shape shape, Rng& rng, float stddev = 1.0f);
  static Tensor Uniform(Shape shape, Rng& rng, float lo, float hi);
  // 1D ramp [0, n), useful in tests.
  static Tensor Arange(std::int64_t n);

  bool defined() const { return defined_; }
  // True for arena/borrowed views (storage not owned by this tensor).
  bool borrowed() const { return defined_ && storage_ == nullptr; }
  const Shape& shape() const { return shape_; }
  std::int64_t dim(std::size_t i) const {
    GLSC_DCHECK(i < shape_.size());
    return shape_[i];
  }
  std::size_t rank() const { return shape_.size(); }
  std::int64_t numel() const { return ShapeNumel(shape_); }

  float* data() {
    CheckArenaBorrow();
    return ptr_;
  }
  const float* data() const {
    CheckArenaBorrow();
    return ptr_;
  }

  float& operator[](std::int64_t i) {
    CheckArenaBorrow();
    return ptr_[i];
  }
  float operator[](std::int64_t i) const {
    CheckArenaBorrow();
    return ptr_[i];
  }

  // Multi-index access (rank-checked in debug builds); for tests and
  // non-hot-path code.
  float& At(std::initializer_list<std::int64_t> idx);
  float At(std::initializer_list<std::int64_t> idx) const;

  // Deep copy into owned storage (also lifts borrowed views).
  Tensor Clone() const;

  // Same storage, new shape (numel must match).
  Tensor Reshape(Shape shape) const;

  // Structural helpers (all allocate fresh storage; the Workspace overloads
  // borrow the result from the arena instead).
  // Permute for rank<=5 tensors; perm is a permutation of axis indices.
  Tensor Permute(const std::vector<int>& perm) const;
  Tensor Permute(const std::vector<int>& perm, tensor::Workspace* ws) const;
  // Permute into an existing tensor of the permuted shape, so a caller can
  // allocate its result before its temporaries.
  void PermuteInto(const std::vector<int>& perm, Tensor* out) const;
  // Slice along axis 0: rows [begin, end).
  Tensor Slice0(std::int64_t begin, std::int64_t end) const;

  void Fill(float value);
  void Zero() { Fill(0.0f); }

  // Scalar statistics (full reduction).
  float MinValue() const;
  float MaxValue() const;
  double Sum() const;
  double Mean() const;
  bool AllFinite() const;

 private:
  // Use-after-rewind guard for arena-backed views; compiles to nothing (and
  // the provenance fields below to zero bytes) unless GLSC_DEBUG_ARENA is on.
  void CheckArenaBorrow() const {
#if defined(GLSC_DEBUG_ARENA) && GLSC_DEBUG_ARENA
    if (arena_ != nullptr) tensor::AssertBorrowValid(arena_, arena_serial_);
#endif
  }

  Shape shape_;
  // Keep-alive handle for owned storage; null for borrowed views and
  // default-constructed tensors. All element access goes through ptr_.
  std::shared_ptr<void> storage_;
  float* ptr_ = nullptr;
  bool defined_ = false;

#if defined(GLSC_DEBUG_ARENA) && GLSC_DEBUG_ARENA
  // Which arena allocation this view borrows from (null for owned storage or
  // non-arena borrows). Stamped by Workspace::NewTensor, propagated by
  // copy/move/Reshape, cleared by Clone (which lifts to owned storage).
  friend class tensor::Workspace;
  const tensor::Workspace* arena_ = nullptr;
  std::uint64_t arena_serial_ = 0;
#endif
};

// Concatenate along axis 0. All inputs must agree on trailing dims.
Tensor Concat0(const std::vector<Tensor>& parts);

}  // namespace glsc
