#include "tensor/tensor.h"

#include <algorithm>
#include <cmath>
#include <new>
#include <numeric>
#include <sstream>

#include "tensor/workspace.h"

namespace glsc {
namespace {

// Owned storage is 64-byte aligned so every tensor (not just arena views)
// satisfies the widest SIMD alignment the AVX-512 kernels could use.
constexpr std::size_t kTensorAlignment = 64;

struct AlignedDeleter {
  void operator()(float* p) const {
    ::operator delete[](p, std::align_val_t{kTensorAlignment});
  }
};

}  // namespace

std::string ShapeToString(const Shape& shape) {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < shape.size(); ++i) {
    if (i > 0) os << ",";
    os << shape[i];
  }
  os << "]";
  return os.str();
}

std::int64_t ShapeNumel(const Shape& shape) {
  std::int64_t n = 1;
  for (const auto d : shape) {
    GLSC_CHECK_MSG(d >= 0, "negative dim in " << ShapeToString(shape));
    n *= d;
  }
  return n;
}

Tensor::Tensor(Shape shape) {
  *this = Empty(std::move(shape));
  std::fill_n(ptr_, numel(), 0.0f);
}

Tensor::Tensor(Shape shape, std::vector<float> values) {
  GLSC_CHECK_MSG(static_cast<std::int64_t>(values.size()) == ShapeNumel(shape),
                 "value count " << values.size() << " != numel of "
                                << ShapeToString(shape));
  shape_ = std::move(shape);
  auto vec = std::make_shared<std::vector<float>>(std::move(values));
  ptr_ = vec->data();
  storage_ = std::move(vec);
  defined_ = true;
}

Tensor Tensor::Empty(Shape shape) {
  Tensor t;
  t.shape_ = std::move(shape);
  const std::size_t n = static_cast<std::size_t>(ShapeNumel(t.shape_));
  float* raw = static_cast<float*>(::operator new[](
      n * sizeof(float), std::align_val_t{kTensorAlignment}));
  t.storage_ = std::shared_ptr<float>(raw, AlignedDeleter{});
  t.ptr_ = raw;
  t.defined_ = true;
  return t;
}

Tensor Tensor::Borrowed(float* data, Shape shape) {
  Tensor t;
  t.shape_ = std::move(shape);
  t.ptr_ = data;
  t.defined_ = true;
  return t;
}

Tensor Tensor::Full(Shape shape, float value) {
  Tensor t = Empty(std::move(shape));
  t.Fill(value);
  return t;
}

Tensor Tensor::Randn(Shape shape, Rng& rng, float stddev) {
  Tensor t = Empty(std::move(shape));
  float* p = t.data();
  const std::int64_t n = t.numel();
  for (std::int64_t i = 0; i < n; ++i) p[i] = stddev * rng.NormalF();
  return t;
}

Tensor Tensor::Uniform(Shape shape, Rng& rng, float lo, float hi) {
  Tensor t = Empty(std::move(shape));
  float* p = t.data();
  const std::int64_t n = t.numel();
  for (std::int64_t i = 0; i < n; ++i) p[i] = rng.UniformF(lo, hi);
  return t;
}

float& Tensor::At(std::initializer_list<std::int64_t> idx) {
  CheckArenaBorrow();
  GLSC_DCHECK(idx.size() == shape_.size());
  std::int64_t flat = 0;
  std::size_t axis = 0;
  for (const auto i : idx) {
    GLSC_DCHECK(i >= 0 && i < shape_[axis]);
    flat = flat * shape_[axis] + i;
    ++axis;
  }
  return ptr_[flat];
}

float Tensor::At(std::initializer_list<std::int64_t> idx) const {
  return const_cast<Tensor*>(this)->At(idx);
}

Tensor Tensor::Clone() const {
  GLSC_CHECK(defined());
  CheckArenaBorrow();
  Tensor t = Empty(shape_);
  if (numel() > 0) std::copy_n(ptr_, numel(), t.ptr_);
  return t;
}

Tensor Tensor::Reshape(Shape shape) const {
  GLSC_CHECK_MSG(ShapeNumel(shape) == numel(),
                 "reshape " << ShapeToString(shape_) << " -> "
                            << ShapeToString(shape) << " changes numel");
  Tensor t;
  t.shape_ = std::move(shape);
  t.storage_ = storage_;
  t.ptr_ = ptr_;
  t.defined_ = defined_;
#if defined(GLSC_DEBUG_ARENA) && GLSC_DEBUG_ARENA
  // A reshaped view of an arena borrow is the same borrow.
  t.arena_ = arena_;
  t.arena_serial_ = arena_serial_;
#endif
  return t;
}

void Tensor::PermuteInto(const std::vector<int>& perm, Tensor* out) const {
  const std::size_t r = rank();
  const Shape& out_shape = out->shape();
  GLSC_CHECK(perm.size() == r && out_shape.size() == r);
  for (std::size_t i = 0; i < r; ++i) {
    GLSC_CHECK(out_shape[i] == shape_[static_cast<std::size_t>(perm[i])]);
  }

  // Compute input strides, then iterate output positions in order.
  std::vector<std::int64_t> in_strides(r, 1);
  for (std::size_t i = r - 1; i > 0; --i) {
    in_strides[i - 1] = in_strides[i] * shape_[i];
  }
  std::vector<std::int64_t> out_to_in_stride(r);
  for (std::size_t i = 0; i < r; ++i) out_to_in_stride[i] = in_strides[perm[i]];

  const float* src = data();
  float* dst = out->data();
  std::vector<std::int64_t> idx(r, 0);
  const std::int64_t n = numel();
  std::int64_t in_off = 0;
  for (std::int64_t flat = 0; flat < n; ++flat) {
    dst[flat] = src[in_off];
    // Increment the mixed-radix output index, tracking the input offset.
    for (std::size_t axis = r; axis-- > 0;) {
      idx[axis]++;
      in_off += out_to_in_stride[axis];
      if (idx[axis] < out_shape[axis]) break;
      in_off -= out_to_in_stride[axis] * out_shape[axis];
      idx[axis] = 0;
    }
  }
}

Tensor Tensor::Permute(const std::vector<int>& perm) const {
  GLSC_CHECK(perm.size() == shape_.size());
  const std::size_t r = rank();
  GLSC_CHECK_MSG(r <= 5, "Permute supports rank<=5");
  Shape out_shape(r);
  for (std::size_t i = 0; i < r; ++i) out_shape[i] = shape_[perm[i]];
  Tensor out = Empty(std::move(out_shape));
  PermuteInto(perm, &out);
  return out;
}

Tensor Tensor::Permute(const std::vector<int>& perm,
                       tensor::Workspace* ws) const {
  GLSC_CHECK(perm.size() == shape_.size());
  const std::size_t r = rank();
  GLSC_CHECK_MSG(r <= 5, "Permute supports rank<=5");
  Shape out_shape(r);
  for (std::size_t i = 0; i < r; ++i) out_shape[i] = shape_[perm[i]];
  Tensor out = ws->NewTensor(std::move(out_shape));
  PermuteInto(perm, &out);
  return out;
}

Tensor Tensor::Slice0(std::int64_t begin, std::int64_t end) const {
  GLSC_CHECK(rank() >= 1);
  GLSC_CHECK(begin >= 0 && begin <= end && end <= shape_[0]);
  Shape out_shape = shape_;
  out_shape[0] = end - begin;
  const std::int64_t row = numel() / std::max<std::int64_t>(shape_[0], 1);
  Tensor out = Empty(out_shape);
  std::copy_n(data() + begin * row, (end - begin) * row, out.data());
  return out;
}

void Tensor::Fill(float value) {
  CheckArenaBorrow();
  std::fill_n(ptr_, numel(), value);
}

float Tensor::MinValue() const {
  GLSC_CHECK(numel() > 0);
  CheckArenaBorrow();
  return *std::min_element(ptr_, ptr_ + numel());
}

float Tensor::MaxValue() const {
  GLSC_CHECK(numel() > 0);
  CheckArenaBorrow();
  return *std::max_element(ptr_, ptr_ + numel());
}

double Tensor::Sum() const {
  CheckArenaBorrow();
  return std::accumulate(ptr_, ptr_ + numel(), 0.0);
}

double Tensor::Mean() const {
  GLSC_CHECK(numel() > 0);
  return Sum() / static_cast<double>(numel());
}

bool Tensor::AllFinite() const {
  CheckArenaBorrow();
  const std::int64_t n = numel();
  for (std::int64_t i = 0; i < n; ++i) {
    if (!std::isfinite(ptr_[i])) return false;
  }
  return true;
}

Tensor Concat0(const std::vector<Tensor>& parts) {
  GLSC_CHECK(!parts.empty());
  Shape out_shape = parts[0].shape();
  std::int64_t total = 0;
  for (const auto& p : parts) {
    GLSC_CHECK(p.rank() == out_shape.size());
    for (std::size_t i = 1; i < out_shape.size(); ++i) {
      GLSC_CHECK(p.shape()[i] == out_shape[i]);
    }
    total += p.dim(0);
  }
  out_shape[0] = total;
  Tensor out = Tensor::Empty(out_shape);
  float* dst = out.data();
  for (const auto& p : parts) {
    std::copy_n(p.data(), p.numel(), dst);
    dst += p.numel();
  }
  return out;
}

}  // namespace glsc
