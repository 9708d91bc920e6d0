#include "nn/activations.h"

#include "tensor/simd/kernels.h"

namespace glsc::nn {

Tensor SiLU::Forward(const Tensor& x) {
  cached_input_ = x;
  Tensor y = Tensor::Empty(x.shape());
  simd::ActiveKernels().silu_fwd(x.data(), y.data(), x.numel());
  return y;
}

Tensor SiLU::Forward(const Tensor& x, tensor::Workspace* ws) {
  Tensor y = ws->NewTensor(x.shape());
  simd::ActiveKernels().silu_fwd(x.data(), y.data(), x.numel());
  return y;
}

bool SiLU::ForwardInPlace(Tensor* x) {
  simd::ActiveKernels().silu_fwd(x->data(), x->data(), x->numel());
  return true;
}

Tensor SiLU::Backward(const Tensor& grad_out) {
  GLSC_CHECK(cached_input_.defined());
  Tensor grad_in = Tensor::Empty(grad_out.shape());
  // d/dx [x*s(x)] = s(x) * (1 + x * (1 - s(x)))
  simd::ActiveKernels().silu_bwd(cached_input_.data(), grad_out.data(),
                                 grad_in.data(), grad_out.numel());
  cached_input_ = Tensor();
  return grad_in;
}

Tensor FixedScale::Forward(const Tensor& x) {
  Tensor y = Tensor::Empty(x.shape());
  const float* px = x.data();
  float* py = y.data();
  for (std::int64_t i = 0; i < x.numel(); ++i) py[i] = scale_ * px[i];
  return y;
}

Tensor FixedScale::Forward(const Tensor& x, tensor::Workspace* ws) {
  Tensor y = ws->NewTensor(x.shape());
  const float* px = x.data();
  float* py = y.data();
  for (std::int64_t i = 0; i < x.numel(); ++i) py[i] = scale_ * px[i];
  return y;
}

bool FixedScale::ForwardInPlace(Tensor* x) {
  float* p = x->data();
  const std::int64_t n = x->numel();
  for (std::int64_t i = 0; i < n; ++i) p[i] = scale_ * p[i];
  return true;
}

Tensor FixedScale::Backward(const Tensor& grad_out) {
  Tensor g = Tensor::Empty(grad_out.shape());
  const float* pg = grad_out.data();
  float* po = g.data();
  for (std::int64_t i = 0; i < grad_out.numel(); ++i) po[i] = scale_ * pg[i];
  return g;
}

}  // namespace glsc::nn
