#include "nn/linear.h"

#include <cmath>

#include "tensor/gemm.h"

namespace glsc::nn {

Dense::Dense(std::int64_t in_features, std::int64_t out_features, Rng& rng,
             bool bias, const std::string& name)
    : in_(in_features), out_(out_features), has_bias_(bias) {
  // Kaiming-uniform fan-in initialization.
  const float bound = std::sqrt(1.0f / static_cast<float>(in_features));
  weight_ = Param(name + ".weight",
                  Tensor::Uniform({out_, in_}, rng, -bound, bound));
  if (has_bias_) {
    bias_ = Param(name + ".bias", Tensor::Uniform({out_}, rng, -bound, bound));
  }
}

Tensor Dense::Forward(const Tensor& x) {
  GLSC_CHECK(x.rank() >= 1 && x.shape().back() == in_);
  cached_input_ = x;
  const std::int64_t rows = x.numel() / in_;
  Shape out_shape = x.shape();
  out_shape.back() = out_;
  Tensor y = Tensor::Empty(out_shape);
  // y = x * W^T, with the feature bias fused into the final-panel write-back.
  GemmEx(false, true, rows, out_, in_, 1.0f, x.data(), in_,
         weight_.value.data(), in_, 0.0f, y.data(), out_,
         has_bias_ ? bias_.value.data() : nullptr,
         has_bias_ ? GemmEpilogue::kBiasCol : GemmEpilogue::kNone);
  return y;
}

Tensor Dense::Forward(const Tensor& x, tensor::Workspace* ws) {
  GLSC_CHECK(x.rank() >= 1 && x.shape().back() == in_);
  const std::int64_t rows = x.numel() / in_;
  Shape out_shape = x.shape();
  out_shape.back() = out_;
  Tensor y = ws->NewTensor(std::move(out_shape));
  GemmEx(false, true, rows, out_, in_, 1.0f, x.data(), in_,
         weight_.value.data(), in_, 0.0f, y.data(), out_,
         has_bias_ ? bias_.value.data() : nullptr,
         has_bias_ ? GemmEpilogue::kBiasCol : GemmEpilogue::kNone);
  return y;
}

Tensor Dense::Backward(const Tensor& grad_out) {
  GLSC_CHECK(cached_input_.defined());
  GLSC_CHECK(grad_out.shape().back() == out_);
  const Tensor& x = cached_input_;
  const std::int64_t rows = x.numel() / in_;

  // dW += g^T * x    ([out, rows] x [rows, in])
  Gemm(true, false, out_, in_, rows, 1.0f, grad_out.data(), out_, x.data(),
       in_, 1.0f, weight_.grad.data(), in_);
  if (has_bias_) {
    float* gb = bias_.grad.data();
    const float* g = grad_out.data();
    for (std::int64_t r = 0; r < rows; ++r) {
      for (std::int64_t c = 0; c < out_; ++c) gb[c] += g[r * out_ + c];
    }
  }
  // dx = g * W      ([rows, out] x [out, in])
  Tensor grad_in = Tensor::Empty(x.shape());
  Gemm(false, false, rows, in_, out_, 1.0f, grad_out.data(), out_,
       weight_.value.data(), in_, 0.0f, grad_in.data(), in_);
  cached_input_ = Tensor();
  return grad_in;
}

std::vector<Param*> Dense::Params() {
  if (has_bias_) return {&weight_, &bias_};
  return {&weight_};
}

}  // namespace glsc::nn
