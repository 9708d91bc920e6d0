// Pointwise activation layers with exact analytic backward passes. All of
// them support workspace-backed and in-place inference (elementwise, so
// shapes always allow it).
#pragma once

#include "nn/layer.h"

namespace glsc::nn {

// x * sigmoid(x) — the activation used throughout the diffusion UNet.
class SiLU : public Layer {
 public:
  Tensor Forward(const Tensor& x) override;
  Tensor Forward(const Tensor& x, tensor::Workspace* ws) override;
  bool ForwardInPlace(Tensor* x) override;
  Tensor Backward(const Tensor& grad_out) override;

 private:
  Tensor cached_input_;
};

// Multiplies by a fixed constant. Used at the end of the VAE encoder to set
// the latent magnitude relative to the unit quantization bin: large-scale
// encoders learn this spread over long schedules; at reproduction scale we
// build it in and let training adapt around it.
class FixedScale : public Layer {
 public:
  explicit FixedScale(float scale) : scale_(scale) {}
  Tensor Forward(const Tensor& x) override;
  Tensor Forward(const Tensor& x, tensor::Workspace* ws) override;
  bool ForwardInPlace(Tensor* x) override;
  Tensor Backward(const Tensor& grad_out) override;

 private:
  float scale_;
};

}  // namespace glsc::nn
