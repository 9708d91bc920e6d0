// Normalization layers. GroupNorm is used in the convolutional trunks (it is
// batch-size independent, which matters because training batches here are
// small); LayerNorm is used before attention.
#pragma once

#include "nn/layer.h"

namespace glsc::nn {

class GroupNorm : public Layer {
 public:
  GroupNorm(std::int64_t groups, std::int64_t channels,
            const std::string& name = "gn", float eps = 1e-5f);

  // x: [B, C, H, W]
  Tensor Forward(const Tensor& x) override;
  Tensor Forward(const Tensor& x, tensor::Workspace* ws) override;
  bool ForwardInPlace(Tensor* x) override;
  Tensor Backward(const Tensor& grad_out) override;
  std::vector<Param*> Params() override;

 private:
  std::int64_t groups_;
  std::int64_t channels_;
  float eps_;
  Param gamma_;  // [C]
  Param beta_;   // [C]
  Tensor cached_input_;
  std::vector<float> cached_mean_;     // per (b, g)
  std::vector<float> cached_inv_std_;  // per (b, g)
};

// Normalizes over the last dimension of [..., D].
class LayerNorm : public Layer {
 public:
  LayerNorm(std::int64_t dim, const std::string& name = "ln",
            float eps = 1e-5f);

  Tensor Forward(const Tensor& x) override;
  Tensor Forward(const Tensor& x, tensor::Workspace* ws) override;
  bool ForwardInPlace(Tensor* x) override;
  Tensor Backward(const Tensor& grad_out) override;
  std::vector<Param*> Params() override;

 private:
  std::int64_t dim_;
  float eps_;
  Param gamma_;
  Param beta_;
  Tensor cached_input_;
  std::vector<float> cached_mean_;
  std::vector<float> cached_inv_std_;
};

}  // namespace glsc::nn
