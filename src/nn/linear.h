// Fully-connected layer. Input of shape [..., in_features] is treated as a
// flat batch of rows; used by attention projections, time-embedding MLPs and
// the factorized-prior parameterization.
#pragma once

#include "nn/layer.h"

namespace glsc::nn {

class Dense : public Layer {
 public:
  Dense(std::int64_t in_features, std::int64_t out_features, Rng& rng,
        bool bias = true, const std::string& name = "dense");

  Tensor Forward(const Tensor& x) override;
  Tensor Forward(const Tensor& x, tensor::Workspace* ws) override;
  Tensor Backward(const Tensor& grad_out) override;
  std::vector<Param*> Params() override;

  std::int64_t in_features() const { return in_; }
  std::int64_t out_features() const { return out_; }

 private:
  std::int64_t in_;
  std::int64_t out_;
  bool has_bias_;
  Param weight_;  // [out, in]
  Param bias_;    // [out]
  Tensor cached_input_;
};

}  // namespace glsc::nn
