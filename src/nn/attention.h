// Multi-head self-attention over sequences [B, L, D].
//
// The paper's UNet (§3.2, following Ho et al. video diffusion) uses
// *factorized space-time attention*: the same primitive applied twice with
// different reshapes of the [N, C, H, W] latent sequence —
//   spatial attention:  B = N frames,      L = H*W positions
//   temporal attention: B = H*W positions, L = N frames
// The reshape adapters live in diffusion/spacetime_unet.cc; this layer only
// implements the sequence attention with full analytic backward.
#pragma once

#include "nn/linear.h"

namespace glsc::nn {

class MultiHeadSelfAttention : public Layer {
 public:
  MultiHeadSelfAttention(std::int64_t dim, std::int64_t heads, Rng& rng,
                         const std::string& name = "attn");

  // x: [B, L, D] -> [B, L, D]
  Tensor Forward(const Tensor& x) override;
  Tensor Forward(const Tensor& x, tensor::Workspace* ws) override;
  Tensor Backward(const Tensor& grad_out) override;
  std::vector<Param*> Params() override;

 private:
  std::int64_t dim_;
  std::int64_t heads_;
  std::int64_t head_dim_;
  Dense qkv_;   // D -> 3D
  Dense proj_;  // D -> D
  // Caches for backward.
  Tensor cached_q_, cached_k_, cached_v_;  // [B, heads, L, head_dim]
  Tensor cached_attn_;                     // [B, heads, L, L] (post-softmax)
};

}  // namespace glsc::nn
