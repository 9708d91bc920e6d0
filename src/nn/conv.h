// 2D convolution layers in NCHW layout. The forward pass is an implicit
// GEMM (ConvGemm, tensor/gemm.h) over zero-padded frames; the backward pass
// lowers through im2col. Downsampling uses stride-2 convolutions;
// upsampling uses nearest-neighbour 2x upsample followed by a convolution
// (checkerboard-free and with a much simpler backward pass than transposed
// convolution).
#pragma once

#include <vector>

#include "nn/layer.h"

namespace glsc::nn {

class Conv2d : public Layer {
 public:
  Conv2d(std::int64_t in_channels, std::int64_t out_channels,
         std::int64_t kernel, std::int64_t stride, std::int64_t pad, Rng& rng,
         const std::string& name = "conv");

  // x: [B, C_in, H, W] -> [B, C_out, OH, OW]. Both overloads run one body,
  // which merges frames along the GEMM N dimension: a chunk of frames is
  // one weight pass instead of one GEMM per frame. Per-element
  // accumulation order does not depend on the column position, so the
  // output does not depend on the chunking.
  Tensor Forward(const Tensor& x, bool training) override;
  Tensor Forward(const Tensor& x, tensor::Workspace* ws) override;
  Tensor Backward(const Tensor& grad_out) override;
  std::vector<Param*> Params() override;
  std::string Name() const override { return "Conv2d"; }

  std::int64_t in_channels() const { return in_c_; }
  std::int64_t out_channels() const { return out_c_; }

 private:
  // The forward body: [B, C_out, OH, OW] output shape for x, the scratch
  // one call needs (a chunk of padded frames, and a multi-frame GEMM output
  // when a chunk holds several frames; 0 when unused), and the pad +
  // implicit-GEMM loop writing into the (Empty or arena) output. Apply is
  // const: the scratch is the caller's, so the workspace forward writes
  // nothing but its arena and its result.
  struct Scratch {
    std::int64_t padded = 0;
    std::int64_t staged = 0;
  };
  Shape OutputShape(const Tensor& x) const;
  Scratch ScratchFloats(const Tensor& x, const Tensor& y) const;
  void Apply(const Tensor& x, Tensor* y, float* padded, float* staged) const;

  std::int64_t in_c_, out_c_, kernel_, stride_, pad_;
  Param weight_;  // [out_c, in_c * k * k]
  Param bias_;    // [out_c]
  Tensor cached_input_;
  // Grow-only scratch of the training forward and Backward, so repeated
  // calls on same-shaped inputs never re-allocate (training runs one thread
  // per layer instance). Forward(x, ws) takes its scratch from the arena.
  std::vector<float> pad_scratch_;       // forward: a chunk of padded frames;
                                         // backward: one padded plane
  std::vector<float> stage_scratch_;     // forward: multi-frame GEMM output
  std::vector<float> col_scratch_;       // backward: im2col columns
  std::vector<float> grad_col_scratch_;  // backward: dcolumns
};

// Nearest-neighbour 2x spatial upsampling. Backward is a 2x2 sum-pool of the
// incoming gradient.
class NearestUpsample2x : public Layer {
 public:
  Tensor Forward(const Tensor& x, bool training) override;
  Tensor Forward(const Tensor& x, tensor::Workspace* ws) override;
  Tensor Backward(const Tensor& grad_out) override;
  std::string Name() const override { return "NearestUpsample2x"; }

 private:
  Shape cached_in_shape_;
};

// 2x2 average pooling (stride 2); used by the VAE-SR baseline's
// low-resolution branch.
class AvgPool2x : public Layer {
 public:
  Tensor Forward(const Tensor& x, bool training) override;
  Tensor Forward(const Tensor& x, tensor::Workspace* ws) override;
  Tensor Backward(const Tensor& grad_out) override;
  std::string Name() const override { return "AvgPool2x"; }

 private:
  Shape cached_in_shape_;
};

}  // namespace glsc::nn
