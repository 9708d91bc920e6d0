// Finite-difference gradient verification for every layer in glsc::nn and
// the composite blocks of the diffusion UNet. These tests are the foundation
// the training results rest on: if they pass, the hand-written backward
// passes compute the true gradients.
#include <gtest/gtest.h>

#include "diffusion/spacetime_unet.h"
#include "gradcheck.h"
#include "nn/activations.h"
#include "nn/attention.h"
#include "nn/conv.h"
#include "nn/linear.h"
#include "nn/norm.h"

namespace glsc {
namespace {

using testing::CheckGradients;

constexpr double kTol = 2e-2;

template <typename L>
void CheckLayer(L& layer, Tensor input, Rng& rng, double tol = kTol) {
  const auto result = CheckGradients(
      [&layer](const Tensor& x) { return layer.Forward(x); },
      [&layer](const Tensor& g) { return layer.Backward(g); }, layer.Params(),
      std::move(input), rng);
  EXPECT_LT(result.max_rel_err_input, tol) << "input gradient mismatch";
  EXPECT_LT(result.max_rel_err_params, tol) << "param gradient mismatch";
}

TEST(GradCheck, Dense) {
  Rng rng(1);
  nn::Dense layer(6, 9, rng);
  CheckLayer(layer, Tensor::Randn({4, 6}, rng), rng);
}

TEST(GradCheck, DenseNoBias) {
  Rng rng(2);
  nn::Dense layer(5, 3, rng, /*bias=*/false);
  CheckLayer(layer, Tensor::Randn({2, 7, 5}, rng), rng);
}

TEST(GradCheck, Conv2dStride1) {
  Rng rng(3);
  nn::Conv2d layer(3, 5, 3, 1, 1, rng);
  CheckLayer(layer, Tensor::Randn({2, 3, 6, 6}, rng), rng);
}

TEST(GradCheck, Conv2dStride2) {
  Rng rng(4);
  nn::Conv2d layer(2, 4, 5, 2, 2, rng);
  CheckLayer(layer, Tensor::Randn({2, 2, 8, 8}, rng), rng);
}

TEST(GradCheck, Conv2dKernel1) {
  Rng rng(5);
  nn::Conv2d layer(4, 4, 1, 1, 0, rng);
  CheckLayer(layer, Tensor::Randn({1, 4, 5, 5}, rng), rng);
}

TEST(GradCheck, NearestUpsample2x) {
  Rng rng(6);
  nn::NearestUpsample2x layer;
  CheckLayer(layer, Tensor::Randn({2, 3, 4, 4}, rng), rng);
}

TEST(GradCheck, AvgPool2x) {
  Rng rng(7);
  nn::AvgPool2x layer;
  CheckLayer(layer, Tensor::Randn({2, 3, 6, 6}, rng), rng);
}

TEST(GradCheck, SiLU) {
  Rng rng(8);
  nn::SiLU layer;
  CheckLayer(layer, Tensor::Randn({3, 17}, rng), rng);
}

TEST(GradCheck, FixedScale) {
  Rng rng(23);
  nn::FixedScale layer(8.0f);
  CheckLayer(layer, Tensor::Randn({3, 9}, rng), rng);
}

TEST(GradCheck, GroupNorm) {
  Rng rng(12);
  nn::GroupNorm layer(2, 6);
  CheckLayer(layer, Tensor::Randn({2, 6, 4, 4}, rng), rng);
}

TEST(GradCheck, GroupNormSingleGroup) {
  Rng rng(13);
  nn::GroupNorm layer(1, 3);
  CheckLayer(layer, Tensor::Randn({1, 3, 5, 5}, rng), rng);
}

TEST(GradCheck, LayerNorm) {
  Rng rng(14);
  nn::LayerNorm layer(12);
  CheckLayer(layer, Tensor::Randn({3, 5, 12}, rng), rng);
}

TEST(GradCheck, MultiHeadSelfAttention) {
  Rng rng(15);
  nn::MultiHeadSelfAttention layer(8, 2, rng);
  CheckLayer(layer, Tensor::Randn({2, 5, 8}, rng), rng);
}

TEST(GradCheck, MultiHeadSelfAttentionSingleHead) {
  Rng rng(16);
  nn::MultiHeadSelfAttention layer(6, 1, rng);
  CheckLayer(layer, Tensor::Randn({1, 9, 6}, rng), rng);
}

TEST(GradCheck, SpatialAttentionBlock) {
  Rng rng(17);
  diffusion::SpatialAttentionBlock layer(8, 2, rng, "t");
  CheckLayer(layer, Tensor::Randn({3, 8, 3, 3}, rng), rng);
}

TEST(GradCheck, TemporalAttentionBlock) {
  Rng rng(18);
  diffusion::TemporalAttentionBlock layer(8, 2, rng, "t");
  CheckLayer(layer, Tensor::Randn({4, 8, 2, 3}, rng), rng);
}

TEST(GradCheck, Sequential) {
  Rng rng(19);
  nn::Sequential seq;
  seq.Emplace<nn::Conv2d>(2, 4, 3, 1, 1, rng, "c1");
  seq.Emplace<nn::SiLU>();
  seq.Emplace<nn::Conv2d>(4, 2, 3, 1, 1, rng, "c2");
  CheckLayer(seq, Tensor::Randn({1, 2, 6, 6}, rng), rng);
}

TEST(GradCheck, ResBlock) {
  Rng rng(20);
  diffusion::ResBlock block(8, 8, rng, "rb");
  Tensor temb = Tensor::Randn({1, 8}, rng);
  const auto result = CheckGradients(
      [&](const Tensor& x) { return block.Forward(x, temb); },
      [&](const Tensor& g) {
        Tensor gt({1, 8});
        return block.Backward(g, &gt);
      },
      block.Params(), Tensor::Randn({2, 8, 4, 4}, rng), rng);
  EXPECT_LT(result.max_rel_err_input, kTol);
  EXPECT_LT(result.max_rel_err_params, kTol);
}

// Full UNet end-to-end gradient check (small geometry). This exercises skip
// connections, both attention factorizations and the time-embedding path.
TEST(GradCheck, SpaceTimeUNetFull) {
  Rng rng(21);
  diffusion::UNetConfig config;
  config.latent_channels = 4;
  config.model_channels = 8;
  config.heads = 2;
  config.seed = 99;
  diffusion::SpaceTimeUNet unet(config);
  // conv_out is zero-initialized for training stability; perturb all params
  // so the check does not trivially compare zeros against zeros.
  for (nn::Param* p : unet.Params()) {
    for (std::int64_t i = 0; i < p->value.numel(); ++i) {
      p->value[i] += 0.05f * rng.NormalF();
    }
  }
  const auto result = CheckGradients(
      [&](const Tensor& x) { return unet.Forward(x, 17); },
      [&](const Tensor& g) { return unet.Backward(g); }, unet.Params(),
      Tensor::Randn({4, 4, 4, 4}, rng), rng, /*eps=*/1e-2f, /*probes=*/8);
  // Float32 round-off through ~20 layers dominates the finite difference;
  // a sign/term bug would show up as O(1) relative error, not <10%.
  EXPECT_LT(result.max_rel_err_input, 8e-2);
  EXPECT_LT(result.max_rel_err_params, 8e-2);
}

TEST(GradCheck, SpaceTimeUNetNoStage1Attention) {
  Rng rng(22);
  diffusion::UNetConfig config;
  config.latent_channels = 2;
  config.in_channels = 3;
  config.out_channels = 1;
  config.model_channels = 8;
  config.heads = 2;
  config.stage1_attention = false;
  config.seed = 100;
  diffusion::SpaceTimeUNet unet(config);
  for (nn::Param* p : unet.Params()) {
    for (std::int64_t i = 0; i < p->value.numel(); ++i) {
      p->value[i] += 0.05f * rng.NormalF();
    }
  }
  const auto result = CheckGradients(
      [&](const Tensor& x) { return unet.Forward(x, 3); },
      [&](const Tensor& g) { return unet.Backward(g); }, unet.Params(),
      Tensor::Randn({2, 3, 4, 4}, rng), rng, /*eps=*/1e-2f, /*probes=*/12);
  EXPECT_LT(result.max_rel_err_input, 5e-2);
  EXPECT_LT(result.max_rel_err_params, 5e-2);
}

}  // namespace
}  // namespace glsc
