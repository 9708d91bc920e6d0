// Denoising UNet with factorized space-time attention (§3.2). The network
// operates on a full latent window [N, C_lat, H, W]: spatial layers treat the
// N frames as a batch; attention is applied twice per stage —
//   spatial:  sequences of length H*W within each frame,
//   temporal: sequences of length N at each spatial position —
// exactly the factorization of Ho et al.'s video diffusion UNet, adapted to
// latent space by setting the I/O channel count to the VAE's latent width
// (the paper changes 3 -> 64; we use the configured latent_channels).
//
// Explicit-backward composition: Forward caches activations, Backward must
// follow each Forward exactly once.
#pragma once

#include <memory>

#include "nn/activations.h"
#include "nn/attention.h"
#include "nn/conv.h"
#include "nn/linear.h"
#include "nn/norm.h"

namespace glsc::diffusion {

struct UNetConfig {
  std::int64_t latent_channels = 16;
  std::int64_t model_channels = 32;
  std::int64_t heads = 4;
  // I/O channel overrides (0 = use latent_channels). The GLSC latent model
  // uses equal I/O; pixel-space baselines (CDC/GCD) take [noisy | condition]
  // stacks in and predict a single channel out.
  std::int64_t in_channels = 0;
  std::int64_t out_channels = 0;
  // Full-resolution attention is the dominant cost in pixel space; real UNets
  // attend only at coarse scales. Stage-1 (full-res) attention can be
  // disabled; stage-2 (downsampled) attention is always on.
  bool stage1_attention = true;
  std::uint64_t seed = 41;

  std::int64_t EffectiveIn() const {
    return in_channels > 0 ? in_channels : latent_channels;
  }
  std::int64_t EffectiveOut() const {
    return out_channels > 0 ? out_channels : latent_channels;
  }
};

// Residual block with timestep-embedding injection:
//   h = conv1(SiLU(GN(x))); h += proj(SiLU(temb)) per channel;
//   h = conv2(SiLU(GN(h))); return x + h.
class ResBlock {
 public:
  ResBlock(std::int64_t channels, std::int64_t temb_dim, Rng& rng,
           const std::string& name);

  Tensor Forward(const Tensor& x, const Tensor& temb);
  // Workspace inference forward: the result borrows arena memory and is
  // allocated first; the temporaries rewind before it returns, and nothing
  // is cached (never follow with Backward). Byte-identical to Forward, since
  // the temb shift broadcast is per (frame, channel) either way.
  Tensor Forward(const Tensor& x, const Tensor& temb, tensor::Workspace* ws);
  // Returns dx; accumulates d(temb) into grad_temb (shape [1, temb_dim]).
  Tensor Backward(const Tensor& grad_out, Tensor* grad_temb);
  std::vector<nn::Param*> Params();

 private:
  std::int64_t channels_;
  nn::GroupNorm gn1_, gn2_;
  nn::SiLU act1_, act2_, act_temb_;
  nn::Conv2d conv1_, conv2_;
  nn::Dense temb_proj_;
  Shape cached_x_shape_;
};

// x + MHSA(LN(x)) over intra-frame positions (L = H*W, batch = N).
class SpatialAttentionBlock : public nn::Layer {
 public:
  SpatialAttentionBlock(std::int64_t channels, std::int64_t heads, Rng& rng,
                        const std::string& name);
  Tensor Forward(const Tensor& x, bool training) override;
  // Frames attend only within themselves, so stacked windows batch for free
  // along dim 0: this one workspace forward serves any batch. Leaves only
  // its result allocated in `ws`.
  Tensor Forward(const Tensor& x, tensor::Workspace* ws) override;
  Tensor Backward(const Tensor& grad_out) override;
  std::vector<nn::Param*> Params() override;
  std::string Name() const override { return "SpatialAttentionBlock"; }

 private:
  nn::LayerNorm norm_;
  nn::MultiHeadSelfAttention attn_;
  Shape cached_shape_;
};

// x + MHSA(LN(x)) across frames (L = N, batch = H*W).
class TemporalAttentionBlock : public nn::Layer {
 public:
  TemporalAttentionBlock(std::int64_t channels, std::int64_t heads, Rng& rng,
                         const std::string& name);
  Tensor Forward(const Tensor& x, bool training) override;
  // One window: ForwardBatchedWindows with windows == 1.
  Tensor Forward(const Tensor& x, tensor::Workspace* ws) override;
  // Batched temporal attention over `windows` stacked windows: x is
  // [B*N, C, H, W] and frames attend only within their own window (sequence
  // length stays N — windows never mix). Byte-identical per window to the
  // training forward on that window alone. Leaves only its result allocated
  // in `ws`.
  Tensor ForwardBatchedWindows(const Tensor& x, std::int64_t windows,
                               tensor::Workspace* ws);
  Tensor Backward(const Tensor& grad_out) override;
  std::vector<nn::Param*> Params() override;
  std::string Name() const override { return "TemporalAttentionBlock"; }

 private:
  nn::LayerNorm norm_;
  nn::MultiHeadSelfAttention attn_;
  Shape cached_shape_;
};

class SpaceTimeUNet {
 public:
  explicit SpaceTimeUNet(const UNetConfig& config);

  const UNetConfig& config() const { return config_; }

  // y_t: composed noisy window [N, C_lat, H, W]; t: timestep index in the
  // ORIGINAL (pre-respacing) schedule, so fine-tuned few-step models keep a
  // consistent embedding. Returns estimated noise, same shape as input.
  Tensor Forward(const Tensor& y_t, std::int64_t t);
  // The inference forward, over `windows` stacked windows: y_t is
  // [B*N, C_lat, H, W] with the B windows' frames concatenated along dim 0
  // (windows == 1 is the single-window case). One pass denoises all B
  // windows — convolutions and attention fuse into B×-wider GEMMs, and
  // temporal attention keeps each window's frames in their own length-N
  // sequence. Every window's slice of the output is byte-identical to the
  // training Forward on that window alone. Every activation (result
  // included) borrows arena memory and nothing is cached, so steady-state
  // sampler loops grow no workspace slabs; never follow with Backward. It
  // writes no member, so several threads may run it on one model at once,
  // each with its own arena. All windows share the timestep t (the DDIM
  // ladder is config-determined, not data-dependent).
  Tensor Forward(const Tensor& y_t, std::int64_t t, tensor::Workspace* ws,
                 std::int64_t windows);
  Tensor Backward(const Tensor& grad_out);

  std::vector<nn::Param*> Params();
  void Save(ByteWriter* out);
  void Load(ByteReader* in);

 private:
  UNetConfig config_;
  // Owned here (declared before the layers) so the member-initializer list
  // can thread one RNG through every layer's weight init.
  std::unique_ptr<Rng> rng_storage_;
  // Cached time embedding of the current Forward (shared by all ResBlocks).
  Tensor temb_;

  // Time-embedding MLP.
  nn::Dense temb_fc1_;
  nn::SiLU temb_act_;
  nn::Dense temb_fc2_;

  nn::Conv2d conv_in_;
  ResBlock res1_;
  SpatialAttentionBlock sattn1_;
  TemporalAttentionBlock tattn1_;
  nn::Conv2d down_;
  ResBlock res2_;
  SpatialAttentionBlock sattn2_;
  TemporalAttentionBlock tattn2_;
  nn::NearestUpsample2x up_;
  nn::Conv2d up_conv_;
  ResBlock res3_;
  nn::GroupNorm gn_out_;
  nn::SiLU act_out_;
  nn::Conv2d conv_out_;
};

}  // namespace glsc::diffusion
