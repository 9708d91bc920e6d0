// GlscCompressor — the paper's primary contribution assembled end to end:
//
//   compress(window):
//     1. keyframe latents y_C = Round(E(x_C)), entropy-coded with the
//        hyperprior (the ONLY per-frame latents that are stored);
//     2. a decoder-identical simulation reconstructs the window (diffusion
//        interpolation of the non-keyframe latents, VAE decode);
//     3. optional PCA post-processing appends per-frame corrections until the
//        L2 error of every frame is <= tau (the paper's error-bound
//        guarantee, §3.5).
//
//   decompress(bitstreams):
//     decode y_C -> min-max normalize (bounds derived from y_C, identical on
//     both sides) -> conditional latent diffusion generates y_G -> VAE
//     decodes all frames -> corrections applied.
//
// Determinism: sampling uses DDIM (eta = 0), so the only stochastic input is
// the initial Gaussian draw; its RNG seed is stored in the window header,
// making decompression bit-reproducible. The seed is a function of the
// window's element count alone, so every window of one geometry starts from
// the same draw.
#pragma once

#include <memory>

#include "compress/vae.h"
#include "diffusion/conditioner.h"
#include "diffusion/noise_schedule.h"
#include "diffusion/sampler.h"
#include "diffusion/spacetime_unet.h"
#include "postprocess/residual_pca.h"

namespace glsc::core {

struct GlscConfig {
  compress::VaeConfig vae;
  diffusion::UNetConfig unet;
  std::int64_t schedule_steps = 200;
  std::int64_t window = 16;  // N
  diffusion::KeyframeStrategy strategy =
      diffusion::KeyframeStrategy::kInterpolation;
  std::int64_t interval = 3;   // interpolation stride
  std::int64_t key_count = 6;  // for prediction / mixed strategies
  std::int64_t sample_steps = 32;
  postprocess::PcaConfig pca;

  GlscConfig() { unet.latent_channels = vae.latent_channels; }
};

// One compressed window with real byte accounting (Eq. 11 numerator parts).
struct CompressedWindow {
  compress::VaeBitstream keyframes;
  std::vector<std::vector<std::uint8_t>> corrections;  // per frame (maybe empty)
  Shape window_shape;  // [N, H, W]
  std::uint32_t sample_seed = 0;

  // latent bytes = Size(L); correction bytes = Size(G).
  std::size_t LatentBytes() const;
  std::size_t CorrectionBytes() const;
  // Header overhead: shapes/seed plus the per-frame normalization pair the
  // decoder needs to restore physical units (2 float32 per frame).
  std::size_t HeaderBytes() const;
  std::size_t TotalBytes() const {
    return LatentBytes() + CorrectionBytes() + HeaderBytes();
  }
};

class GlscCompressor {
 public:
  explicit GlscCompressor(const GlscConfig& config);

  const GlscConfig& config() const { return config_; }
  const std::vector<std::int64_t>& keyframe_indices() const { return key_idx_; }
  const std::vector<std::int64_t>& generated_indices() const { return gen_idx_; }

  compress::VaeHyperprior& vae() { return vae_; }
  diffusion::SpaceTimeUNet& unet() { return unet_; }
  const diffusion::NoiseSchedule& schedule() const { return schedule_; }
  postprocess::ResidualPca& pca() { return pca_; }

  // window: normalized frames [N, H, W]. tau <= 0 disables correction.
  // `sample_steps` <= 0 uses config().sample_steps. When `recon_out` is
  // non-null it receives the decoder-identical reconstruction computed during
  // compression (with corrections applied when tau > 0), saving callers a
  // redundant Decompress pass. The reconstruction is a decode batch of one.
  //
  // Every decode below runs the sampler + VAE decode in a workspace arena:
  // `ws` when non-null (reused across calls, a steady-state loop grows no
  // slabs; see tensor/workspace.h), otherwise a local one. Results are
  // always OWNED — arena memory never escapes these calls.
  CompressedWindow Compress(const Tensor& window, double tau,
                            std::int64_t sample_steps = 0,
                            Tensor* recon_out = nullptr,
                            tensor::Workspace* ws = nullptr);
  // One window: DecompressBatch of one.
  Tensor Decompress(const CompressedWindow& compressed,
                    std::int64_t sample_steps = 0,
                    tensor::Workspace* ws = nullptr);

  // Decodes B windows with their frames stacked along dim 0, so the UNet and
  // decoder GEMMs run over several windows at once. The sampler and the VAE
  // decode are spread over the global ThreadPool: the sampler in pieces of
  // whole windows, the VAE decode in pieces of frames, each piece in its own
  // child arena of `ws`. Entropy decode, normalization bounds, the sampling
  // RNG, and PCA corrections remain strictly per window (and on the calling
  // thread), so each returned tensor is independent of its batch-mates and
  // of the piece split (tests/batched_decode_test.cc holds this against a
  // reference built from the allocating pieces). All windows must share
  // window_shape. `sample_steps` <= 0 uses config().sample_steps.
  std::vector<Tensor> DecompressBatch(
      const std::vector<const CompressedWindow*>& windows,
      std::int64_t sample_steps = 0, tensor::Workspace* ws = nullptr);

  // Reconstruction WITHOUT entropy coding (keyframe latents passed through
  // quantization only) — used for PCA fitting and ablations; identical
  // output to the coded path because coding is lossless.
  Tensor Reconstruct(const Tensor& window, std::uint32_t seed,
                     std::int64_t sample_steps = 0);

  void Save(ByteWriter* out);
  void Load(ByteReader* in);

 private:
  // The one inference body: each window's keyframe latents and sampling
  // seed -> its reconstruction [N, H, W] before PCA corrections, through the
  // sampler and VAE fan-outs described at DecompressBatch, in `ws` and its
  // child arenas (a local arena when null). B == 1 is the single-window case.
  std::vector<Tensor> DecodeWindowsFromLatents(
      const std::vector<Tensor>& y_keys,
      const std::vector<std::uint32_t>& sample_seeds,
      std::int64_t sample_steps, const Shape& window_shape,
      tensor::Workspace* ws);

  GlscConfig config_;
  compress::VaeHyperprior vae_;
  diffusion::NoiseSchedule schedule_;
  diffusion::SpaceTimeUNet unet_;
  postprocess::ResidualPca pca_;
  std::vector<std::int64_t> key_idx_;
  std::vector<std::int64_t> gen_idx_;
};

}  // namespace glsc::core
