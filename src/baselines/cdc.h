// Pixel-space conditional diffusion codecs, the learned baselines of
// Figure 3 and Table 2:
//   CDC (Yang & Mandt [38]) — 2D: every frame denoises on its own (block 1),
//     in both parameterizations:
//       CDC-X   — the network predicts the clean signal x0 directly;
//       CDC-eps — the network predicts the injected noise.
//   GCD (Lee et al. [20])  — CDC extended to spatiotemporal blocks: the
//     [block, H, W] frames denoise jointly, and temporal attention mixes
//     them (block > 1, eps parameterization).
//
// Design mirrored from the paper: a VAE+hyperprior encodes EVERY frame to a
// quantized latent (this is the storage cost our method undercuts); the
// decoded VAE reconstruction conditions a PIXEL-SPACE diffusion model that
// refines it. Decoding therefore runs the reverse process at full spatial
// resolution — the source of CDC's slow decode in Table 2, and joint 3D
// denoising makes GCD slower still.
#pragma once

#include "compress/vae.h"
#include "compress/vae_trainer.h"
#include "data/dataset.h"
#include "diffusion/noise_schedule.h"
#include "diffusion/spacetime_unet.h"

namespace glsc::baselines {

enum class PredictTarget { kX0, kEpsilon };

struct CdcConfig {
  compress::VaeConfig vae;
  std::int64_t model_channels = 24;
  std::int64_t heads = 4;
  std::int64_t schedule_steps = 200;
  PredictTarget target = PredictTarget::kEpsilon;
  // Frames denoised together. 1 is CDC's per-frame 2D model; N is GCD's 3D
  // block: training samples N consecutive frames, and decode splits a
  // window into blocks of N frames that each denoise jointly in pixel space
  // with temporal attention, conditioned on the per-frame VAE
  // reconstructions. A decoded window must hold a whole number of blocks.
  std::int64_t block = 1;
  std::uint64_t seed = 57;
};

class CDCCompressor {
 public:
  explicit CDCCompressor(const CdcConfig& config);

  // Stage 1 (VAE) + stage 2 (conditional pixel diffusion).
  void Train(const data::SequenceDataset& dataset,
             const compress::VaeTrainConfig& vae_cfg,
             std::int64_t diffusion_iters, std::int64_t crop);

  struct Compressed {
    compress::VaeBitstream frames;  // latents for EVERY frame
    Shape window_shape;
  };

  // window: normalized frames [N, H, W].
  Compressed Compress(const Tensor& window);
  // N must be a multiple of block().
  Tensor Decompress(const Compressed& compressed, std::int64_t steps,
                    Rng& rng);
  // VAE-only reconstruction (conditioning signal), for ablation.
  Tensor DecompressVaeOnly(const Compressed& compressed);

  std::int64_t block() const { return config_.block; }

  void Save(ByteWriter* out);
  void Load(ByteReader* in);

 private:
  CdcConfig config_;
  compress::VaeHyperprior vae_;
  diffusion::NoiseSchedule schedule_;
  diffusion::SpaceTimeUNet unet_;
};

}  // namespace glsc::baselines
