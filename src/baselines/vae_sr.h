// VAE-SR baseline (Li et al. [25]): a VAE+hyperprior codes a 2x-downsampled
// version of every frame; a super-resolution network restores the full
// resolution on decode. Storing low-resolution latents for every frame is
// cheaper than full-resolution latents, which is what makes this the
// strongest learned baseline in the paper — but it still pays per frame,
// which the keyframe+diffusion approach avoids.
#pragma once

#include "compress/vae.h"
#include "compress/vae_trainer.h"
#include "data/dataset.h"
#include "nn/activations.h"
#include "nn/conv.h"

namespace glsc::baselines {

struct VaeSrConfig {
  compress::VaeConfig vae;  // operates on the low-resolution frames
  std::int64_t sr_channels = 24;
  std::uint64_t seed = 67;
};

class VAESRCompressor {
 public:
  explicit VAESRCompressor(const VaeSrConfig& config);

  void Train(const data::SequenceDataset& dataset,
             const compress::VaeTrainConfig& vae_cfg, std::int64_t sr_iters,
             std::int64_t crop);

  struct Compressed {
    compress::VaeBitstream frames;  // low-res latents, every frame
    Shape window_shape;             // full-resolution [N, H, W]
  };

  Compressed Compress(const Tensor& window);
  Tensor Decompress(const Compressed& compressed);

  void Save(ByteWriter* out);
  void Load(ByteReader* in);

 private:
  // SR forward: nearest-upsampled input + learned residual.
  Tensor SrForward(const Tensor& lr);
  Tensor SrBackward(const Tensor& grad_out);
  std::vector<nn::Param*> SrParams();
  static Tensor Downsample2x(const Tensor& frames_n1hw);

  VaeSrConfig config_;
  compress::VaeHyperprior vae_;
  // SR trunk: conv → SiLU → conv → SiLU → up2x → conv (residual to skip).
  nn::Sequential sr_net_;
  nn::NearestUpsample2x sr_skip_;
};

}  // namespace glsc::baselines
