// VAE with scale-hyperprior transform coder (§3.1 of the paper, following
// Ballé/Minnen). Pipeline:
//
//   x --E--> y --round--> y_hat --D--> x_hat
//             \--Eh--> z --round--> z_hat --Dh--> (mu, sigma) for coding y_hat
//
// Training replaces rounding with additive U(-1/2,1/2) noise and minimizes
//   L = MSE(x, x_hat) + lambda * (bits(y) + bits(z))     (Eq. 8)
// with the Gaussian conditional rate for y and the factorized logistic prior
// for z. Inference performs real rounding and real range coding, so reported
// compressed sizes are actual bytes.
//
// Geometry: stride-4 total downsampling (two stride-2 convs); inputs must
// have H, W divisible by 4.
#pragma once

#include <memory>

#include "codec/gaussian_model.h"
#include "compress/factorized_prior.h"
#include "nn/activations.h"
#include "nn/conv.h"
#include "nn/layer.h"
#include "util/rng.h"

namespace glsc::compress {

struct VaeConfig {
  std::int64_t input_channels = 1;
  std::int64_t hidden_channels = 32;
  std::int64_t latent_channels = 16;  // paper: 64; scaled default
  std::int64_t hyper_channels = 8;
  // Fixed gain on the encoder output. Integer rounding is only informative
  // when latents span many quantization bins; long-schedule training learns
  // this spread, short-schedule training gets it as an inductive bias.
  float latent_scale = 8.0f;
  std::uint64_t seed = 17;
};

// One frame-batch compressed to real bitstreams.
struct VaeBitstream {
  std::vector<std::uint8_t> y_stream;
  std::vector<std::uint8_t> z_stream;
  Shape y_shape;
  Shape z_shape;

  std::size_t TotalBytes() const { return y_stream.size() + z_stream.size(); }
};

class VaeHyperprior {
 public:
  explicit VaeHyperprior(const VaeConfig& config);

  // Total spatial downsampling: an H x W frame has H/4 x W/4 latents, and
  // the decoder turns an h x w latent back into a 4h x 4w frame.
  static constexpr std::int64_t kDownsample = 4;

  const VaeConfig& config() const { return config_; }

  struct LossInfo {
    double mse = 0.0;
    double bits_y = 0.0;
    double bits_z = 0.0;
    double loss = 0.0;
    std::int64_t pixels = 0;
    double bpp() const {
      return pixels > 0 ? (bits_y + bits_z) / static_cast<double>(pixels) : 0.0;
    }
  };

  // One full RD forward+backward over a batch x [B, C_in, H, W]; gradients
  // are accumulated into Params(). Caller owns optimizer step / zero-grad.
  LossInfo TrainingForwardBackward(const Tensor& x, double lambda, Rng& rng);

  // ---- inference-time pieces ----
  // Continuous encoder output y = E(x).
  Tensor EncodeLatent(const Tensor& x);
  // Decoder reconstruction from (quantized or generated) latents.
  Tensor DecodeLatent(const Tensor& y_hat);
  // Workspace variant, the one GLSC decode uses: the decoder convolutions
  // fuse all leading-dim frames (stacked windows) into merged GEMMs, and the
  // reconstruction (with all decoder activations) borrows arena memory
  // valid until the caller's scope rewinds. Byte-identical to DecodeLatent.
  Tensor DecodeLatentBatched(const Tensor& y_hat, tensor::Workspace* ws);
  // Full entropy-coded compression of a frame batch.
  VaeBitstream Compress(const Tensor& x);
  // Compression of pre-computed latents (the GLSC pipeline quantizes
  // keyframe latents that were encoded separately).
  VaeBitstream CompressLatents(const Tensor& y_continuous);
  // Recovers quantized latents from the bitstream. The workspace variant
  // allocates the hyper-decoder activations and (mu, sigma) from `ws`; the
  // returned latents are owned either way (they outlive decode scopes).
  Tensor DecompressLatents(const VaeBitstream& bits);
  Tensor DecompressLatents(const VaeBitstream& bits, tensor::Workspace* ws);
  // Estimated rate (bits) of given integer latents under the hyperprior,
  // without producing a bitstream (used for fast RD sweeps).
  double EstimateLatentBits(const Tensor& y_hat);

  std::vector<nn::Param*> Params();
  void Save(ByteWriter* out);
  void Load(ByteReader* in);

 private:
  // Runs the hyper path on integer latents: z_hat plus (mu, sigma) for y.
  void HyperForwardInference(const Tensor& y, Tensor* z_hat, Tensor* mu,
                             Tensor* sigma);

  VaeConfig config_;
  nn::Sequential encoder_;
  nn::Sequential decoder_;
  nn::Sequential hyper_encoder_;
  nn::Sequential hyper_decoder_;  // outputs 2*latent_channels (mu, sigma_raw)
  FactorizedPrior prior_;
  codec::GaussianConditionalModel gaussian_codec_;
};

}  // namespace glsc::compress
