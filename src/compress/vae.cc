#include "compress/vae.h"

#include <cmath>

#include "compress/rate.h"
#include "tensor/ops.h"
#include "util/logging.h"

namespace glsc::compress {
namespace {

// sigma = softplus(raw) + floor keeps scales positive with smooth gradients.
constexpr float kSigmaFloor = 1e-2f;

float Softplus(float x) {
  // Numerically stable: log1p(exp(-|x|)) + max(x, 0).
  return std::log1p(std::exp(-std::fabs(x))) + std::max(x, 0.0f);
}

float SoftplusGrad(float x) { return 1.0f / (1.0f + std::exp(-x)); }

// Splits the hyper-decoder output [B, 2*lat, h, w] into mu and sigma_raw
// (both [B, lat, h, w], preallocated by the caller). Every consumer of the
// hyper path — training, inference, both DecompressLatents overloads — must
// agree on this layout and on sigma = Softplus(raw) + kSigmaFloor.
void SplitHyperParams(const Tensor& params, std::int64_t lat, Tensor* mu,
                      Tensor* sigma_raw) {
  const std::int64_t batch = params.dim(0);
  const std::int64_t hw = params.dim(2) * params.dim(3);
  for (std::int64_t b = 0; b < batch; ++b) {
    const float* src = params.data() + b * 2 * lat * hw;
    std::copy_n(src, lat * hw, mu->data() + b * lat * hw);
    std::copy_n(src + lat * hw, lat * hw, sigma_raw->data() + b * lat * hw);
  }
}

}  // namespace

VaeHyperprior::VaeHyperprior(const VaeConfig& config)
    : config_(config), prior_(config.hyper_channels) {
  Rng rng(config.seed);
  const std::int64_t ch = config.hidden_channels;
  const std::int64_t lat = config.latent_channels;
  const std::int64_t hyp = config.hyper_channels;

  // Encoder: C_in -> ch (s2) -> ch (s2) -> lat.
  encoder_.Emplace<nn::Conv2d>(config.input_channels, ch, 5, 2, 2, rng,
                               "enc.conv1");
  encoder_.Emplace<nn::SiLU>();
  encoder_.Emplace<nn::Conv2d>(ch, ch, 5, 2, 2, rng, "enc.conv2");
  encoder_.Emplace<nn::SiLU>();
  encoder_.Emplace<nn::Conv2d>(ch, lat, 3, 1, 1, rng, "enc.conv3");
  encoder_.Emplace<nn::FixedScale>(config.latent_scale);

  // Decoder mirrors with nearest-up + conv.
  decoder_.Emplace<nn::Conv2d>(lat, ch, 3, 1, 1, rng, "dec.conv1");
  decoder_.Emplace<nn::SiLU>();
  decoder_.Emplace<nn::NearestUpsample2x>();
  decoder_.Emplace<nn::Conv2d>(ch, ch, 5, 1, 2, rng, "dec.conv2");
  decoder_.Emplace<nn::SiLU>();
  decoder_.Emplace<nn::NearestUpsample2x>();
  decoder_.Emplace<nn::Conv2d>(ch, ch, 5, 1, 2, rng, "dec.conv3");
  decoder_.Emplace<nn::SiLU>();
  decoder_.Emplace<nn::Conv2d>(ch, config.input_channels, 3, 1, 1, rng,
                               "dec.conv4");

  // Hyper path: lat -> hyp (s2) -> hyp (s2); decoder mirrors to 2*lat.
  hyper_encoder_.Emplace<nn::Conv2d>(lat, hyp, 3, 2, 1, rng, "henc.conv1");
  hyper_encoder_.Emplace<nn::SiLU>();
  hyper_encoder_.Emplace<nn::Conv2d>(hyp, hyp, 3, 2, 1, rng, "henc.conv2");

  hyper_decoder_.Emplace<nn::Conv2d>(hyp, hyp, 3, 1, 1, rng, "hdec.conv1");
  hyper_decoder_.Emplace<nn::SiLU>();
  hyper_decoder_.Emplace<nn::NearestUpsample2x>();
  hyper_decoder_.Emplace<nn::Conv2d>(hyp, hyp, 3, 1, 1, rng, "hdec.conv2");
  hyper_decoder_.Emplace<nn::SiLU>();
  hyper_decoder_.Emplace<nn::NearestUpsample2x>();
  hyper_decoder_.Emplace<nn::Conv2d>(hyp, 2 * lat, 3, 1, 1, rng, "hdec.conv3");
}

VaeHyperprior::LossInfo VaeHyperprior::TrainingForwardBackward(const Tensor& x,
                                                               double lambda,
                                                               Rng& rng) {
  GLSC_CHECK(x.rank() == 4 && x.dim(1) == config_.input_channels);
  GLSC_CHECK_MSG(x.dim(2) % kDownsample == 0 && x.dim(3) % kDownsample == 0,
                 "input H,W must be divisible by 4, got "
                     << x.dim(2) << "x" << x.dim(3));
  const std::int64_t lat = config_.latent_channels;

  // ---------- forward ----------
  Tensor y = encoder_.Forward(x, /*training=*/true);

  // Noise-proxy quantization of y (for decoder + rate) — identity gradient.
  Tensor y_noisy = Tensor::Empty(y.shape());
  {
    const float* py = y.data();
    float* pn = y_noisy.data();
    for (std::int64_t i = 0; i < y.numel(); ++i) {
      pn[i] = py[i] + rng.UniformF(-0.5f, 0.5f);
    }
  }

  Tensor z = hyper_encoder_.Forward(y, /*training=*/true);
  Tensor z_noisy = Tensor::Empty(z.shape());
  {
    const float* pz = z.data();
    float* pn = z_noisy.data();
    for (std::int64_t i = 0; i < z.numel(); ++i) {
      pn[i] = pz[i] + rng.UniformF(-0.5f, 0.5f);
    }
  }

  Tensor params = hyper_decoder_.Forward(z_noisy, /*training=*/true);
  GLSC_CHECK(params.dim(1) == 2 * lat);
  const std::int64_t batch = params.dim(0);
  const std::int64_t hw = params.dim(2) * params.dim(3);

  Tensor mu = Tensor::Empty({batch, lat, params.dim(2), params.dim(3)});
  Tensor sigma_raw = Tensor::Empty(mu.shape());
  SplitHyperParams(params, lat, &mu, &sigma_raw);
  Tensor sigma = Map(sigma_raw,
                     [](float v) { return Softplus(v) + kSigmaFloor; });

  Tensor x_hat = decoder_.Forward(y_noisy, /*training=*/true);

  // ---------- losses ----------
  LossInfo info;
  info.pixels = x.numel();
  info.mse = MeanSquaredError(x, x_hat);

  Tensor g_y_rate(y.shape());
  Tensor g_mu(mu.shape());
  Tensor g_sigma(sigma.shape());
  info.bits_y = GaussianRateBits(y_noisy, mu, sigma, &g_y_rate, &g_mu,
                                 &g_sigma);

  Tensor g_z_rate(z.shape());
  info.bits_z = prior_.RateBits(z_noisy, &g_z_rate);
  // Rate gradients above are for unweighted bits; apply lambda now.
  MulScalarInPlace(&g_y_rate, static_cast<float>(lambda));
  MulScalarInPlace(&g_mu, static_cast<float>(lambda));
  MulScalarInPlace(&g_sigma, static_cast<float>(lambda));
  MulScalarInPlace(&g_z_rate, static_cast<float>(lambda));
  // The prior's parameter gradients were accumulated unweighted; rescale the
  // contribution by adjusting directly (prior params receive only rate grads).
  for (nn::Param* p : prior_.Params()) {
    MulScalarInPlace(&p->grad, static_cast<float>(lambda));
  }

  info.loss = info.mse + lambda * (info.bits_y + info.bits_z);

  // ---------- backward ----------
  // dMSE/dx_hat = 2 (x_hat - x) / numel.
  Tensor g_xhat = Sub(x_hat, x);
  MulScalarInPlace(&g_xhat, 2.0f / static_cast<float>(x.numel()));
  Tensor g_y_from_dec = decoder_.Backward(g_xhat);

  // Through sigma's softplus into the hyper-decoder output layout.
  Tensor g_params = Tensor::Empty(params.shape());
  for (std::int64_t b = 0; b < batch; ++b) {
    float* dst = g_params.data() + b * 2 * lat * hw;
    std::copy_n(g_mu.data() + b * lat * hw, lat * hw, dst);
    const float* graw = sigma_raw.data() + b * lat * hw;
    const float* gsig = g_sigma.data() + b * lat * hw;
    float* draw = dst + lat * hw;
    for (std::int64_t i = 0; i < lat * hw; ++i) {
      draw[i] = gsig[i] * SoftplusGrad(graw[i]);
    }
  }
  Tensor g_z = hyper_decoder_.Backward(g_params);
  Axpy(1.0f, g_z_rate, &g_z);  // prior rate grad w.r.t. z~ (identity noise)
  Tensor g_y_from_hyper = hyper_encoder_.Backward(g_z);

  // Combine all gradients flowing into y: decoder path and rate path pass
  // through the additive noise with identity Jacobian; hyper path is direct.
  Tensor g_y = g_y_from_dec;
  Axpy(1.0f, g_y_rate, &g_y);
  Axpy(1.0f, g_y_from_hyper, &g_y);
  encoder_.Backward(g_y);

  return info;
}

Tensor VaeHyperprior::EncodeLatent(const Tensor& x) {
  return encoder_.Forward(x, /*training=*/false);
}

Tensor VaeHyperprior::DecodeLatent(const Tensor& y_hat) {
  return decoder_.Forward(y_hat, /*training=*/false);
}

Tensor VaeHyperprior::DecodeLatentBatched(const Tensor& y_hat,
                                          tensor::Workspace* ws) {
  return decoder_.Forward(y_hat, ws);
}

void VaeHyperprior::HyperForwardInference(const Tensor& y, Tensor* z_hat,
                                          Tensor* mu, Tensor* sigma) {
  // The hyper path downsamples 4x and the hyper-decoder upsamples 4x; they
  // only invert each other when the latent grid is a multiple of 4 (i.e. the
  // input frame edge is a multiple of 16).
  GLSC_CHECK_MSG(y.dim(2) % 4 == 0 && y.dim(3) % 4 == 0,
                 "latent grid " << y.dim(2) << "x" << y.dim(3)
                                << " must be divisible by 4 (frame edge by 16)");
  Tensor z = hyper_encoder_.Forward(y, /*training=*/false);
  *z_hat = Round(z);
  Tensor params = hyper_decoder_.Forward(*z_hat, /*training=*/false);
  const std::int64_t lat = config_.latent_channels;
  const std::int64_t batch = params.dim(0);
  *mu = Tensor::Empty({batch, lat, params.dim(2), params.dim(3)});
  Tensor sigma_raw = Tensor::Empty(mu->shape());
  SplitHyperParams(params, lat, mu, &sigma_raw);
  *sigma = Map(sigma_raw, [](float v) { return Softplus(v) + kSigmaFloor; });
}

VaeBitstream VaeHyperprior::Compress(const Tensor& x) {
  return CompressLatents(EncodeLatent(x));
}

VaeBitstream VaeHyperprior::CompressLatents(const Tensor& y_continuous) {
  VaeBitstream out;
  Tensor z_hat, mu, sigma;
  HyperForwardInference(y_continuous, &z_hat, &mu, &sigma);
  const Tensor y_hat = Round(y_continuous);
  out.y_shape = y_hat.shape();
  out.z_shape = z_hat.shape();
  out.y_stream = gaussian_codec_.Encode(y_hat, mu, sigma);
  out.z_stream = prior_.Encode(z_hat);
  return out;
}

Tensor VaeHyperprior::DecompressLatents(const VaeBitstream& bits) {
  const Tensor z_hat = prior_.Decode(bits.z_stream, bits.z_shape);
  Tensor params = hyper_decoder_.Forward(z_hat, /*training=*/false);
  const std::int64_t lat = config_.latent_channels;
  const std::int64_t batch = params.dim(0);
  Tensor mu = Tensor::Empty({batch, lat, params.dim(2), params.dim(3)});
  Tensor sigma_raw = Tensor::Empty(mu.shape());
  SplitHyperParams(params, lat, &mu, &sigma_raw);
  Tensor sigma =
      Map(sigma_raw, [](float v) { return Softplus(v) + kSigmaFloor; });
  GLSC_CHECK(mu.shape() == bits.y_shape);
  return gaussian_codec_.Decode(bits.y_stream, mu, sigma);
}

Tensor VaeHyperprior::DecompressLatents(const VaeBitstream& bits,
                                        tensor::Workspace* ws) {
  if (ws == nullptr) return DecompressLatents(bits);
  // The (mu, sigma) tensors and all hyper-decoder activations rewind when
  // this scope closes; only the entropy-decoded latents (owned) survive.
  tensor::Workspace::Scope scope(ws);
  const Tensor z_hat = prior_.Decode(bits.z_stream, bits.z_shape);
  Tensor params = hyper_decoder_.Forward(z_hat, ws);
  const std::int64_t lat = config_.latent_channels;
  const std::int64_t batch = params.dim(0);
  Tensor mu = ws->NewTensor({batch, lat, params.dim(2), params.dim(3)});
  Tensor sigma = ws->NewTensor(mu.shape());
  SplitHyperParams(params, lat, &mu, &sigma);  // sigma holds raw values...
  float* psig = sigma.data();
  for (std::int64_t i = 0; i < sigma.numel(); ++i) {
    psig[i] = Softplus(psig[i]) + kSigmaFloor;  // ...activated in place
  }
  GLSC_CHECK(mu.shape() == bits.y_shape);
  return gaussian_codec_.Decode(bits.y_stream, mu, sigma);
}

double VaeHyperprior::EstimateLatentBits(const Tensor& y_hat) {
  Tensor z_hat, mu, sigma;
  HyperForwardInference(y_hat, &z_hat, &mu, &sigma);
  return gaussian_codec_.TheoreticalBits(y_hat, mu, sigma) +
         prior_.RateBits(z_hat);
}

std::vector<nn::Param*> VaeHyperprior::Params() {
  std::vector<nn::Param*> params;
  for (auto* module : {&encoder_, &decoder_, &hyper_encoder_, &hyper_decoder_}) {
    for (nn::Param* p : module->Params()) params.push_back(p);
  }
  for (nn::Param* p : prior_.Params()) params.push_back(p);
  return params;
}

void VaeHyperprior::Save(ByteWriter* out) { nn::SaveParams(Params(), out); }
void VaeHyperprior::Load(ByteReader* in) { nn::LoadParams(Params(), in); }

}  // namespace glsc::compress
