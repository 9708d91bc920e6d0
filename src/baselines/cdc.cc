#include "baselines/cdc.h"

#include <algorithm>
#include <cmath>

#include "nn/optimizer.h"
#include "tensor/ops.h"
#include "tensor/workspace.h"
#include "util/logging.h"

namespace glsc::baselines {
namespace {

diffusion::UNetConfig MakeUnetConfig(const CdcConfig& config) {
  diffusion::UNetConfig unet;
  unet.latent_channels = 1;
  unet.in_channels = 2;  // [noisy | VAE-decoded condition]
  unet.out_channels = 1;
  unet.model_channels = config.model_channels;
  unet.heads = config.heads;
  unet.stage1_attention = false;  // pixel space: attend at coarse scale only
  unet.seed = config.seed + 1;
  return unet;
}

// Stacks per-frame [N,1,H,W] noisy input with condition into [N,2,H,W].
Tensor StackChannels(const Tensor& a, const Tensor& b) {
  GLSC_CHECK(a.shape() == b.shape() && a.rank() == 4 && a.dim(1) == 1);
  const std::int64_t n = a.dim(0), h = a.dim(2), w = a.dim(3);
  Tensor out({n, 2, h, w});
  for (std::int64_t i = 0; i < n; ++i) {
    std::copy_n(a.data() + i * h * w, h * w, out.data() + i * 2 * h * w);
    std::copy_n(b.data() + i * h * w, h * w,
                out.data() + (i * 2 + 1) * h * w);
  }
  return out;
}

}  // namespace

CDCCompressor::CDCCompressor(const CdcConfig& config)
    : config_(config),
      vae_(config.vae),
      schedule_(config.schedule_steps),
      unet_(MakeUnetConfig(config)) {
  GLSC_CHECK_MSG(config.block >= 1, "CDC block of " << config.block
                                                    << " frames");
}

void CDCCompressor::Train(const data::SequenceDataset& dataset,
                          const compress::VaeTrainConfig& vae_cfg,
                          std::int64_t diffusion_iters, std::int64_t crop) {
  compress::TrainVae(&vae_, dataset, vae_cfg);

  Rng rng(config_.seed + 2);
  nn::Adam opt(unet_.Params(), 3e-4f);
  double window_loss = 0.0;
  std::int64_t window_count = 0;
  for (std::int64_t iter = 1; iter <= diffusion_iters; ++iter) {
    const Tensor frames =
        dataset.SampleTrainingWindow(config_.block, crop, rng);
    const Tensor x = frames.Reshape(
        {frames.dim(0), 1, frames.dim(1), frames.dim(2)});
    // Frozen-VAE conditioning signal: decode of the quantized latent.
    const Tensor cond = vae_.DecodeLatent(Round(vae_.EncodeLatent(x)));

    const std::int64_t t = static_cast<std::int64_t>(
        rng.UniformInt(static_cast<std::uint64_t>(schedule_.steps())));
    const double ab = schedule_.alpha_bar(t);
    const float sig = static_cast<float>(std::sqrt(ab));
    const float noi = static_cast<float>(std::sqrt(1.0 - ab));

    Tensor eps = Tensor::Randn(x.shape(), rng);
    Tensor x_t(x.shape());
    for (std::int64_t i = 0; i < x.numel(); ++i) {
      x_t[i] = sig * x[i] + noi * eps[i];
    }

    const Tensor input = StackChannels(x_t, cond);
    const Tensor pred = unet_.Forward(input, t);
    const Tensor& target = config_.target == PredictTarget::kX0 ? x : eps;
    const double loss = MeanSquaredError(target, pred);

    Tensor g = Sub(pred, target);
    MulScalarInPlace(&g, 2.0f / static_cast<float>(g.numel()));
    opt.ZeroGrad();
    unet_.Backward(g);
    opt.ClipGradNorm(1.0);
    opt.Step();

    window_loss += loss;
    if (++window_count == 200 || iter == diffusion_iters) {
      LOG_INFO << "cdc(" << (config_.target == PredictTarget::kX0 ? "X" : "eps")
               << ", block " << config_.block << ") iter " << iter << "/"
               << diffusion_iters
               << " mse=" << window_loss / window_count;
      window_loss = 0.0;
      window_count = 0;
    }
  }
}

CDCCompressor::Compressed CDCCompressor::Compress(const Tensor& window) {
  GLSC_CHECK(window.rank() == 3);
  Compressed out;
  out.window_shape = window.shape();
  const Tensor as_batch =
      window.Reshape({window.dim(0), 1, window.dim(1), window.dim(2)});
  out.frames = vae_.Compress(as_batch);  // every frame's latent is stored
  return out;
}

Tensor CDCCompressor::DecompressVaeOnly(const Compressed& compressed) {
  const Tensor y = vae_.DecompressLatents(compressed.frames);
  return vae_.DecodeLatent(y).Reshape(compressed.window_shape);
}

Tensor CDCCompressor::Decompress(const Compressed& compressed,
                                 std::int64_t steps, Rng& rng) {
  const Tensor y = vae_.DecompressLatents(compressed.frames);
  const Tensor cond_batch = vae_.DecodeLatent(y);  // [N,1,H,W]
  const std::int64_t n = cond_batch.dim(0);
  const std::int64_t h = cond_batch.dim(2);
  const std::int64_t w = cond_batch.dim(3);

  std::vector<std::int64_t> ladder = schedule_.Respace(steps);
  std::reverse(ladder.begin(), ladder.end());

  // The UNet trains on blocks of config_.block frames, so the N frames run
  // as N / block windows of one forward: temporal attention mixes frames
  // only within a block (never, at block 1).
  GLSC_CHECK_MSG(n % config_.block == 0,
                 n << " frames do not split into blocks of " << config_.block);
  tensor::Workspace ws;
  Tensor x = Tensor::Randn({n, 1, h, w}, rng);
  for (std::size_t s = 0; s < ladder.size(); ++s) {
    tensor::Workspace::Scope scope(&ws);  // `pred` borrows the arena
    const std::int64_t t = ladder[s];
    const bool last = s + 1 == ladder.size();
    const double ab = schedule_.alpha_bar(t);
    const double ab_prev = last ? 1.0 : schedule_.alpha_bar(ladder[s + 1]);

    const Tensor input = StackChannels(x, cond_batch);
    const Tensor pred = unet_.Forward(input, t, &ws, n / config_.block);

    // Recover (x0, eps) regardless of parameterization.
    Tensor x0(x.shape()), eps(x.shape());
    const float sqrt_ab = static_cast<float>(std::sqrt(ab));
    const float sqrt_1ab = static_cast<float>(std::sqrt(1.0 - ab));
    if (config_.target == PredictTarget::kX0) {
      x0 = Clamp(pred, -2.0f, 2.0f);
      for (std::int64_t i = 0; i < x.numel(); ++i) {
        eps[i] = (x[i] - sqrt_ab * x0[i]) / sqrt_1ab;
      }
    } else {
      eps = pred;
      for (std::int64_t i = 0; i < x.numel(); ++i) {
        x0[i] = (x[i] - sqrt_1ab * eps[i]) / sqrt_ab;
      }
      x0 = Clamp(x0, -2.0f, 2.0f);
    }
    if (last) {
      x = x0;
      break;
    }
    const float c0 = static_cast<float>(std::sqrt(ab_prev));
    const float c1 = static_cast<float>(std::sqrt(1.0 - ab_prev));
    for (std::int64_t i = 0; i < x.numel(); ++i) {
      x[i] = c0 * x0[i] + c1 * eps[i];  // deterministic DDIM (eta = 0)
    }
  }
  return x.Reshape(compressed.window_shape);
}

void CDCCompressor::Save(ByteWriter* out) {
  vae_.Save(out);
  unet_.Save(out);
}

void CDCCompressor::Load(ByteReader* in) {
  vae_.Load(in);
  unet_.Load(in);
}

}  // namespace glsc::baselines
