#include "baselines/vae_sr.h"

#include "nn/optimizer.h"
#include "tensor/ops.h"
#include "util/logging.h"

namespace glsc::baselines {

VAESRCompressor::VAESRCompressor(const VaeSrConfig& config)
    : config_(config), vae_(config.vae) {
  Rng rng(config.seed);
  const std::int64_t c = config.sr_channels;
  sr_net_.Emplace<nn::Conv2d>(1, c, 3, 1, 1, rng, "sr.conv1");
  sr_net_.Emplace<nn::SiLU>();
  sr_net_.Emplace<nn::Conv2d>(c, c, 3, 1, 1, rng, "sr.conv2");
  sr_net_.Emplace<nn::SiLU>();
  sr_net_.Emplace<nn::NearestUpsample2x>();
  sr_net_.Emplace<nn::Conv2d>(c, 1, 3, 1, 1, rng, "sr.conv3");
}

Tensor VAESRCompressor::Downsample2x(const Tensor& frames_n1hw) {
  nn::AvgPool2x pool;
  return pool.Forward(frames_n1hw);
}

Tensor VAESRCompressor::SrForward(const Tensor& lr) {
  const Tensor residual = sr_net_.Forward(lr);
  const Tensor skip = sr_skip_.Forward(lr);
  return Add(skip, residual);
}

Tensor VAESRCompressor::SrBackward(const Tensor& grad_out) {
  Tensor g = sr_net_.Backward(grad_out);
  Axpy(1.0f, sr_skip_.Backward(grad_out), &g);
  return g;
}

std::vector<nn::Param*> VAESRCompressor::SrParams() { return sr_net_.Params(); }

void VAESRCompressor::Train(const data::SequenceDataset& dataset,
                            const compress::VaeTrainConfig& vae_cfg,
                            std::int64_t sr_iters, std::int64_t crop) {
  // Stage 1: the VAE is trained on DOWNSAMPLED patches. Build a low-res proxy
  // dataset by pooling the raw field once.
  Tensor raw = dataset.raw();
  const Tensor pooled4d =
      Downsample2x(raw.Reshape({raw.dim(0) * raw.dim(1), 1, raw.dim(2),
                                raw.dim(3)}))
          .Reshape({raw.dim(0), raw.dim(1), raw.dim(2) / 2, raw.dim(3) / 2});
  data::SequenceDataset lr_dataset(pooled4d);
  compress::VaeTrainConfig lr_cfg = vae_cfg;
  lr_cfg.crop = std::max<std::int64_t>(crop / 2, 8);
  compress::TrainVae(&vae_, lr_dataset, lr_cfg);

  // Stage 2: SR on (decoded low-res, original high-res) pairs.
  Rng rng(config_.seed + 3);
  nn::Adam opt(SrParams(), 1e-3f);
  double window_loss = 0.0;
  std::int64_t window_count = 0;
  for (std::int64_t iter = 1; iter <= sr_iters; ++iter) {
    Tensor hr_frame = dataset.SampleTrainingPatch(crop, rng);
    const Tensor hr =
        hr_frame.Reshape({1, 1, hr_frame.dim(1), hr_frame.dim(2)});
    const Tensor lr = Downsample2x(hr);
    const Tensor lr_decoded =
        vae_.DecodeLatent(Round(vae_.EncodeLatent(lr)));

    const Tensor sr = SrForward(lr_decoded);
    const double loss = MeanSquaredError(hr, sr);

    Tensor g = Sub(sr, hr);
    MulScalarInPlace(&g, 2.0f / static_cast<float>(g.numel()));
    opt.ZeroGrad();
    SrBackward(g);
    opt.ClipGradNorm(5.0);
    opt.Step();

    window_loss += loss;
    if (++window_count == 200 || iter == sr_iters) {
      LOG_INFO << "vae-sr iter " << iter << "/" << sr_iters
               << " mse=" << window_loss / window_count;
      window_loss = 0.0;
      window_count = 0;
    }
  }
}

VAESRCompressor::Compressed VAESRCompressor::Compress(const Tensor& window) {
  GLSC_CHECK(window.rank() == 3);
  GLSC_CHECK(window.dim(1) % 2 == 0 && window.dim(2) % 2 == 0);
  Compressed out;
  out.window_shape = window.shape();
  const Tensor lr = Downsample2x(
      window.Reshape({window.dim(0), 1, window.dim(1), window.dim(2)}));
  out.frames = vae_.Compress(lr);
  return out;
}

Tensor VAESRCompressor::Decompress(const Compressed& compressed) {
  const Tensor y = vae_.DecompressLatents(compressed.frames);
  const Tensor lr = vae_.DecodeLatent(y);
  return SrForward(lr).Reshape(compressed.window_shape);
}

void VAESRCompressor::Save(ByteWriter* out) {
  vae_.Save(out);
  nn::SaveParams(SrParams(), out);
}

void VAESRCompressor::Load(ByteReader* in) {
  vae_.Load(in);
  nn::LoadParams(SrParams(), in);
}

}  // namespace glsc::baselines
