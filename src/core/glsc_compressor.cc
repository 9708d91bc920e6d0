#include "core/glsc_compressor.h"

#include "tensor/ops.h"
#include "util/logging.h"

namespace glsc::core {

std::size_t CompressedWindow::LatentBytes() const {
  return keyframes.TotalBytes();
}

std::size_t CompressedWindow::CorrectionBytes() const {
  std::size_t n = 0;
  for (const auto& c : corrections) n += c.size();
  return n;
}

std::size_t CompressedWindow::HeaderBytes() const {
  const std::size_t frames =
      window_shape.empty() ? 0 : static_cast<std::size_t>(window_shape[0]);
  // seed (4) + window dims (3 x 4) + per-frame (mean, range) float32 pair.
  return 4 + 12 + frames * 2 * sizeof(float);
}

GlscCompressor::GlscCompressor(const GlscConfig& config)
    : config_(config),
      vae_(config.vae),
      schedule_(config.schedule_kind, config.schedule_steps),
      unet_(config.unet),
      pca_(config.pca) {
  GLSC_CHECK_MSG(config_.unet.EffectiveIn() == config_.vae.latent_channels,
                 "UNet latent width must match the VAE latent width");
  key_idx_ = diffusion::SelectKeyframes(config_.strategy, config_.window,
                                        config_.interval, config_.key_count);
  gen_idx_ = diffusion::GeneratedIndices(key_idx_, config_.window);
}

std::vector<Tensor> GlscCompressor::DecodeWindowsFromLatents(
    const std::vector<Tensor>& y_keys,
    const std::vector<std::uint32_t>& sample_seeds, std::int64_t sample_steps,
    const Shape& window_shape, tensor::Workspace* ws) {
  const std::int64_t batch = static_cast<std::int64_t>(y_keys.size());
  GLSC_CHECK(batch >= 1 && sample_seeds.size() == y_keys.size());
  if (sample_steps <= 0) sample_steps = config_.sample_steps;
  tensor::Workspace local_ws;
  if (ws == nullptr) ws = &local_ws;
  // Every intermediate below borrows from `ws` and rewinds when this scope
  // closes; only the owned reconstructions escape.
  tensor::Workspace::Scope scope(ws);

  // Stack raw and normalized keyframe latents: [B*K, C, h, w]. Each window
  // is normalized by min-max bounds derived from its own keyframe latents,
  // which the encoder derives identically (§3.3 normalization; see
  // conditioner.h for why this stores nothing).
  const std::int64_t key_elems = y_keys[0].numel();
  Shape stacked_shape = y_keys[0].shape();
  stacked_shape[0] *= batch;
  Tensor keys_stacked = ws->NewTensor(stacked_shape);
  Tensor keys_normed = ws->NewTensor(stacked_shape);
  std::vector<diffusion::LatentNorm> norms;
  norms.reserve(static_cast<std::size_t>(batch));
  for (std::int64_t w = 0; w < batch; ++w) {
    const Tensor& yk = y_keys[static_cast<std::size_t>(w)];
    GLSC_CHECK(yk.numel() == key_elems);
    norms.push_back(diffusion::LatentNorm::FromTensor(yk));
    std::copy_n(yk.data(), key_elems, keys_stacked.data() + w * key_elems);
    norms.back().Normalize(yk.data(), key_elems,
                           keys_normed.data() + w * key_elems);
  }

  // One sampling generator per window, seeded from its stored header.
  std::vector<Rng> rng_storage(sample_seeds.begin(), sample_seeds.end());
  std::vector<Rng*> rngs;
  rngs.reserve(rng_storage.size());
  for (Rng& r : rng_storage) rngs.push_back(&r);

  diffusion::SamplerConfig sampler_cfg;
  sampler_cfg.steps = sample_steps;
  const Tensor gen_normed = diffusion::SampleConditionalBatch(
      &unet_, schedule_, sampler_cfg, keys_normed, key_idx_, config_.window,
      rngs, ws);  // [B*G, C, h, w]

  // Per-window denormalization (each window has its own bounds), then the
  // shared rounding: generated latents return to integer latent space, since
  // the VAE decoder was trained on quantized latents.
  Tensor gen_latents = ws->NewTensor(gen_normed.shape());
  const std::int64_t gen_elems = gen_normed.numel() / batch;
  for (std::int64_t w = 0; w < batch; ++w) {
    norms[static_cast<std::size_t>(w)].Denormalize(
        gen_normed.data() + w * gen_elems, gen_elems,
        gen_latents.data() + w * gen_elems);
  }
  RoundInPlace(&gen_latents);

  const Tensor full_latents = diffusion::ComposeBatch(
      gen_latents, keys_stacked, gen_idx_, key_idx_, batch, ws);
  const Tensor decoded =
      vae_.DecodeLatentBatched(full_latents, ws);  // [B*N, 1, H, W]

  // Lift each window out of the arena before the scope rewinds.
  const std::int64_t frames = window_shape[0];
  std::vector<Tensor> out;
  out.reserve(static_cast<std::size_t>(batch));
  for (std::int64_t w = 0; w < batch; ++w) {
    out.push_back(decoded.Slice0(w * frames, (w + 1) * frames)
                      .Reshape({window_shape[0], window_shape[1],
                                window_shape[2]})
                      .Clone());
  }
  return out;
}

CompressedWindow GlscCompressor::Compress(const Tensor& window, double tau,
                                          std::int64_t sample_steps,
                                          Tensor* recon_out,
                                          tensor::Workspace* ws) {
  GLSC_CHECK(window.rank() == 3);
  GLSC_CHECK_MSG(window.dim(0) == config_.window,
                 "window has " << window.dim(0) << " frames, config expects "
                               << config_.window);
  CompressedWindow out;
  out.window_shape = window.shape();
  // Deterministic per-content seed: decompression must reproduce the exact
  // same sampling trajectory that the corrections were computed against.
  out.sample_seed = static_cast<std::uint32_t>(
      0x9E3779B9u * static_cast<std::uint32_t>(window.numel()) ^ 0xA5A5A5A5u);

  // 1. Keyframes through the VAE + hyperprior (the stored latents).
  const Tensor keys = diffusion::GatherFrames(window, key_idx_);
  const Tensor keys_batch =
      keys.Reshape({keys.dim(0), 1, keys.dim(1), keys.dim(2)});
  out.keyframes = vae_.Compress(keys_batch);

  // 2. Decoder-identical reconstruction: a decode batch of one.
  Tensor recon = DecodeWindowsFromLatents(
      {vae_.DecompressLatents(out.keyframes, ws)}, {out.sample_seed},
      sample_steps, out.window_shape, ws)[0];

  // 3. Error-bound corrections per frame.
  if (tau > 0.0) {
    GLSC_CHECK_MSG(pca_.fitted(), "PCA basis not fitted; call Fit first");
    out.corrections.resize(static_cast<std::size_t>(window.dim(0)));
    const std::int64_t hw = window.dim(1) * window.dim(2);
    for (std::int64_t f = 0; f < window.dim(0); ++f) {
      Tensor orig({window.dim(1), window.dim(2)});
      Tensor rec({window.dim(1), window.dim(2)});
      std::copy_n(window.data() + f * hw, hw, orig.data());
      std::copy_n(recon.data() + f * hw, hw, rec.data());
      const auto correction = pca_.Correct(orig, &rec, tau);
      out.corrections[static_cast<std::size_t>(f)] = correction.payload;
      std::copy_n(rec.data(), hw, recon.data() + f * hw);
    }
  }
  if (recon_out != nullptr) *recon_out = recon;
  return out;
}

Tensor GlscCompressor::Decompress(const CompressedWindow& compressed,
                                  std::int64_t sample_steps,
                                  tensor::Workspace* ws) {
  return DecompressBatch({&compressed}, sample_steps, ws)[0];
}

std::vector<Tensor> GlscCompressor::DecompressBatch(
    const std::vector<const CompressedWindow*>& windows,
    std::int64_t sample_steps, tensor::Workspace* ws) {
  if (windows.empty()) return {};
  // One UNet pass covers every window, so the batch must agree on geometry.
  const Shape& wshape = windows[0]->window_shape;
  // Entropy + hyper decode stays per window (owned latents).
  std::vector<Tensor> y_keys;
  std::vector<std::uint32_t> seeds;
  y_keys.reserve(windows.size());
  seeds.reserve(windows.size());
  for (const CompressedWindow* cw : windows) {
    GLSC_CHECK(cw != nullptr);
    GLSC_CHECK_MSG(cw->window_shape == wshape,
                   "batched decode needs uniform window geometry");
    y_keys.push_back(vae_.DecompressLatents(cw->keyframes, ws));
    seeds.push_back(cw->sample_seed);
  }
  std::vector<Tensor> out =
      DecodeWindowsFromLatents(y_keys, seeds, sample_steps, wshape, ws);

  // PCA corrections stay per window and per frame.
  const std::int64_t hw = wshape[1] * wshape[2];
  for (std::size_t w = 0; w < windows.size(); ++w) {
    const CompressedWindow& cw = *windows[w];
    if (cw.corrections.empty()) continue;
    for (std::int64_t f = 0; f < wshape[0]; ++f) {
      const auto& payload = cw.corrections[static_cast<std::size_t>(f)];
      if (payload.empty()) continue;
      Tensor frame({wshape[1], wshape[2]});
      std::copy_n(out[w].data() + f * hw, hw, frame.data());
      pca_.Apply(payload, &frame);
      std::copy_n(frame.data(), hw, out[w].data() + f * hw);
    }
  }
  return out;
}

Tensor GlscCompressor::Reconstruct(const Tensor& window, std::uint32_t seed,
                                   std::int64_t sample_steps) {
  const Tensor keys = diffusion::GatherFrames(window, key_idx_);
  const Tensor keys_batch =
      keys.Reshape({keys.dim(0), 1, keys.dim(1), keys.dim(2)});
  return DecodeWindowsFromLatents({Round(vae_.EncodeLatent(keys_batch))},
                                  {seed}, sample_steps, window.shape(),
                                  /*ws=*/nullptr)[0];
}

void GlscCompressor::Save(ByteWriter* out) {
  vae_.Save(out);
  unet_.Save(out);
  out->PutU8(pca_.fitted() ? 1 : 0);
  if (pca_.fitted()) pca_.Save(out);
}

void GlscCompressor::Load(ByteReader* in) {
  vae_.Load(in);
  unet_.Load(in);
  if (in->GetU8() != 0) pca_.Load(in);
}

}  // namespace glsc::core
