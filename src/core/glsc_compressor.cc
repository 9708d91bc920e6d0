#include "core/glsc_compressor.h"

#include <algorithm>
#include <functional>

#include "tensor/ops.h"
#include "util/logging.h"
#include "util/thread_pool.h"

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
      schedule_(config.schedule_steps),
      unet_(config.unet),
      pca_(config.pca) {
  GLSC_CHECK_MSG(config_.unet.EffectiveIn() == config_.vae.latent_channels,
                 "UNet latent width must match the VAE latent width");
  key_idx_ = diffusion::SelectKeyframes(config_.strategy, config_.window,
                                        config_.interval, config_.key_count);
  gen_idx_ = diffusion::GeneratedIndices(key_idx_, config_.window);
}

namespace {

// Rows [begin, end) of t along dim 0, as a view; the range is non-empty.
Tensor Rows(Tensor& t, std::int64_t begin, std::int64_t end) {
  GLSC_CHECK(t.rank() >= 1);
  GLSC_CHECK(begin >= 0 && begin < end && end <= t.dim(0));
  Shape shape = t.shape();
  const std::int64_t row = t.numel() / shape[0];
  shape[0] = end - begin;
  return Tensor::Borrowed(t.data() + begin * row, std::move(shape));
}

// Splits [0, items) into pieces of ceil(items / slots) items, one slot per
// global pool worker plus the calling thread, and runs fn(begin, end, arena)
// for each piece over the pool. Piece i always runs in child arena i of
// `ws`, whichever thread claims it; the children are created here, on the
// caller, and each piece's allocations rewind when it ends. Nothing touches
// `ws` itself until every piece is done. Called from a pool worker, the
// pieces run inline one after another (ThreadPool::ParallelFor re-entry).
void FanOut(tensor::Workspace* ws, std::int64_t items,
            const std::function<void(std::int64_t, std::int64_t,
                                     tensor::Workspace*)>& fn) {
  if (items <= 0) return;
  ThreadPool& pool = GlobalThreadPool();
  const std::int64_t slots = static_cast<std::int64_t>(pool.size()) + 1;
  const std::int64_t per_piece = (items + slots - 1) / slots;
  const std::int64_t pieces = (items + per_piece - 1) / per_piece;
  std::vector<tensor::Workspace*> arenas;
  arenas.reserve(static_cast<std::size_t>(pieces));
  for (std::int64_t i = 0; i < pieces; ++i) {
    arenas.push_back(ws->Child(static_cast<std::size_t>(i)));
  }
  const std::int64_t borrows = ws->stats().borrows;
  const std::int64_t in_use = ws->bytes_in_use();
  pool.ParallelFor(static_cast<std::size_t>(pieces), [&](std::size_t i) {
    const std::int64_t begin = static_cast<std::int64_t>(i) * per_piece;
    tensor::Workspace::Scope scope(arenas[i]);
    fn(begin, std::min(items, begin + per_piece), arenas[i]);
  });
  // The pieces allocated from and rewound only their own arenas.
  GLSC_CHECK(ws->stats().borrows == borrows && ws->bytes_in_use() == in_use);
}

}  // namespace

std::vector<Tensor> GlscCompressor::DecodeWindowsFromLatents(
    const std::vector<Tensor>& y_keys,
    const std::vector<std::uint32_t>& sample_seeds, std::int64_t sample_steps,
    const Shape& window_shape, tensor::Workspace* ws) {
  const std::int64_t batch = static_cast<std::int64_t>(y_keys.size());
  GLSC_CHECK(batch >= 1 && sample_seeds.size() == y_keys.size());
  // The keyframe latents and the window shape come from the record, so check
  // them against the model before anything is sized from them: a window has
  // config().window frames, [K, C, h, w] keyframe latents, and the
  // decoder's kDownsample-times larger frames.
  const std::int64_t keys_per_window =
      static_cast<std::int64_t>(key_idx_.size());
  const Tensor& y0 = y_keys[0];
  GLSC_CHECK_MSG(y0.rank() == 4 && y0.dim(0) == keys_per_window,
                 "keyframe latents " << ShapeToString(y0.shape())
                                     << " for " << keys_per_window
                                     << " keyframes");
  constexpr std::int64_t kUp = compress::VaeHyperprior::kDownsample;
  GLSC_CHECK_MSG(window_shape.size() == 3 &&
                     window_shape[0] == config_.window &&
                     window_shape[1] == y0.dim(2) * kUp &&
                     window_shape[2] == y0.dim(3) * kUp,
                 "window shape " << ShapeToString(window_shape)
                                 << " does not match a " << config_.window
                                 << "-frame window of "
                                 << ShapeToString(y0.shape()) << " latents");
  if (sample_steps <= 0) sample_steps = config_.sample_steps;
  tensor::Workspace local_ws;
  if (ws == nullptr) ws = &local_ws;
  // Every intermediate below borrows from `ws` (or, inside a fan-out, from
  // a piece's child arena) and rewinds when this scope closes; only the
  // owned reconstructions escape.
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

  // The sampler over pieces of whole windows. Each window's trajectory is
  // independent of its batch-mates, so pieces give the bytes one batched
  // run would.
  Shape gen_shape = stacked_shape;
  gen_shape[0] = batch * static_cast<std::int64_t>(gen_idx_.size());
  Tensor gen_normed = ws->NewTensor(gen_shape);  // [B*G, C, h, w]
  const std::int64_t gen_elems = gen_normed.numel() / batch;
  FanOut(ws, batch, [&](std::int64_t begin, std::int64_t end,
                        tensor::Workspace* arena) {
    const std::vector<Rng*> piece_rngs(rngs.begin() + begin,
                                       rngs.begin() + end);
    const Tensor piece = diffusion::SampleConditionalBatch(
        &unet_, schedule_, sample_steps,
        Rows(keys_normed, begin * keys_per_window, end * keys_per_window),
        key_idx_, config_.window, piece_rngs, arena);
    std::copy_n(piece.data(), piece.numel(),
                gen_normed.data() + begin * gen_elems);
  });

  // Per-window denormalization (each window has its own bounds), then the
  // shared rounding: generated latents return to integer latent space, since
  // the VAE decoder was trained on quantized latents.
  Tensor gen_latents = ws->NewTensor(gen_normed.shape());
  for (std::int64_t w = 0; w < batch; ++w) {
    norms[static_cast<std::size_t>(w)].Denormalize(
        gen_normed.data() + w * gen_elems, gen_elems,
        gen_latents.data() + w * gen_elems);
  }
  RoundInPlace(&gen_latents);
  Tensor full_latents = diffusion::ComposeBatch(
      gen_latents, keys_stacked, gen_idx_, key_idx_, batch, ws);

  // The VAE decode over pieces of frames, written straight into each
  // window's owned reconstruction. The decoder is per frame, so chunking
  // does not change its output.
  const std::int64_t frames = window_shape[0];
  const std::int64_t hw = window_shape[1] * window_shape[2];
  GLSC_CHECK(full_latents.dim(0) == batch * frames);
  std::vector<Tensor> out;
  out.reserve(static_cast<std::size_t>(batch));
  for (std::int64_t w = 0; w < batch; ++w) {
    out.push_back(Tensor::Empty(window_shape));
  }
  FanOut(ws, batch * frames, [&](std::int64_t begin, std::int64_t end,
                                 tensor::Workspace* arena) {
    const Tensor decoded = vae_.DecodeLatentBatched(
        Rows(full_latents, begin, end), arena);  // [end - begin, 1, H, W]
    GLSC_CHECK(decoded.numel() == (end - begin) * hw);
    for (std::int64_t f = begin; f < end; ++f) {
      std::copy_n(decoded.data() + (f - begin) * hw, hw,
                  out[static_cast<std::size_t>(f / frames)].data() +
                      (f % frames) * hw);
    }
  });
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
  // Deterministic seed, stored in the header: decompression must reproduce
  // the exact sampling trajectory the corrections were computed against. It
  // hashes only the element count, so every window of one geometry shares
  // one initial noise draw.
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
