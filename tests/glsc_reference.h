// The GLSC window decoder written out from the allocating pieces, as an
// independent reference for the batched inference core that every
// GlscCompressor decode runs through (Decompress, DecompressBatch, the
// encoder's reconstruction, Reconstruct):
//
//   DecompressLatents -> LatentNorm -> SampleConditional (training-mode UNet
//   forward every step) -> Round -> Compose -> DecodeLatent(y) -> PCA Apply
//
// None of these share code with the batched path beyond the per-element
// kernels, so byte equality against it is a real check.
#pragma once

#include <algorithm>
#include <cstdint>

#include "core/glsc_compressor.h"
#include "diffusion/conditioner.h"
#include "diffusion/sampler.h"
#include "tensor/ops.h"
#include "util/rng.h"

namespace glsc {

// Decoder-identical reconstruction of `cw`, PCA corrections applied.
inline Tensor ReferenceDecompress(core::GlscCompressor* glsc,
                                  const core::CompressedWindow& cw) {
  const core::GlscConfig& config = glsc->config();
  const Tensor y_keys = glsc->vae().DecompressLatents(cw.keyframes);
  const diffusion::LatentNorm norm = diffusion::LatentNorm::FromTensor(y_keys);
  Rng rng(cw.sample_seed);
  const Tensor gen_normed = diffusion::SampleConditional(
      &glsc->unet(), glsc->schedule(), config.sample_steps,
      norm.Normalize(y_keys),
      glsc->keyframe_indices(), config.window, rng);
  const Tensor full_latents =
      diffusion::Compose(Round(norm.Denormalize(gen_normed)), y_keys,
                         glsc->generated_indices(), glsc->keyframe_indices());
  Tensor recon = glsc->vae().DecodeLatent(full_latents).Reshape(
      {cw.window_shape[0], cw.window_shape[1], cw.window_shape[2]});
  const std::int64_t hw = cw.window_shape[1] * cw.window_shape[2];
  for (std::size_t f = 0; f < cw.corrections.size(); ++f) {
    if (cw.corrections[f].empty()) continue;
    Tensor frame({cw.window_shape[1], cw.window_shape[2]});
    float* plane = recon.data() + static_cast<std::int64_t>(f) * hw;
    std::copy_n(plane, hw, frame.data());
    glsc->pca().Apply(cw.corrections[f], &frame);
    std::copy_n(frame.data(), hw, plane);
  }
  return recon;
}

}  // namespace glsc
