// Keyframe conditioning (§3.3): partition a window of N frames into
// conditioning set C (keyframes, stored) and generated set G (reconstructed
// by the diffusion model), the ⊕ composition operator, the masked loss
// helpers, and the min-max latent normalization the paper applies before
// diffusion.
//
// Normalization detail: the paper normalizes the latent window to [-1, 1].
// At decompression time only the keyframe latents exist, so the bounds are
// computed FROM THE KEYFRAME LATENTS ONLY — both sides of the codec derive
// identical bounds from data they share, and nothing extra is stored.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"
#include "tensor/workspace.h"

namespace glsc::diffusion {

enum class KeyframeStrategy {
  kInterpolation,  // uniformly spread keyframes, e.g. {0,3,6,9,12,15}
  kPrediction,     // leading block, e.g. {0,1,2,3,4,5}
  kMixed,          // leading block plus final frame, e.g. {0,1,2,3,4,15}
};

// Keyframe indices for a window of `frames` frames.
//  - interpolation: every `interval`-th frame starting at 0 (plus last frame
//    if it would otherwise be unanchored); `count` is ignored.
//  - prediction: the first `count` frames.
//  - mixed: the first `count`-1 frames plus the last frame.
std::vector<std::int64_t> SelectKeyframes(KeyframeStrategy strategy,
                                          std::int64_t frames,
                                          std::int64_t interval,
                                          std::int64_t count);

// Complement of `keyframes` in [0, frames).
std::vector<std::int64_t> GeneratedIndices(
    const std::vector<std::int64_t>& keyframes, std::int64_t frames);

// The ⊕ operator: out[i] = generated[g++] if i in G else conditioning[c++].
// `generated` holds only G-frames (in index order), `conditioning` only
// C-frames; result is the full window [N, C, H, W].
Tensor Compose(const Tensor& generated, const Tensor& conditioning,
               const std::vector<std::int64_t>& gen_idx,
               const std::vector<std::int64_t>& key_idx);

// Batched ⊕ over `batch` stacked windows: `generated` is [B*G, C, H, W]
// (window 0's G-frames first), `conditioning` is [B*K, C, H, W]; returns
// [B*N, C, H, W] with each window composed independently. Values are
// identical to per-window Compose.
Tensor ComposeBatch(const Tensor& generated, const Tensor& conditioning,
                    const std::vector<std::int64_t>& gen_idx,
                    const std::vector<std::int64_t>& key_idx,
                    std::int64_t batch, tensor::Workspace* ws);

// Gathers the listed frames of a [N, C, H, W] window into a packed tensor.
Tensor GatherFrames(const Tensor& window, const std::vector<std::int64_t>& idx);

// Batched gather over `batch` stacked windows: `window` is [B*N, C, H, W];
// returns [B*|idx|, C, H, W], window-major.
Tensor GatherFramesBatch(const Tensor& window,
                         const std::vector<std::int64_t>& idx,
                         std::int64_t batch, tensor::Workspace* ws);

// Writes packed frames back into `window` at the listed positions.
void ScatterFrames(const Tensor& packed, const std::vector<std::int64_t>& idx,
                   Tensor* window);

// Min-max normalization to [-1, 1] with bounds from the given tensor.
struct LatentNorm {
  float lo = -1.0f;
  float hi = 1.0f;

  static LatentNorm FromTensor(const Tensor& t);
  Tensor Normalize(const Tensor& t) const;
  Tensor Denormalize(const Tensor& t) const;
  // The same maps over raw buffers, for callers writing into arena slabs.
  void Normalize(const float* src, std::int64_t n, float* dst) const;
  void Denormalize(const float* src, std::int64_t n, float* dst) const;
};

}  // namespace glsc::diffusion
