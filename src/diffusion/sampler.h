// Conditional reverse-process sampling. Only G-frames carry noise; after each
// denoising step the keyframes are re-composed into the window unchanged
// (they are clean conditioning, exactly as in training). The update is
// deterministic DDIM (Song et al., ICLR 2021, eta = 0) over a uniform
// respacing of the training schedule, for the few-step fine-tuned models of
// §4.6; the initial noise is the only draw.
#pragma once

#include "diffusion/conditioner.h"
#include "diffusion/noise_schedule.h"
#include "diffusion/spacetime_unet.h"
#include "util/rng.h"

namespace glsc::diffusion {

// Generates the G-frame latents of a window given clean keyframe latents,
// in `steps` denoising steps. `keyframes`: packed [K, C, H, W] (normalized
// to [-1,1]); returns packed generated frames [N-K, C, H, W] (normalized
// domain).
//
// The allocating reference: every step allocates its temporaries and runs
// the training-mode UNet forward. Inference goes through
// SampleConditionalBatch, which tests hold byte-identical to this.
Tensor SampleConditional(SpaceTimeUNet* model, const NoiseSchedule& schedule,
                         std::int64_t steps, const Tensor& keyframes,
                         const std::vector<std::int64_t>& key_idx,
                         std::int64_t frames, Rng& rng);

// The inference sampler, over B windows stacked along dim 0 (B == 1 is the
// single-window case). `keyframes` is [B*K, C, H, W] (window 0's keyframes
// first) and `rngs` holds one generator per window, positioned exactly where
// SampleConditional on that window would start drawing. Every denoising
// step runs the UNet once over all B windows; each window's slice of the
// returned [B*G, C, H, W] tensor is byte-identical to SampleConditional for
// that window (each window's initial noise is drawn from its own generator
// in that call's order).
//
// Requires a workspace. The trajectory lives in the arena at the call's
// scope and each step opens a Workspace::Scope around the UNet forward, so
// per-step activations rewind before the next step and a steady-state loop
// grows no slabs. The result BORROWS arena memory — callers must consume or
// Clone() it before their enclosing scope rewinds.
Tensor SampleConditionalBatch(SpaceTimeUNet* model,
                              const NoiseSchedule& schedule,
                              std::int64_t steps,
                              const Tensor& keyframes,
                              const std::vector<std::int64_t>& key_idx,
                              std::int64_t frames,
                              const std::vector<Rng*>& rngs,
                              tensor::Workspace* ws);

}  // namespace glsc::diffusion
