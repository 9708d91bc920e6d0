#include "diffusion/sampler.h"

#include <algorithm>
#include <cmath>

#include "tensor/ops.h"
#include "util/check.h"

namespace glsc::diffusion {
namespace {

// The allocating reference path: every step allocates its temporaries and
// runs the training-mode UNet forward. Kept so the batched inference path
// below can be byte-identity-tested against an independent implementation
// (tests/workspace_test.cc, tests/batched_decode_test.cc).
Tensor SampleAllocating(SpaceTimeUNet* model, const NoiseSchedule& schedule,
                        std::int64_t steps, const Tensor& keyframes,
                        const std::vector<std::int64_t>& key_idx,
                        const std::vector<std::int64_t>& gen_idx,
                        Rng& rng) {
  Shape gen_shape = keyframes.shape();
  gen_shape[0] = static_cast<std::int64_t>(gen_idx.size());

  // Respaced timestep ladder, descending.
  std::vector<std::int64_t> ladder = schedule.Respace(steps);
  std::reverse(ladder.begin(), ladder.end());

  // x_T ~ N(0, I) on the G-frames only.
  Tensor x = Tensor::Randn(gen_shape, rng);

  for (std::size_t step = 0; step < ladder.size(); ++step) {
    const std::int64_t t = ladder[step];
    const bool last = step + 1 == ladder.size();
    const std::int64_t t_prev = last ? -1 : ladder[step + 1];

    // Compose the full window and predict noise for the G-frames.
    const Tensor window = Compose(x, keyframes, gen_idx, key_idx);
    const Tensor eps_full = model->Forward(window, t);
    const Tensor eps = GatherFrames(eps_full, gen_idx);

    const double ab_t = schedule.alpha_bar(t);
    const double ab_prev = last ? 1.0 : schedule.alpha_bar(t_prev);

    // Predicted clean sample: x0 = (x - sqrt(1-ab) eps) / sqrt(ab).
    const float inv_sqrt_ab = static_cast<float>(1.0 / std::sqrt(ab_t));
    const float noise_coeff = static_cast<float>(std::sqrt(1.0 - ab_t));
    Tensor x0 = Tensor::Empty(gen_shape);
    {
      const float* px = x.data();
      const float* pe = eps.data();
      float* p0 = x0.data();
      for (std::int64_t i = 0; i < x0.numel(); ++i) {
        p0[i] = (px[i] - noise_coeff * pe[i]) * inv_sqrt_ab;
      }
    }
    // Keep the trajectory in the normalized latent range; latents live in
    // [-1,1] and clamping prevents early-step blowups at tiny step counts.
    ClampInPlace(&x0, -1.5f, 1.5f);

    if (last) {
      x = x0;
      break;
    }

    // DDIM update: x_prev = sqrt(ab_prev) x0 + sqrt(1-ab_prev) eps.
    const float c0 = static_cast<float>(std::sqrt(ab_prev));
    const float c1 = static_cast<float>(std::sqrt(1.0 - ab_prev));
    {
      const float* p0 = x0.data();
      const float* pe = eps.data();
      float* px = x.data();
      for (std::int64_t i = 0; i < x.numel(); ++i) {
        px[i] = c0 * p0[i] + c1 * pe[i];
      }
    }
  }
  return x;
}

}  // namespace

Tensor SampleConditionalBatch(SpaceTimeUNet* model,
                              const NoiseSchedule& schedule,
                              std::int64_t steps,
                              const Tensor& keyframes,
                              const std::vector<std::int64_t>& key_idx,
                              std::int64_t frames,
                              const std::vector<Rng*>& rngs,
                              tensor::Workspace* ws) {
  GLSC_CHECK(ws != nullptr);
  const std::int64_t batch = static_cast<std::int64_t>(rngs.size());
  GLSC_CHECK(batch >= 1);
  GLSC_CHECK(keyframes.rank() == 4);
  GLSC_CHECK(keyframes.dim(0) ==
             batch * static_cast<std::int64_t>(key_idx.size()));
  const std::vector<std::int64_t> gen_idx = GeneratedIndices(key_idx, frames);
  GLSC_CHECK(!gen_idx.empty());

  Shape gen_shape = keyframes.shape();
  gen_shape[0] = batch * static_cast<std::int64_t>(gen_idx.size());
  const std::int64_t per_window =
      static_cast<std::int64_t>(gen_idx.size()) * keyframes.dim(1) *
      keyframes.dim(2) * keyframes.dim(3);

  std::vector<std::int64_t> ladder = schedule.Respace(steps);
  std::reverse(ladder.begin(), ladder.end());

  // x_T per window, in the draw order of Tensor::Randn on that window alone.
  Tensor x = ws->NewTensor(gen_shape);
  const std::int64_t numel = x.numel();
  for (std::int64_t w = 0; w < batch; ++w) {
    float* p = x.data() + w * per_window;
    for (std::int64_t i = 0; i < per_window; ++i) p[i] = rngs[w]->NormalF();
  }

  for (std::size_t step = 0; step < ladder.size(); ++step) {
    const std::int64_t t = ladder[step];
    const bool last = step + 1 == ladder.size();
    const std::int64_t t_prev = last ? -1 : ladder[step + 1];

    tensor::Workspace::Scope step_scope(ws);
    const Tensor window =
        ComposeBatch(x, keyframes, gen_idx, key_idx, batch, ws);
    const Tensor eps_full = model->Forward(window, t, ws, batch);
    const Tensor eps = GatherFramesBatch(eps_full, gen_idx, batch, ws);

    const double ab_t = schedule.alpha_bar(t);
    const double ab_prev = last ? 1.0 : schedule.alpha_bar(t_prev);

    const float inv_sqrt_ab = static_cast<float>(1.0 / std::sqrt(ab_t));
    const float noise_coeff = static_cast<float>(std::sqrt(1.0 - ab_t));
    Tensor x0 = ws->NewTensor(gen_shape);
    {
      // Elementwise, so running over all windows at once matches the
      // per-window loops bit for bit; so does the update below.
      const float* px = x.data();
      const float* pe = eps.data();
      float* p0 = x0.data();
      for (std::int64_t i = 0; i < numel; ++i) {
        p0[i] = (px[i] - noise_coeff * pe[i]) * inv_sqrt_ab;
      }
    }
    ClampInPlace(&x0, -1.5f, 1.5f);

    if (last) {
      std::copy_n(x0.data(), numel, x.data());
      break;
    }

    const float c0 = static_cast<float>(std::sqrt(ab_prev));
    const float c1 = static_cast<float>(std::sqrt(1.0 - ab_prev));
    {
      const float* p0 = x0.data();
      const float* pe = eps.data();
      float* px = x.data();
      for (std::int64_t i = 0; i < numel; ++i) {
        px[i] = c0 * p0[i] + c1 * pe[i];
      }
    }
  }
  return x;
}

Tensor SampleConditional(SpaceTimeUNet* model, const NoiseSchedule& schedule,
                         std::int64_t steps, const Tensor& keyframes,
                         const std::vector<std::int64_t>& key_idx,
                         std::int64_t frames, Rng& rng) {
  GLSC_CHECK(keyframes.rank() == 4);
  GLSC_CHECK(keyframes.dim(0) == static_cast<std::int64_t>(key_idx.size()));
  const std::vector<std::int64_t> gen_idx = GeneratedIndices(key_idx, frames);
  GLSC_CHECK(!gen_idx.empty());
  return SampleAllocating(model, schedule, steps, keyframes, key_idx, gen_idx,
                          rng);
}

}  // namespace glsc::diffusion
