#include "diffusion/noise_schedule.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace glsc::diffusion {

NoiseSchedule::NoiseSchedule(std::int64_t steps) {
  GLSC_CHECK(steps >= 1);
  betas_.resize(static_cast<std::size_t>(steps));
  // Scaled-linear schedule: endpoints chosen as in DDPM (1e-4 .. 2e-2 at
  // T=1000), rescaled with T so shorter schedules reach comparable
  // terminal noise levels.
  const double scale = 1000.0 / static_cast<double>(steps);
  const double beta_start = 1e-4 * scale;
  const double beta_end = std::min(2e-2 * scale, 0.999);
  for (std::int64_t t = 0; t < steps; ++t) {
    const double frac =
        steps > 1 ? static_cast<double>(t) / (steps - 1) : 0.0;
    betas_[t] = beta_start + frac * (beta_end - beta_start);
  }
  alpha_bars_.resize(betas_.size());
  double prod = 1.0;
  for (std::size_t t = 0; t < betas_.size(); ++t) {
    prod *= 1.0 - betas_[t];
    alpha_bars_[t] = prod;
  }
}

std::vector<std::int64_t> NoiseSchedule::Respace(std::int64_t count) const {
  const std::int64_t t_max = steps();
  GLSC_CHECK(count >= 1 && count <= t_max);
  std::vector<std::int64_t> timesteps;
  timesteps.reserve(static_cast<std::size_t>(count));
  // Evenly spaced in [0, T-1], ending exactly at T-1 so sampling starts from
  // the fully-noised distribution.
  for (std::int64_t i = 0; i < count; ++i) {
    const auto t = static_cast<std::int64_t>(std::llround(
        static_cast<double>(i) * (t_max - 1) / std::max<std::int64_t>(count - 1, 1)));
    timesteps.push_back(t);
  }
  timesteps.back() = t_max - 1;
  // Deduplicate (possible when count ~ T).
  timesteps.erase(std::unique(timesteps.begin(), timesteps.end()),
                  timesteps.end());
  return timesteps;
}

}  // namespace glsc::diffusion
