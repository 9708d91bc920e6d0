// Forward-process noise schedule (Eq. 3-4): DDPM's linear beta_t,
// alpha_t = 1 - beta_t and the cumulative alpha_bar_t, plus "respacing" —
// selecting a stride-uniform subset of timesteps so a model trained at T
// steps can be fine-tuned and sampled at far fewer steps (§4.6 / Figure 5).
#pragma once

#include <cstdint>
#include <vector>

namespace glsc::diffusion {

class NoiseSchedule {
 public:
  explicit NoiseSchedule(std::int64_t steps);

  std::int64_t steps() const { return static_cast<std::int64_t>(betas_.size()); }
  double beta(std::int64_t t) const { return betas_[static_cast<std::size_t>(t)]; }
  double alpha(std::int64_t t) const { return 1.0 - beta(t); }
  double alpha_bar(std::int64_t t) const {
    return alpha_bars_[static_cast<std::size_t>(t)];
  }

  // Uniform-stride subset of `count` timesteps (ascending, always including
  // the final step). Used both for few-step fine-tuning and DDIM sampling.
  std::vector<std::int64_t> Respace(std::int64_t count) const;

 private:
  std::vector<double> betas_;
  std::vector<double> alpha_bars_;
};

}  // namespace glsc::diffusion
