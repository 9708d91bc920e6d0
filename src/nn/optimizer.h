// Adam (Kingma & Ba, 2015) over a flat parameter list: the optimizer every
// trainer in this repository uses.
#pragma once

#include <vector>

#include "nn/layer.h"

namespace glsc::nn {

class Adam {
 public:
  Adam(std::vector<Param*> params, float lr, float beta1 = 0.9f,
       float beta2 = 0.999f, float eps = 1e-8f);
  void Step();

  void ZeroGrad() {
    for (Param* p : params_) p->ZeroGrad();
  }

  // Rescales all gradients so their global L2 norm is at most `max_norm`.
  // Returns the pre-clip norm. Diffusion training uses this to survive the
  // occasional high-noise sample.
  double ClipGradNorm(double max_norm);

  void set_lr(float lr) { lr_ = lr; }
  float lr() const { return lr_; }

 private:
  std::vector<Param*> params_;
  float lr_, beta1_, beta2_, eps_;
  std::int64_t t_ = 0;
  std::vector<Tensor> m_;
  std::vector<Tensor> v_;
};

}  // namespace glsc::nn
