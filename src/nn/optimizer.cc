#include "nn/optimizer.h"

#include <cmath>

namespace glsc::nn {

double Adam::ClipGradNorm(double max_norm) {
  double sumsq = 0.0;
  for (Param* p : params_) {
    const float* g = p->grad.data();
    for (std::int64_t i = 0; i < p->grad.numel(); ++i) {
      sumsq += static_cast<double>(g[i]) * g[i];
    }
  }
  const double norm = std::sqrt(sumsq);
  if (norm > max_norm && norm > 0.0) {
    const float scale = static_cast<float>(max_norm / norm);
    for (Param* p : params_) {
      float* g = p->grad.data();
      for (std::int64_t i = 0; i < p->grad.numel(); ++i) g[i] *= scale;
    }
  }
  return norm;
}

Adam::Adam(std::vector<Param*> params, float lr, float beta1, float beta2,
           float eps)
    : params_(std::move(params)),
      lr_(lr),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (Param* p : params_) {
    m_.emplace_back(p->value.shape());
    v_.emplace_back(p->value.shape());
  }
}

void Adam::Step() {
  ++t_;
  const double bc1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
  const float step = static_cast<float>(lr_ * std::sqrt(bc2) / bc1);
  for (std::size_t k = 0; k < params_.size(); ++k) {
    Param* p = params_[k];
    float* w = p->value.data();
    const float* g = p->grad.data();
    float* m = m_[k].data();
    float* v = v_[k].data();
    const std::int64_t n = p->value.numel();
    for (std::int64_t i = 0; i < n; ++i) {
      m[i] = beta1_ * m[i] + (1.0f - beta1_) * g[i];
      v[i] = beta2_ * v[i] + (1.0f - beta2_) * g[i] * g[i];
      w[i] -= step * m[i] / (std::sqrt(v[i]) + eps_);
    }
  }
}

}  // namespace glsc::nn
