#include "nn/norm.h"

#include <cmath>

#include "tensor/simd/kernels.h"

namespace glsc::nn {
namespace {

// Inference-only normalization kernels: no mean/inv_std caching (that exists
// for Backward), and in-place safe — each group/row's moments are fully
// reduced before its elements are overwritten.
void GroupNormApply(const float* px, float* py, std::int64_t batch,
                    std::int64_t channels, std::int64_t groups, std::int64_t hw,
                    float eps, const float* gamma, const float* beta) {
  const std::int64_t ch_per_g = channels / groups;
  const std::int64_t group_size = ch_per_g * hw;
  const simd::KernelTable& kernels = simd::ActiveKernels();
  for (std::int64_t b = 0; b < batch; ++b) {
    for (std::int64_t g = 0; g < groups; ++g) {
      const float* xs = px + (b * channels + g * ch_per_g) * hw;
      double sum = 0.0, sumsq = 0.0;
      kernels.moments(xs, group_size, &sum, &sumsq);
      const double mean = sum / group_size;
      const double var = sumsq / group_size - mean * mean;
      const float inv_std = static_cast<float>(1.0 / std::sqrt(var + eps));
      float* ys = py + (b * channels + g * ch_per_g) * hw;
      for (std::int64_t c = 0; c < ch_per_g; ++c) {
        kernels.norm_affine(xs + c * hw, static_cast<float>(mean), inv_std,
                            gamma[g * ch_per_g + c], beta[g * ch_per_g + c],
                            ys + c * hw, hw);
      }
    }
  }
}

void LayerNormApply(const float* px, float* py, std::int64_t rows,
                    std::int64_t dim, float eps, const float* gamma,
                    const float* beta) {
  const simd::KernelTable& kernels = simd::ActiveKernels();
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* xs = px + r * dim;
    double sum = 0.0, sumsq = 0.0;
    kernels.moments(xs, dim, &sum, &sumsq);
    const double mean = sum / dim;
    const double var = sumsq / dim - mean * mean;
    const float inv_std = static_cast<float>(1.0 / std::sqrt(var + eps));
    kernels.norm_affine_vec(xs, static_cast<float>(mean), inv_std, gamma, beta,
                            py + r * dim, dim);
  }
}

}  // namespace

GroupNorm::GroupNorm(std::int64_t groups, std::int64_t channels,
                     const std::string& name, float eps)
    : groups_(groups), channels_(channels), eps_(eps) {
  GLSC_CHECK_MSG(channels % groups == 0,
                 "channels " << channels << " % groups " << groups << " != 0");
  gamma_ = Param(name + ".gamma", Tensor::Full({channels}, 1.0f));
  beta_ = Param(name + ".beta", Tensor::Zeros({channels}));
}

Tensor GroupNorm::Forward(const Tensor& x) {
  GLSC_CHECK(x.rank() == 4 && x.dim(1) == channels_);
  cached_input_ = x;
  const std::int64_t batch = x.dim(0);
  const std::int64_t ch_per_g = channels_ / groups_;
  const std::int64_t hw = x.dim(2) * x.dim(3);
  const std::int64_t group_size = ch_per_g * hw;

  cached_mean_.assign(static_cast<std::size_t>(batch * groups_), 0.0f);
  cached_inv_std_.assign(static_cast<std::size_t>(batch * groups_), 0.0f);

  Tensor y = Tensor::Empty(x.shape());
  const float* px = x.data();
  float* py = y.data();
  const float* pg = gamma_.value.data();
  const float* pb = beta_.value.data();

  const simd::KernelTable& kernels = simd::ActiveKernels();
  for (std::int64_t b = 0; b < batch; ++b) {
    for (std::int64_t g = 0; g < groups_; ++g) {
      const float* xs = px + (b * channels_ + g * ch_per_g) * hw;
      double sum = 0.0, sumsq = 0.0;
      kernels.moments(xs, group_size, &sum, &sumsq);
      const double mean = sum / group_size;
      const double var = sumsq / group_size - mean * mean;
      const float inv_std = static_cast<float>(1.0 / std::sqrt(var + eps_));
      cached_mean_[b * groups_ + g] = static_cast<float>(mean);
      cached_inv_std_[b * groups_ + g] = inv_std;

      float* ys = py + (b * channels_ + g * ch_per_g) * hw;
      for (std::int64_t c = 0; c < ch_per_g; ++c) {
        kernels.norm_affine(xs + c * hw, static_cast<float>(mean), inv_std,
                            pg[g * ch_per_g + c], pb[g * ch_per_g + c],
                            ys + c * hw, hw);
      }
    }
  }
  return y;
}

Tensor GroupNorm::Forward(const Tensor& x, tensor::Workspace* ws) {
  GLSC_CHECK(x.rank() == 4 && x.dim(1) == channels_);
  Tensor y = ws->NewTensor(x.shape());
  GroupNormApply(x.data(), y.data(), x.dim(0), channels_, groups_,
                 x.dim(2) * x.dim(3), eps_, gamma_.value.data(),
                 beta_.value.data());
  return y;
}

bool GroupNorm::ForwardInPlace(Tensor* x) {
  GLSC_CHECK(x->rank() == 4 && x->dim(1) == channels_);
  GroupNormApply(x->data(), x->data(), x->dim(0), channels_, groups_,
                 x->dim(2) * x->dim(3), eps_, gamma_.value.data(),
                 beta_.value.data());
  return true;
}

Tensor GroupNorm::Backward(const Tensor& grad_out) {
  GLSC_CHECK(cached_input_.defined());
  const Tensor& x = cached_input_;
  const std::int64_t batch = x.dim(0);
  const std::int64_t ch_per_g = channels_ / groups_;
  const std::int64_t hw = x.dim(2) * x.dim(3);
  const std::int64_t m = ch_per_g * hw;  // normalization group size

  Tensor grad_in = Tensor::Empty(x.shape());
  const float* px = x.data();
  const float* pgo = grad_out.data();
  float* pgi = grad_in.data();
  const float* pg = gamma_.value.data();
  float* ggamma = gamma_.grad.data();
  float* gbeta = beta_.grad.data();

  for (std::int64_t b = 0; b < batch; ++b) {
    for (std::int64_t g = 0; g < groups_; ++g) {
      const float mean = cached_mean_[b * groups_ + g];
      const float inv_std = cached_inv_std_[b * groups_ + g];
      const float* xs = px + (b * channels_ + g * ch_per_g) * hw;
      const float* gs = pgo + (b * channels_ + g * ch_per_g) * hw;
      float* is = pgi + (b * channels_ + g * ch_per_g) * hw;

      // First pass: accumulate the two reductions sum(dxhat) and
      // sum(dxhat * xhat) plus per-channel parameter gradients.
      double sum_dxhat = 0.0, sum_dxhat_xhat = 0.0;
      for (std::int64_t c = 0; c < ch_per_g; ++c) {
        const float gc = pg[g * ch_per_g + c];
        double dg = 0.0, db = 0.0;
        for (std::int64_t i = 0; i < hw; ++i) {
          const float xhat = (xs[c * hw + i] - mean) * inv_std;
          const float go = gs[c * hw + i];
          const float dxhat = go * gc;
          sum_dxhat += dxhat;
          sum_dxhat_xhat += static_cast<double>(dxhat) * xhat;
          dg += static_cast<double>(go) * xhat;
          db += go;
        }
        ggamma[g * ch_per_g + c] += static_cast<float>(dg);
        gbeta[g * ch_per_g + c] += static_cast<float>(db);
      }

      // Second pass: dx = inv_std * (dxhat - mean(dxhat) - xhat*mean(dxhat*xhat))
      const float mean_dxhat = static_cast<float>(sum_dxhat / m);
      const float mean_dxhat_xhat = static_cast<float>(sum_dxhat_xhat / m);
      for (std::int64_t c = 0; c < ch_per_g; ++c) {
        const float gc = pg[g * ch_per_g + c];
        for (std::int64_t i = 0; i < hw; ++i) {
          const float xhat = (xs[c * hw + i] - mean) * inv_std;
          const float dxhat = gs[c * hw + i] * gc;
          is[c * hw + i] =
              inv_std * (dxhat - mean_dxhat - xhat * mean_dxhat_xhat);
        }
      }
    }
  }
  cached_input_ = Tensor();
  return grad_in;
}

std::vector<Param*> GroupNorm::Params() { return {&gamma_, &beta_}; }

LayerNorm::LayerNorm(std::int64_t dim, const std::string& name, float eps)
    : dim_(dim), eps_(eps) {
  gamma_ = Param(name + ".gamma", Tensor::Full({dim}, 1.0f));
  beta_ = Param(name + ".beta", Tensor::Zeros({dim}));
}

Tensor LayerNorm::Forward(const Tensor& x) {
  GLSC_CHECK(x.shape().back() == dim_);
  cached_input_ = x;
  const std::int64_t rows = x.numel() / dim_;
  cached_mean_.assign(static_cast<std::size_t>(rows), 0.0f);
  cached_inv_std_.assign(static_cast<std::size_t>(rows), 0.0f);

  Tensor y = Tensor::Empty(x.shape());
  const float* px = x.data();
  float* py = y.data();
  const float* pg = gamma_.value.data();
  const float* pb = beta_.value.data();
  const simd::KernelTable& kernels = simd::ActiveKernels();
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* xs = px + r * dim_;
    double sum = 0.0, sumsq = 0.0;
    kernels.moments(xs, dim_, &sum, &sumsq);
    const double mean = sum / dim_;
    const double var = sumsq / dim_ - mean * mean;
    const float inv_std = static_cast<float>(1.0 / std::sqrt(var + eps_));
    cached_mean_[r] = static_cast<float>(mean);
    cached_inv_std_[r] = inv_std;
    kernels.norm_affine_vec(xs, static_cast<float>(mean), inv_std, pg, pb,
                            py + r * dim_, dim_);
  }
  return y;
}

Tensor LayerNorm::Forward(const Tensor& x, tensor::Workspace* ws) {
  GLSC_CHECK(x.shape().back() == dim_);
  Tensor y = ws->NewTensor(x.shape());
  LayerNormApply(x.data(), y.data(), x.numel() / dim_, dim_, eps_,
                 gamma_.value.data(), beta_.value.data());
  return y;
}

bool LayerNorm::ForwardInPlace(Tensor* x) {
  GLSC_CHECK(x->shape().back() == dim_);
  LayerNormApply(x->data(), x->data(), x->numel() / dim_, dim_, eps_,
                 gamma_.value.data(), beta_.value.data());
  return true;
}

Tensor LayerNorm::Backward(const Tensor& grad_out) {
  GLSC_CHECK(cached_input_.defined());
  const Tensor& x = cached_input_;
  const std::int64_t rows = x.numel() / dim_;
  Tensor grad_in = Tensor::Empty(x.shape());
  const float* px = x.data();
  const float* pgo = grad_out.data();
  float* pgi = grad_in.data();
  const float* pg = gamma_.value.data();
  float* ggamma = gamma_.grad.data();
  float* gbeta = beta_.grad.data();

  for (std::int64_t r = 0; r < rows; ++r) {
    const float mean = cached_mean_[r];
    const float inv_std = cached_inv_std_[r];
    const float* xs = px + r * dim_;
    const float* gs = pgo + r * dim_;
    float* is = pgi + r * dim_;

    double sum_dxhat = 0.0, sum_dxhat_xhat = 0.0;
    for (std::int64_t i = 0; i < dim_; ++i) {
      const float xhat = (xs[i] - mean) * inv_std;
      const float dxhat = gs[i] * pg[i];
      sum_dxhat += dxhat;
      sum_dxhat_xhat += static_cast<double>(dxhat) * xhat;
      ggamma[i] += gs[i] * xhat;
      gbeta[i] += gs[i];
    }
    const float mean_dxhat = static_cast<float>(sum_dxhat / dim_);
    const float mean_dxhat_xhat = static_cast<float>(sum_dxhat_xhat / dim_);
    for (std::int64_t i = 0; i < dim_; ++i) {
      const float xhat = (xs[i] - mean) * inv_std;
      const float dxhat = gs[i] * pg[i];
      is[i] = inv_std * (dxhat - mean_dxhat - xhat * mean_dxhat_xhat);
    }
  }
  cached_input_ = Tensor();
  return grad_in;
}

std::vector<Param*> LayerNorm::Params() { return {&gamma_, &beta_}; }

}  // namespace glsc::nn
