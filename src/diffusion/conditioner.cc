#include "diffusion/conditioner.h"

#include <algorithm>

#include "util/check.h"

namespace glsc::diffusion {

std::vector<std::int64_t> SelectKeyframes(KeyframeStrategy strategy,
                                          std::int64_t frames,
                                          std::int64_t interval,
                                          std::int64_t count) {
  GLSC_CHECK(frames >= 2);
  std::vector<std::int64_t> keys;
  switch (strategy) {
    case KeyframeStrategy::kInterpolation: {
      GLSC_CHECK(interval >= 1);
      for (std::int64_t i = 0; i < frames; i += interval) keys.push_back(i);
      // Anchor the tail so interpolation never extrapolates past the last key.
      if (keys.back() != frames - 1) keys.push_back(frames - 1);
      break;
    }
    case KeyframeStrategy::kPrediction: {
      GLSC_CHECK(count >= 1 && count < frames);
      for (std::int64_t i = 0; i < count; ++i) keys.push_back(i);
      break;
    }
    case KeyframeStrategy::kMixed: {
      GLSC_CHECK(count >= 2 && count < frames);
      for (std::int64_t i = 0; i < count - 1; ++i) keys.push_back(i);
      keys.push_back(frames - 1);
      break;
    }
  }
  return keys;
}

std::vector<std::int64_t> GeneratedIndices(
    const std::vector<std::int64_t>& keyframes, std::int64_t frames) {
  std::vector<bool> is_key(static_cast<std::size_t>(frames), false);
  for (const auto k : keyframes) {
    GLSC_CHECK(k >= 0 && k < frames);
    is_key[static_cast<std::size_t>(k)] = true;
  }
  std::vector<std::int64_t> gen;
  for (std::int64_t i = 0; i < frames; ++i) {
    if (!is_key[static_cast<std::size_t>(i)]) gen.push_back(i);
  }
  return gen;
}

Tensor GatherFrames(const Tensor& window,
                    const std::vector<std::int64_t>& idx) {
  GLSC_CHECK(window.rank() >= 2);
  Shape out_shape = window.shape();
  out_shape[0] = static_cast<std::int64_t>(idx.size());
  Tensor out = Tensor::Empty(out_shape);
  const std::int64_t row = window.numel() / window.dim(0);
  for (std::size_t i = 0; i < idx.size(); ++i) {
    GLSC_CHECK(idx[i] >= 0 && idx[i] < window.dim(0));
    std::copy_n(window.data() + idx[i] * row, row,
                out.data() + static_cast<std::int64_t>(i) * row);
  }
  return out;
}

void ScatterFrames(const Tensor& packed, const std::vector<std::int64_t>& idx,
                   Tensor* window) {
  GLSC_CHECK(packed.dim(0) == static_cast<std::int64_t>(idx.size()));
  const std::int64_t row = window->numel() / window->dim(0);
  GLSC_CHECK(packed.numel() / packed.dim(0) == row);
  for (std::size_t i = 0; i < idx.size(); ++i) {
    std::copy_n(packed.data() + static_cast<std::int64_t>(i) * row, row,
                window->data() + idx[i] * row);
  }
}

Tensor Compose(const Tensor& generated, const Tensor& conditioning,
               const std::vector<std::int64_t>& gen_idx,
               const std::vector<std::int64_t>& key_idx) {
  GLSC_CHECK(generated.dim(0) == static_cast<std::int64_t>(gen_idx.size()));
  GLSC_CHECK(conditioning.dim(0) == static_cast<std::int64_t>(key_idx.size()));
  Shape out_shape = generated.rank() > 0 ? generated.shape()
                                         : conditioning.shape();
  out_shape[0] = static_cast<std::int64_t>(gen_idx.size() + key_idx.size());
  // The two scatters cover every frame index, so no zero-fill is needed.
  Tensor out = Tensor::Empty(out_shape);
  ScatterFrames(generated, gen_idx, &out);
  ScatterFrames(conditioning, key_idx, &out);
  return out;
}

Tensor ComposeBatch(const Tensor& generated, const Tensor& conditioning,
                    const std::vector<std::int64_t>& gen_idx,
                    const std::vector<std::int64_t>& key_idx,
                    std::int64_t batch, tensor::Workspace* ws) {
  const std::int64_t g = static_cast<std::int64_t>(gen_idx.size());
  const std::int64_t k = static_cast<std::int64_t>(key_idx.size());
  const std::int64_t n = g + k;
  GLSC_CHECK(batch >= 1);
  GLSC_CHECK(generated.dim(0) == batch * g);
  GLSC_CHECK(conditioning.dim(0) == batch * k);
  const std::int64_t row = generated.numel() / generated.dim(0);
  GLSC_CHECK(conditioning.numel() / conditioning.dim(0) == row);

  Shape out_shape = generated.shape();
  out_shape[0] = batch * n;
  Tensor out =
      ws != nullptr ? ws->NewTensor(out_shape) : Tensor::Empty(out_shape);
  // Each window is the same two scatters as Compose; together they cover
  // every frame, so no zero-fill is needed.
  for (std::int64_t w = 0; w < batch; ++w) {
    const float* pg = generated.data() + w * g * row;
    const float* pk = conditioning.data() + w * k * row;
    float* po = out.data() + w * n * row;
    for (std::int64_t i = 0; i < g; ++i) {
      std::copy_n(pg + i * row, row, po + gen_idx[static_cast<std::size_t>(i)] * row);
    }
    for (std::int64_t i = 0; i < k; ++i) {
      std::copy_n(pk + i * row, row, po + key_idx[static_cast<std::size_t>(i)] * row);
    }
  }
  return out;
}

Tensor GatherFramesBatch(const Tensor& window,
                         const std::vector<std::int64_t>& idx,
                         std::int64_t batch, tensor::Workspace* ws) {
  GLSC_CHECK(batch >= 1 && window.dim(0) % batch == 0);
  const std::int64_t n = window.dim(0) / batch;
  const std::int64_t g = static_cast<std::int64_t>(idx.size());
  const std::int64_t row = window.numel() / window.dim(0);
  Shape out_shape = window.shape();
  out_shape[0] = batch * g;
  Tensor out =
      ws != nullptr ? ws->NewTensor(out_shape) : Tensor::Empty(out_shape);
  for (std::int64_t w = 0; w < batch; ++w) {
    const float* src = window.data() + w * n * row;
    float* dst = out.data() + w * g * row;
    for (std::int64_t i = 0; i < g; ++i) {
      const std::int64_t f = idx[static_cast<std::size_t>(i)];
      GLSC_CHECK(f >= 0 && f < n);
      std::copy_n(src + f * row, row, dst + i * row);
    }
  }
  return out;
}

LatentNorm LatentNorm::FromTensor(const Tensor& t) {
  LatentNorm norm;
  norm.lo = t.MinValue();
  norm.hi = t.MaxValue();
  if (norm.hi - norm.lo < 1e-6f) norm.hi = norm.lo + 1e-6f;
  return norm;
}

void LatentNorm::Normalize(const float* src, std::int64_t n,
                           float* dst) const {
  const float scale = 2.0f / (hi - lo);
  for (std::int64_t i = 0; i < n; ++i) dst[i] = (src[i] - lo) * scale - 1.0f;
}

void LatentNorm::Denormalize(const float* src, std::int64_t n,
                             float* dst) const {
  const float scale = (hi - lo) / 2.0f;
  for (std::int64_t i = 0; i < n; ++i) dst[i] = (src[i] + 1.0f) * scale + lo;
}

Tensor LatentNorm::Normalize(const Tensor& t) const {
  Tensor out = Tensor::Empty(t.shape());
  Normalize(t.data(), t.numel(), out.data());
  return out;
}

Tensor LatentNorm::Denormalize(const Tensor& t) const {
  Tensor out = Tensor::Empty(t.shape());
  Denormalize(t.data(), t.numel(), out.data());
  return out;
}

}  // namespace glsc::diffusion
