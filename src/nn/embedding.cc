#include "nn/embedding.h"

#include <cmath>

namespace glsc::nn {

namespace {

void FillSinusoidal(float* emb, std::int64_t timestep, std::int64_t dim) {
  const std::int64_t half = dim / 2;
  // Frequencies follow the standard 1e4^(-i/half) spacing.
  for (std::int64_t i = 0; i < half; ++i) {
    const double freq =
        std::exp(-std::log(10000.0) * static_cast<double>(i) / half);
    const double angle = static_cast<double>(timestep) * freq;
    emb[i] = static_cast<float>(std::sin(angle));
    emb[half + i] = static_cast<float>(std::cos(angle));
  }
}

}  // namespace

Tensor SinusoidalTimeEmbedding(std::int64_t timestep, std::int64_t dim) {
  GLSC_CHECK(dim % 2 == 0);
  Tensor emb = Tensor::Empty({dim});
  FillSinusoidal(emb.data(), timestep, dim);
  return emb;
}

Tensor SinusoidalTimeEmbedding(std::int64_t timestep, std::int64_t dim,
                               tensor::Workspace* ws) {
  GLSC_CHECK(dim % 2 == 0);
  Tensor emb = ws->NewTensor({dim});
  FillSinusoidal(emb.data(), timestep, dim);
  return emb;
}

}  // namespace glsc::nn
