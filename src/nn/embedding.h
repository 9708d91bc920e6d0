// Sinusoidal timestep embeddings (Transformer-style), used to tell the
// denoising UNet which diffusion step it is operating at.
#pragma once

#include "tensor/tensor.h"
#include "tensor/workspace.h"

namespace glsc::nn {

// Returns a [dim] embedding for a single integer timestep:
// half sine, half cosine over log-spaced frequencies.
Tensor SinusoidalTimeEmbedding(std::int64_t timestep, std::int64_t dim);
// Workspace variant: the result borrows arena memory.
Tensor SinusoidalTimeEmbedding(std::int64_t timestep, std::int64_t dim,
                               tensor::Workspace* ws);

}  // namespace glsc::nn
