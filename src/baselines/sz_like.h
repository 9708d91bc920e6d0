// SZ3-style prediction-based error-bounded compressor.
//
// SZ3's default pipeline predicts values by multilevel interpolation along
// one axis at a time, quantizes the prediction residual into 2*eb bins (so
// every point's reconstruction error is <= eb by construction, regardless of
// predictor quality), and entropy-codes the quantization codes. This class
// implements that design for 3D (t, y, x) fields:
//
//   level L..1:  stride s = 2^level, half = s/2
//     phase t: points (t ≡ half mod s, y ≡ 0 mod s, x ≡ 0 mod s)
//     phase y: points (t ≡ 0 mod half, y ≡ half mod s, x ≡ 0 mod s)
//     phase x: points (t ≡ 0 mod half, y ≡ 0 mod half, x ≡ half mod s)
//   each predicted as the mean of the two already-reconstructed neighbours
//   along the phase axis (single-neighbour copy at boundaries).
//
// Prediction always reads RECONSTRUCTED values, so encoder and decoder stay
// bit-identical and the per-point bound holds end to end.
//
// The decoder pulls one Huffman code per lattice point straight from the
// payload (codec::HuffmanReader), so no code array is built, and keeps its
// double-precision reconstruction in the caller's Workspace when given one:
// the owned float result is then its only heap allocation.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace glsc::tensor {
class Workspace;
}  // namespace glsc::tensor

namespace glsc::baselines {

class SZLikeCompressor {
 public:
  // field: [T, H, W] physical values; abs_bound: pointwise absolute bound.
  std::vector<std::uint8_t> Compress(const Tensor& field, double abs_bound);
  // Owned [T, H, W]. Scratch comes from `ws` (under a Scope this call opens)
  // or the heap when it is null. Throws std::runtime_error on a corrupt
  // payload, including one whose declared dims disagree with its code count.
  Tensor Decompress(const std::vector<std::uint8_t>& bytes,
                    tensor::Workspace* ws = nullptr);
};

}  // namespace glsc::baselines
