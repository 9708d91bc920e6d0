// im2col / col2im lowering for 2D convolutions (NCHW layout). Convolution
// forward becomes one GEMM per batch element; the backward data pass uses
// col2im to scatter-add gradients back to input positions.
#pragma once

#include <cstdint>

namespace glsc {

// Expands input[C, H, W] into columns[C*KH*KW, OH*OW] for a convolution with
// the given stride and symmetric zero padding. Each channel is lowered from
// a zero-padded copy of its plane, so every column row is a run of plain
// copies with no bounds test per element. `padded` is caller scratch of at
// least Im2ColPadFloats(height, width, pad) floats (null is fine when
// pad == 0, which reads the input planes directly).
void Im2Col(const float* input, std::int64_t channels, std::int64_t height,
            std::int64_t width, std::int64_t kh, std::int64_t kw,
            std::int64_t stride, std::int64_t pad, float* columns,
            float* padded);

// As Im2Col, but writes each of the C*KH*KW rows with leading dimension
// `col_ld` (in floats) instead of the packed OH*OW. Lets several frames share
// one wide column matrix: point `columns` at frame f's first column inside a
// [C*KH*KW, col_ld] buffer and the frames' patches land side by side, ready
// for a single merged GEMM.
void Im2ColLd(const float* input, std::int64_t channels, std::int64_t height,
              std::int64_t width, std::int64_t kh, std::int64_t kw,
              std::int64_t stride, std::int64_t pad, float* columns,
              std::int64_t col_ld, float* padded);

// Inverse scatter-add of Im2Col: accumulates columns back into input layout.
// `input` must be zero-initialized by the caller.
void Col2Im(const float* columns, std::int64_t channels, std::int64_t height,
            std::int64_t width, std::int64_t kh, std::int64_t kw,
            std::int64_t stride, std::int64_t pad, float* input);

// Scratch floats Im2Col/Im2ColLd need for one zero-padded channel plane.
inline std::int64_t Im2ColPadFloats(std::int64_t height, std::int64_t width,
                                    std::int64_t pad) {
  return pad > 0 ? (height + 2 * pad) * (width + 2 * pad) : 0;
}

// Output extent of a convolution; 0 when the kernel is wider than the
// padded input (no window fits).
inline std::int64_t ConvOutDim(std::int64_t in, std::int64_t kernel,
                               std::int64_t stride, std::int64_t pad) {
  if (in + 2 * pad < kernel) return 0;
  return (in + 2 * pad - kernel) / stride + 1;
}

}  // namespace glsc
