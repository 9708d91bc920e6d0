// im2col / col2im lowering for 2D convolutions (NCHW layout). The forward
// pass never builds the column matrix: Conv2d pads its frames with
// PadPlanes and ConvGemm (tensor/gemm.h) packs GEMM panels straight from
// the padded planes. Im2Col remains for the backward weight gradient, and
// Col2Im scatter-adds gradients back to input positions.
#pragma once

#include <cstdint>

namespace glsc {

// Writes `planes` consecutive [height, width] planes as zero-padded
// [height + 2*pad, width + 2*pad] planes, back to back in `padded`. Every
// output float is written, so `padded` needs no clearing.
void PadPlanes(const float* input, std::int64_t planes, std::int64_t height,
               std::int64_t width, std::int64_t pad, float* padded);

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

// Inverse scatter-add of Im2Col: accumulates columns back into input layout.
// `input` must be zero-initialized by the caller.
void Col2Im(const float* columns, std::int64_t channels, std::int64_t height,
            std::int64_t width, std::int64_t kh, std::int64_t kw,
            std::int64_t stride, std::int64_t pad, float* input);

// Scratch floats Im2Col needs for one zero-padded channel plane (0 when
// pad == 0, where it reads the input planes directly).
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
