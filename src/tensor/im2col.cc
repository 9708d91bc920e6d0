#include "tensor/im2col.h"

#include <cstring>

namespace glsc {

void PadPlanes(const float* input, std::int64_t planes, std::int64_t height,
               std::int64_t width, std::int64_t pad, float* padded) {
  const std::int64_t pw = width + 2 * pad;
  const std::size_t edge_bytes = static_cast<std::size_t>(pad) * sizeof(float);
  const std::size_t row_bytes = static_cast<std::size_t>(width) * sizeof(float);
  for (std::int64_t i = 0; i < planes; ++i) {
    const float* src = input + i * height * width;
    std::memset(padded, 0, static_cast<std::size_t>(pad * pw) * sizeof(float));
    padded += pad * pw;
    for (std::int64_t y = 0; y < height; ++y) {
      std::memset(padded, 0, edge_bytes);
      std::memcpy(padded + pad, src + y * width, row_bytes);
      std::memset(padded + pad + width, 0, edge_bytes);
      padded += pw;
    }
    std::memset(padded, 0, static_cast<std::size_t>(pad * pw) * sizeof(float));
    padded += pad * pw;
  }
}

void Im2Col(const float* input, std::int64_t channels, std::int64_t height,
            std::int64_t width, std::int64_t kh, std::int64_t kw,
            std::int64_t stride, std::int64_t pad, float* columns,
            float* padded) {
  const std::int64_t oh = ConvOutDim(height, kh, stride, pad);
  const std::int64_t ow = ConvOutDim(width, kw, stride, pad);
  const std::int64_t pw = width + 2 * pad;  // padded plane row length
  // Row index of `columns` is (c, ki, kj); column index is (oy, ox). Output
  // pixel (oy, ox) under tap (ki, kj) reads padded (oy*stride + ki,
  // ox*stride + kj), which the output-size formula keeps inside the plane.
  for (std::int64_t c = 0; c < channels; ++c) {
    const float* plane = input + c * height * width;
    if (pad > 0) {
      PadPlanes(plane, 1, height, width, pad, padded);
      plane = padded;
    }
    for (std::int64_t ki = 0; ki < kh; ++ki) {
      for (std::int64_t kj = 0; kj < kw; ++kj) {
        float* out_row = columns + ((c * kh + ki) * kw + kj) * oh * ow;
        for (std::int64_t oy = 0; oy < oh; ++oy) {
          const float* src = plane + (oy * stride + ki) * pw + kj;
          float* dst = out_row + oy * ow;
          if (stride == 1) {
            std::memcpy(dst, src, static_cast<std::size_t>(ow) * sizeof(float));
          } else {
            for (std::int64_t ox = 0; ox < ow; ++ox) dst[ox] = src[ox * stride];
          }
        }
      }
    }
  }
}

void Col2Im(const float* columns, std::int64_t channels, std::int64_t height,
            std::int64_t width, std::int64_t kh, std::int64_t kw,
            std::int64_t stride, std::int64_t pad, float* input) {
  const std::int64_t oh = ConvOutDim(height, kh, stride, pad);
  const std::int64_t ow = ConvOutDim(width, kw, stride, pad);
  for (std::int64_t c = 0; c < channels; ++c) {
    float* in_c = input + c * height * width;
    for (std::int64_t ki = 0; ki < kh; ++ki) {
      for (std::int64_t kj = 0; kj < kw; ++kj) {
        const float* col_row = columns + ((c * kh + ki) * kw + kj) * oh * ow;
        for (std::int64_t oy = 0; oy < oh; ++oy) {
          const std::int64_t iy = oy * stride - pad + ki;
          if (iy < 0 || iy >= height) continue;
          float* in_row = in_c + iy * width;
          for (std::int64_t ox = 0; ox < ow; ++ox) {
            const std::int64_t ix = ox * stride - pad + kj;
            if (ix >= 0 && ix < width) in_row[ix] += col_row[oy * ow + ox];
          }
        }
      }
    }
  }
}

}  // namespace glsc
