#include "tensor/im2col.h"

#include <cstring>

namespace glsc {

void Im2Col(const float* input, std::int64_t channels, std::int64_t height,
            std::int64_t width, std::int64_t kh, std::int64_t kw,
            std::int64_t stride, std::int64_t pad, float* columns,
            float* padded) {
  const std::int64_t oh = ConvOutDim(height, kh, stride, pad);
  const std::int64_t ow = ConvOutDim(width, kw, stride, pad);
  Im2ColLd(input, channels, height, width, kh, kw, stride, pad, columns,
           oh * ow, padded);
}

void Im2ColLd(const float* input, std::int64_t channels, std::int64_t height,
              std::int64_t width, std::int64_t kh, std::int64_t kw,
              std::int64_t stride, std::int64_t pad, float* columns,
              std::int64_t col_ld, float* padded) {
  const std::int64_t oh = ConvOutDim(height, kh, stride, pad);
  const std::int64_t ow = ConvOutDim(width, kw, stride, pad);
  const std::int64_t pw = width + 2 * pad;  // padded plane row length
  const std::size_t row_bytes = static_cast<std::size_t>(width) * sizeof(float);
  // The border is zeroed once; each channel then rewrites only the interior,
  // so the border stays zero for every channel.
  if (pad > 0) {
    std::memset(padded, 0,
                static_cast<std::size_t>(Im2ColPadFloats(height, width, pad)) *
                    sizeof(float));
  }
  // Row index of `columns` is (c, ki, kj); column index is (oy, ox). Output
  // pixel (oy, ox) under tap (ki, kj) reads padded (oy*stride + ki,
  // ox*stride + kj), which the output-size formula keeps inside the plane.
  for (std::int64_t c = 0; c < channels; ++c) {
    const float* in_c = input + c * height * width;
    const float* plane = in_c;
    if (pad > 0) {
      for (std::int64_t y = 0; y < height; ++y) {
        std::memcpy(padded + (y + pad) * pw + pad, in_c + y * width, row_bytes);
      }
      plane = padded;
    }
    for (std::int64_t ki = 0; ki < kh; ++ki) {
      for (std::int64_t kj = 0; kj < kw; ++kj) {
        float* out_row = columns + ((c * kh + ki) * kw + kj) * col_ld;
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
