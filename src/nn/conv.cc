#include "nn/conv.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "tensor/gemm.h"
#include "tensor/im2col.h"

namespace glsc::nn {
namespace {

// Grow-only scratch: repeated calls on same-shaped inputs never re-allocate.
float* GrowScratch(std::vector<float>* buf, std::int64_t floats) {
  if (static_cast<std::int64_t>(buf->size()) < floats) {
    buf->resize(static_cast<std::size_t>(floats));
  }
  return buf->data();
}

// Frames per GEMM: enough to fill one GEMM column block, so small frames
// still pack the weights once per block rather than once per frame.
std::int64_t ChunkFrames(std::int64_t batch, std::int64_t cols) {
  return std::min(batch, (kGemmBlockCols + cols - 1) / cols);
}

}  // namespace

Conv2d::Conv2d(std::int64_t in_channels, std::int64_t out_channels,
               std::int64_t kernel, std::int64_t stride, std::int64_t pad,
               Rng& rng, const std::string& name)
    : in_c_(in_channels),
      out_c_(out_channels),
      kernel_(kernel),
      stride_(stride),
      pad_(pad) {
  const std::int64_t fan_in = in_channels * kernel * kernel;
  const float bound = std::sqrt(1.0f / static_cast<float>(fan_in));
  weight_ = Param(name + ".weight",
                  Tensor::Uniform({out_c_, fan_in}, rng, -bound, bound));
  bias_ = Param(name + ".bias", Tensor::Uniform({out_c_}, rng, -bound, bound));
}

Shape Conv2d::OutputShape(const Tensor& x) const {
  GLSC_CHECK(x.rank() == 4 && x.dim(1) == in_c_);
  const std::int64_t oh = ConvOutDim(x.dim(2), kernel_, stride_, pad_);
  const std::int64_t ow = ConvOutDim(x.dim(3), kernel_, stride_, pad_);
  GLSC_CHECK_MSG(oh > 0 && ow > 0,
                 "conv output collapsed: in " << x.dim(2) << "x" << x.dim(3));
  return {x.dim(0), out_c_, oh, ow};
}

Conv2d::Scratch Conv2d::ScratchFloats(const Tensor& x, const Tensor& y) const {
  const std::int64_t cols = y.dim(2) * y.dim(3);
  const std::int64_t chunk = ChunkFrames(x.dim(0), cols);
  Scratch floats;
  if (pad_ > 0) {
    floats.padded =
        chunk * in_c_ * (x.dim(2) + 2 * pad_) * (x.dim(3) + 2 * pad_);
  }
  if (chunk > 1) floats.staged = out_c_ * chunk * cols;
  return floats;
}

void Conv2d::Apply(const Tensor& x, Tensor* y, float* padded,
                   float* staged) const {
  const std::int64_t batch = x.dim(0);
  const std::int64_t h = x.dim(2);
  const std::int64_t w = x.dim(3);
  const std::int64_t ph = h + 2 * pad_;
  const std::int64_t pw = w + 2 * pad_;
  const std::int64_t cols = y->dim(2) * y->dim(3);
  const std::int64_t chunk = ChunkFrames(batch, cols);
  for (std::int64_t b0 = 0; b0 < batch; b0 += chunk) {
    const std::int64_t bc = std::min(chunk, batch - b0);
    const float* frames = x.data() + b0 * in_c_ * h * w;
    if (pad_ > 0) {
      PadPlanes(frames, bc * in_c_, h, w, pad_, padded);
      frames = padded;
    }
    // One frame's output is already an NCHW plane set; several frames come
    // out as [out_c, bc * cols] and are un-interleaved below.
    float* out = bc > 1 ? staged : y->data() + b0 * out_c_ * cols;
    ConvGemm(out_c_, weight_.value.data(), in_c_ * kernel_ * kernel_,
             ConvFrames{frames, bc, in_c_, ph, pw, kernel_, stride_}, out,
             bc * cols, bias_.value.data(), GemmEpilogue::kBiasRow);
    if (bc == 1) continue;
    for (std::int64_t f = 0; f < bc; ++f) {
      float* dst = y->data() + (b0 + f) * out_c_ * cols;
      for (std::int64_t c = 0; c < out_c_; ++c) {
        std::memcpy(dst + c * cols, staged + c * bc * cols + f * cols,
                    static_cast<std::size_t>(cols) * sizeof(float));
      }
    }
  }
}

Tensor Conv2d::Forward(const Tensor& x, bool /*training*/) {
  Tensor y = Tensor::Empty(OutputShape(x));
  cached_input_ = x;
  const Scratch floats = ScratchFloats(x, y);
  Apply(x, &y, GrowScratch(&pad_scratch_, floats.padded),
        GrowScratch(&stage_scratch_, floats.staged));
  return y;
}

Tensor Conv2d::Forward(const Tensor& x, tensor::Workspace* ws) {
  Tensor y = ws->NewTensor(OutputShape(x));
  // The scratch rewinds on return; only y stays allocated.
  tensor::Workspace::Scope scope(ws);
  const Scratch floats = ScratchFloats(x, y);
  Apply(x, &y, ws->Allocate(floats.padded), ws->Allocate(floats.staged));
  return y;
}

Tensor Conv2d::Backward(const Tensor& grad_out) {
  GLSC_CHECK(cached_input_.defined());
  const Tensor& x = cached_input_;
  const std::int64_t batch = x.dim(0);
  const std::int64_t h = x.dim(2);
  const std::int64_t w = x.dim(3);
  const std::int64_t oh = grad_out.dim(2);
  const std::int64_t ow = grad_out.dim(3);
  const std::int64_t col_rows = in_c_ * kernel_ * kernel_;
  const std::int64_t col_cols = oh * ow;

  Tensor grad_in = Tensor::Empty(x.shape());
  // Grow-only scratch for the columns, dcolumns and one padded plane;
  // nothing re-allocates in steady state.
  float* columns = GrowScratch(&col_scratch_, col_rows * col_cols);
  float* grad_cols = GrowScratch(&grad_col_scratch_, col_rows * col_cols);
  float* padded = GrowScratch(&pad_scratch_, Im2ColPadFloats(h, w, pad_));

  for (std::int64_t b = 0; b < batch; ++b) {
    const float* g_b = grad_out.data() + b * out_c_ * col_cols;

    // dW += g_b [out_c, cols] * columns^T [cols, col_rows]
    Im2Col(x.data() + b * in_c_ * h * w, in_c_, h, w, kernel_, kernel_,
           stride_, pad_, columns, padded);
    Gemm(false, true, out_c_, col_rows, col_cols, 1.0f, g_b, col_cols,
         columns, col_cols, 1.0f, weight_.grad.data(), col_rows);

    // db += sum over spatial of g_b
    float* gb = bias_.grad.data();
    for (std::int64_t c = 0; c < out_c_; ++c) {
      double s = 0.0;
      for (std::int64_t i = 0; i < col_cols; ++i) s += g_b[c * col_cols + i];
      gb[c] += static_cast<float>(s);
    }

    // dcolumns = W^T [col_rows, out_c] * g_b [out_c, cols]; scatter to input.
    Gemm(true, false, col_rows, col_cols, out_c_, 1.0f, weight_.value.data(),
         col_rows, g_b, col_cols, 0.0f, grad_cols, col_cols);
    std::memset(grad_in.data() + b * in_c_ * h * w, 0,
                static_cast<std::size_t>(in_c_ * h * w) * sizeof(float));
    Col2Im(grad_cols, in_c_, h, w, kernel_, kernel_, stride_, pad_,
           grad_in.data() + b * in_c_ * h * w);
  }
  cached_input_ = Tensor();
  return grad_in;
}

std::vector<Param*> Conv2d::Params() { return {&weight_, &bias_}; }

namespace {

void Upsample2xApply(const float* src, float* dst, std::int64_t bc,
                     std::int64_t h, std::int64_t w) {
  for (std::int64_t p = 0; p < bc; ++p) {
    const float* sp = src + p * h * w;
    float* dp = dst + p * 4 * h * w;
    for (std::int64_t i = 0; i < h; ++i) {
      for (std::int64_t j = 0; j < w; ++j) {
        const float v = sp[i * w + j];
        float* cell = dp + (2 * i) * (2 * w) + 2 * j;
        cell[0] = v;
        cell[1] = v;
        cell[2 * w] = v;
        cell[2 * w + 1] = v;
      }
    }
  }
}

void AvgPool2xApply(const float* src, float* dst, std::int64_t bc,
                    std::int64_t h, std::int64_t w) {
  for (std::int64_t p = 0; p < bc; ++p) {
    const float* sp = src + p * h * w;
    float* dp = dst + p * (h / 2) * (w / 2);
    for (std::int64_t i = 0; i < h / 2; ++i) {
      for (std::int64_t j = 0; j < w / 2; ++j) {
        const float* cell = sp + (2 * i) * w + 2 * j;
        dp[i * (w / 2) + j] =
            0.25f * (cell[0] + cell[1] + cell[w] + cell[w + 1]);
      }
    }
  }
}

}  // namespace

Tensor NearestUpsample2x::Forward(const Tensor& x, bool /*training*/) {
  GLSC_CHECK(x.rank() == 4);
  cached_in_shape_ = x.shape();
  Tensor y = Tensor::Empty({x.dim(0), x.dim(1), 2 * x.dim(2), 2 * x.dim(3)});
  Upsample2xApply(x.data(), y.data(), x.dim(0) * x.dim(1), x.dim(2), x.dim(3));
  return y;
}

Tensor NearestUpsample2x::Forward(const Tensor& x, tensor::Workspace* ws) {
  GLSC_CHECK(x.rank() == 4);
  Tensor y = ws->NewTensor({x.dim(0), x.dim(1), 2 * x.dim(2), 2 * x.dim(3)});
  Upsample2xApply(x.data(), y.data(), x.dim(0) * x.dim(1), x.dim(2), x.dim(3));
  return y;
}

Tensor NearestUpsample2x::Backward(const Tensor& grad_out) {
  GLSC_CHECK(!cached_in_shape_.empty());
  const std::int64_t bc = cached_in_shape_[0] * cached_in_shape_[1];
  const std::int64_t h = cached_in_shape_[2];
  const std::int64_t w = cached_in_shape_[3];
  Tensor grad_in = Tensor::Empty(cached_in_shape_);
  const float* g = grad_out.data();
  float* gi = grad_in.data();
  for (std::int64_t p = 0; p < bc; ++p) {
    const float* gp = g + p * 4 * h * w;
    float* ip = gi + p * h * w;
    for (std::int64_t i = 0; i < h; ++i) {
      for (std::int64_t j = 0; j < w; ++j) {
        const float* cell = gp + (2 * i) * (2 * w) + 2 * j;
        ip[i * w + j] = cell[0] + cell[1] + cell[2 * w] + cell[2 * w + 1];
      }
    }
  }
  cached_in_shape_.clear();
  return grad_in;
}

Tensor AvgPool2x::Forward(const Tensor& x, bool /*training*/) {
  GLSC_CHECK(x.rank() == 4);
  GLSC_CHECK(x.dim(2) % 2 == 0 && x.dim(3) % 2 == 0);
  cached_in_shape_ = x.shape();
  Tensor y = Tensor::Empty({x.dim(0), x.dim(1), x.dim(2) / 2, x.dim(3) / 2});
  AvgPool2xApply(x.data(), y.data(), x.dim(0) * x.dim(1), x.dim(2), x.dim(3));
  return y;
}

Tensor AvgPool2x::Forward(const Tensor& x, tensor::Workspace* ws) {
  GLSC_CHECK(x.rank() == 4);
  GLSC_CHECK(x.dim(2) % 2 == 0 && x.dim(3) % 2 == 0);
  Tensor y = ws->NewTensor({x.dim(0), x.dim(1), x.dim(2) / 2, x.dim(3) / 2});
  AvgPool2xApply(x.data(), y.data(), x.dim(0) * x.dim(1), x.dim(2), x.dim(3));
  return y;
}

Tensor AvgPool2x::Backward(const Tensor& grad_out) {
  GLSC_CHECK(!cached_in_shape_.empty());
  const std::int64_t bc = cached_in_shape_[0] * cached_in_shape_[1];
  const std::int64_t h = cached_in_shape_[2];
  const std::int64_t w = cached_in_shape_[3];
  Tensor grad_in = Tensor::Empty(cached_in_shape_);
  const float* g = grad_out.data();
  float* gi = grad_in.data();
  for (std::int64_t p = 0; p < bc; ++p) {
    const float* gp = g + p * (h / 2) * (w / 2);
    float* ip = gi + p * h * w;
    for (std::int64_t i = 0; i < h / 2; ++i) {
      for (std::int64_t j = 0; j < w / 2; ++j) {
        const float v = 0.25f * gp[i * (w / 2) + j];
        float* cell = ip + (2 * i) * w + 2 * j;
        cell[0] = v;
        cell[1] = v;
        cell[w] = v;
        cell[w + 1] = v;
      }
    }
  }
  cached_in_shape_.clear();
  return grad_in;
}

}  // namespace glsc::nn
