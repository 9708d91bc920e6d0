#include "nn/attention.h"

#include <algorithm>

#include <cmath>

#include "tensor/gemm.h"
#include "tensor/simd/kernels.h"

namespace glsc::nn {

void SoftmaxLastDim(Tensor* t) {
  const std::int64_t d = t->shape().back();
  const std::int64_t rows = t->numel() / d;
  float* p = t->data();
  const simd::KernelTable& kernels = simd::ActiveKernels();
  for (std::int64_t r = 0; r < rows; ++r) {
    kernels.softmax_row(p + r * d, d);
  }
}

MultiHeadSelfAttention::MultiHeadSelfAttention(std::int64_t dim,
                                               std::int64_t heads, Rng& rng,
                                               const std::string& name)
    : dim_(dim),
      heads_(heads),
      head_dim_(dim / heads),
      qkv_(dim, 3 * dim, rng, /*bias=*/true, name + ".qkv"),
      proj_(dim, dim, rng, /*bias=*/true, name + ".proj") {
  GLSC_CHECK_MSG(dim % heads == 0, "dim " << dim << " % heads " << heads);
}

namespace {

// [B, L, 3D] rows -> per-head Q, K, V tensors [B, H, L, hd].
void SplitHeads(const float* src, float* pq, float* pk, float* pv,
                std::int64_t b, std::int64_t l, std::int64_t heads,
                std::int64_t head_dim, std::int64_t dim) {
  for (std::int64_t bi = 0; bi < b; ++bi) {
    for (std::int64_t li = 0; li < l; ++li) {
      const float* row = src + (bi * l + li) * 3 * dim;
      for (std::int64_t h = 0; h < heads; ++h) {
        float* dq = pq + ((bi * heads + h) * l + li) * head_dim;
        float* dk = pk + ((bi * heads + h) * l + li) * head_dim;
        float* dv = pv + ((bi * heads + h) * l + li) * head_dim;
        for (std::int64_t d = 0; d < head_dim; ++d) {
          dq[d] = row[h * head_dim + d];
          dk[d] = row[dim + h * head_dim + d];
          dv[d] = row[2 * dim + h * head_dim + d];
        }
      }
    }
  }
}

// scores = Q K^T / sqrt(hd); attn = softmax(scores); out = attn V, one
// fused kernel call per (batch, head). Head bh's [l, l] attention matrix
// lands at pattn + bh * attn_stride: training passes l * l and keeps every
// matrix for Backward; inference passes 0, so all heads reuse one matrix.
void AttentionCore(const float* pq, const float* pk, const float* pv,
                   float* pattn, std::int64_t attn_stride, float* pout,
                   std::int64_t bh_count, std::int64_t l,
                   std::int64_t head_dim) {
  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim));
  const simd::KernelTable& kernels = simd::ActiveKernels();
  for (std::int64_t bh = 0; bh < bh_count; ++bh) {
    const std::int64_t offset = bh * l * head_dim;
    kernels.attention_head(pq + offset, pk + offset, pv + offset, l, head_dim,
                           scale, pattn + bh * attn_stride, pout + offset);
  }
}

// [B, H, L, hd] -> merged [B, L, D].
void MergeHeads(const float* src, float* dst, std::int64_t b, std::int64_t l,
                std::int64_t heads, std::int64_t head_dim, std::int64_t dim) {
  for (std::int64_t bi = 0; bi < b; ++bi) {
    for (std::int64_t h = 0; h < heads; ++h) {
      for (std::int64_t li = 0; li < l; ++li) {
        const float* s = src + ((bi * heads + h) * l + li) * head_dim;
        float* d = dst + (bi * l + li) * dim + h * head_dim;
        std::copy_n(s, head_dim, d);
      }
    }
  }
}

}  // namespace

Tensor MultiHeadSelfAttention::Forward(const Tensor& x, bool training) {
  GLSC_CHECK(x.rank() == 3 && x.dim(2) == dim_);
  const std::int64_t b = x.dim(0);
  const std::int64_t l = x.dim(1);

  Tensor qkv = qkv_.Forward(x, training);
  cached_q_ = Tensor::Empty({b, heads_, l, head_dim_});
  cached_k_ = Tensor::Empty({b, heads_, l, head_dim_});
  cached_v_ = Tensor::Empty({b, heads_, l, head_dim_});
  SplitHeads(qkv.data(), cached_q_.data(), cached_k_.data(), cached_v_.data(),
             b, l, heads_, head_dim_, dim_);

  cached_attn_ = Tensor::Empty({b, heads_, l, l});
  Tensor heads_out = Tensor::Empty({b, heads_, l, head_dim_});
  AttentionCore(cached_q_.data(), cached_k_.data(), cached_v_.data(),
                cached_attn_.data(), l * l, heads_out.data(), b * heads_, l,
                head_dim_);

  Tensor merged = Tensor::Empty({b, l, dim_});
  MergeHeads(heads_out.data(), merged.data(), b, l, heads_, head_dim_, dim_);
  return proj_.Forward(merged, training);
}

Tensor MultiHeadSelfAttention::Forward(const Tensor& x, tensor::Workspace* ws) {
  GLSC_CHECK(x.rank() == 3 && x.dim(2) == dim_);
  const std::int64_t b = x.dim(0);
  const std::int64_t l = x.dim(1);

  // All temporaries live in the arena; nothing is cached for backward, so
  // one [l, l] attention matrix serves every (batch, head) in turn.
  Tensor qkv = qkv_.Forward(x, ws);
  Tensor q = ws->NewTensor({b, heads_, l, head_dim_});
  Tensor k = ws->NewTensor({b, heads_, l, head_dim_});
  Tensor v = ws->NewTensor({b, heads_, l, head_dim_});
  SplitHeads(qkv.data(), q.data(), k.data(), v.data(), b, l, heads_, head_dim_,
             dim_);

  Tensor attn = ws->NewTensor({l, l});
  Tensor heads_out = ws->NewTensor({b, heads_, l, head_dim_});
  AttentionCore(q.data(), k.data(), v.data(), attn.data(), /*attn_stride=*/0,
                heads_out.data(), b * heads_, l, head_dim_);

  Tensor merged = ws->NewTensor({b, l, dim_});
  MergeHeads(heads_out.data(), merged.data(), b, l, heads_, head_dim_, dim_);
  return proj_.Forward(merged, ws);
}

Tensor MultiHeadSelfAttention::Backward(const Tensor& grad_out) {
  GLSC_CHECK(cached_attn_.defined());
  const std::int64_t b = grad_out.dim(0);
  const std::int64_t l = grad_out.dim(1);

  // Through the output projection.
  Tensor g_merged = proj_.Backward(grad_out);

  // Un-merge heads: [B, L, D] -> [B, H, L, hd].
  Tensor g_heads = Tensor::Empty({b, heads_, l, head_dim_});
  {
    const float* src = g_merged.data();
    float* dst = g_heads.data();
    for (std::int64_t bi = 0; bi < b; ++bi) {
      for (std::int64_t h = 0; h < heads_; ++h) {
        for (std::int64_t li = 0; li < l; ++li) {
          const float* s = src + (bi * l + li) * dim_ + h * head_dim_;
          float* d = dst + ((bi * heads_ + h) * l + li) * head_dim_;
          std::copy_n(s, head_dim_, d);
        }
      }
    }
  }

  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim_));
  Tensor g_q = Tensor::Empty({b, heads_, l, head_dim_});
  Tensor g_k = Tensor::Empty({b, heads_, l, head_dim_});
  Tensor g_v = Tensor::Empty({b, heads_, l, head_dim_});
  std::vector<float> g_attn(static_cast<std::size_t>(l * l));
  std::vector<float> g_scores(static_cast<std::size_t>(l * l));

  for (std::int64_t bh = 0; bh < b * heads_; ++bh) {
    const float* q = cached_q_.data() + bh * l * head_dim_;
    const float* k = cached_k_.data() + bh * l * head_dim_;
    const float* v = cached_v_.data() + bh * l * head_dim_;
    const float* attn = cached_attn_.data() + bh * l * l;
    const float* go = g_heads.data() + bh * l * head_dim_;

    // d_attn = go V^T ; d_v = attn^T go
    Gemm(false, true, l, l, head_dim_, 1.0f, go, head_dim_, v, head_dim_, 0.0f,
         g_attn.data(), l);
    Gemm(true, false, l, head_dim_, l, 1.0f, attn, l, go, head_dim_, 0.0f,
         g_v.data() + bh * l * head_dim_, head_dim_);

    // Softmax backward per row: ds = a * (da - sum(da * a)).
    for (std::int64_t r = 0; r < l; ++r) {
      const float* arow = attn + r * l;
      const float* darow = g_attn.data() + r * l;
      double dot = 0.0;
      for (std::int64_t i = 0; i < l; ++i) {
        dot += static_cast<double>(arow[i]) * darow[i];
      }
      float* dsrow = g_scores.data() + r * l;
      for (std::int64_t i = 0; i < l; ++i) {
        dsrow[i] = arow[i] * (darow[i] - static_cast<float>(dot));
      }
    }

    // d_q = scale * ds K ; d_k = scale * ds^T Q
    Gemm(false, false, l, head_dim_, l, scale, g_scores.data(), l, k, head_dim_,
         0.0f, g_q.data() + bh * l * head_dim_, head_dim_);
    Gemm(true, false, l, head_dim_, l, scale, g_scores.data(), l, q, head_dim_,
         0.0f, g_k.data() + bh * l * head_dim_, head_dim_);
  }

  // Reassemble d_qkv [B, L, 3D] and run through the qkv projection.
  Tensor g_qkv = Tensor::Empty({b, l, 3 * dim_});
  {
    float* dst = g_qkv.data();
    const float* pq = g_q.data();
    const float* pk = g_k.data();
    const float* pv = g_v.data();
    for (std::int64_t bi = 0; bi < b; ++bi) {
      for (std::int64_t li = 0; li < l; ++li) {
        float* row = dst + (bi * l + li) * 3 * dim_;
        for (std::int64_t h = 0; h < heads_; ++h) {
          const float* sq = pq + ((bi * heads_ + h) * l + li) * head_dim_;
          const float* sk = pk + ((bi * heads_ + h) * l + li) * head_dim_;
          const float* sv = pv + ((bi * heads_ + h) * l + li) * head_dim_;
          for (std::int64_t d = 0; d < head_dim_; ++d) {
            row[h * head_dim_ + d] = sq[d];
            row[dim_ + h * head_dim_ + d] = sk[d];
            row[2 * dim_ + h * head_dim_ + d] = sv[d];
          }
        }
      }
    }
  }
  cached_q_ = cached_k_ = cached_v_ = cached_attn_ = Tensor();
  return qkv_.Backward(g_qkv);
}

std::vector<Param*> MultiHeadSelfAttention::Params() {
  std::vector<Param*> out = qkv_.Params();
  for (Param* p : proj_.Params()) out.push_back(p);
  return out;
}

}  // namespace glsc::nn
