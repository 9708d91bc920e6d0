#include "diffusion/spacetime_unet.h"

#include <algorithm>

#include "nn/embedding.h"
#include "tensor/ops.h"

namespace glsc::diffusion {
namespace {

// GroupNorm group count: at most 8, and always a divisor of the channel count.
std::int64_t GroupsFor(std::int64_t channels) {
  for (std::int64_t g = std::min<std::int64_t>(8, channels); g > 1; --g) {
    if (channels % g == 0) return g;
  }
  return 1;
}

}  // namespace

ResBlock::ResBlock(std::int64_t channels, std::int64_t temb_dim, Rng& rng,
                   const std::string& name)
    : channels_(channels),
      gn1_(GroupsFor(channels), channels, name + ".gn1"),
      gn2_(GroupsFor(channels), channels, name + ".gn2"),
      conv1_(channels, channels, 3, 1, 1, rng, name + ".conv1"),
      conv2_(channels, channels, 3, 1, 1, rng, name + ".conv2"),
      temb_proj_(temb_dim, channels, rng, /*bias=*/true, name + ".temb_proj") {}

Tensor ResBlock::Forward(const Tensor& x, const Tensor& temb) {
  cached_x_shape_ = x.shape();
  Tensor h = conv1_.Forward(act1_.Forward(gn1_.Forward(x)));
  // Per-channel time-embedding shift, broadcast over frames and pixels.
  const Tensor p = temb_proj_.Forward(act_temb_.Forward(temb));  // [1, C]
  const std::int64_t frames = h.dim(0);
  const std::int64_t hw = h.dim(2) * h.dim(3);
  float* ph = h.data();
  const float* pp = p.data();
  for (std::int64_t n = 0; n < frames; ++n) {
    for (std::int64_t c = 0; c < channels_; ++c) {
      const float shift = pp[c];
      float* row = ph + (n * channels_ + c) * hw;
      for (std::int64_t i = 0; i < hw; ++i) row[i] += shift;
    }
  }
  Tensor k = conv2_.Forward(act2_.Forward(gn2_.Forward(h)));
  return Add(x, k);
}

Tensor ResBlock::Forward(const Tensor& x, const Tensor& temb,
                         tensor::Workspace* ws) {
  Tensor out = ws->NewTensor(x.shape());
  tensor::Workspace::Scope scope(ws);  // rewinds every temporary below
  Tensor h = gn1_.Forward(x, ws);
  act1_.ForwardInPlace(&h);
  h = conv1_.Forward(h, ws);
  const Tensor p =
      temb_proj_.Forward(act_temb_.Forward(temb, ws), ws);  // [1, C]
  const std::int64_t frames = h.dim(0);
  const std::int64_t hw = h.dim(2) * h.dim(3);
  float* ph = h.data();
  const float* pp = p.data();
  for (std::int64_t n = 0; n < frames; ++n) {
    for (std::int64_t c = 0; c < channels_; ++c) {
      const float shift = pp[c];
      float* row = ph + (n * channels_ + c) * hw;
      for (std::int64_t i = 0; i < hw; ++i) row[i] += shift;
    }
  }
  Tensor k = gn2_.Forward(h, ws);
  act2_.ForwardInPlace(&k);
  k = conv2_.Forward(k, ws);
  // Residual: x + k, the same sum Add forms in the training forward.
  const float* px = x.data();
  const float* pk = k.data();
  float* po = out.data();
  for (std::int64_t i = 0; i < out.numel(); ++i) po[i] = px[i] + pk[i];
  return out;
}

Tensor ResBlock::Backward(const Tensor& grad_out, Tensor* grad_temb) {
  Tensor gh2 = gn2_.Backward(act2_.Backward(conv2_.Backward(grad_out)));

  // Gradient of the broadcast temb shift: sum over frames and pixels.
  Tensor gp = Tensor::Empty({1, channels_});  // fully written below
  {
    const std::int64_t frames = gh2.dim(0);
    const std::int64_t hw = gh2.dim(2) * gh2.dim(3);
    const float* pg = gh2.data();
    float* out = gp.data();
    for (std::int64_t c = 0; c < channels_; ++c) {
      double s = 0.0;
      for (std::int64_t n = 0; n < frames; ++n) {
        const float* row = pg + (n * channels_ + c) * hw;
        for (std::int64_t i = 0; i < hw; ++i) s += row[i];
      }
      out[c] = static_cast<float>(s);
    }
  }
  const Tensor ge = act_temb_.Backward(temb_proj_.Backward(gp));
  Axpy(1.0f, ge, grad_temb);

  Tensor gx = gn1_.Backward(act1_.Backward(conv1_.Backward(gh2)));
  Axpy(1.0f, grad_out, &gx);  // residual path
  return gx;
}

std::vector<nn::Param*> ResBlock::Params() {
  std::vector<nn::Param*> out;
  for (auto* layer : std::initializer_list<nn::Layer*>{
           &gn1_, &conv1_, &temb_proj_, &gn2_, &conv2_}) {
    for (nn::Param* p : layer->Params()) out.push_back(p);
  }
  return out;
}

SpatialAttentionBlock::SpatialAttentionBlock(std::int64_t channels,
                                             std::int64_t heads, Rng& rng,
                                             const std::string& name)
    : norm_(channels, name + ".ln"), attn_(channels, heads, rng, name) {}

Tensor SpatialAttentionBlock::Forward(const Tensor& x) {
  GLSC_CHECK(x.rank() == 4);
  cached_shape_ = x.shape();
  const std::int64_t n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  // [N, C, H, W] -> [N, H*W, C]
  Tensor seq = x.Permute({0, 2, 3, 1}).Reshape({n, h * w, c});
  Tensor out = attn_.Forward(norm_.Forward(seq));
  Tensor back = out.Reshape({n, h, w, c}).Permute({0, 3, 1, 2});
  return Add(x, back);
}

Tensor SpatialAttentionBlock::Forward(const Tensor& x, tensor::Workspace* ws) {
  GLSC_CHECK(x.rank() == 4);
  const std::int64_t n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  Tensor out = ws->NewTensor(x.shape());
  {
    tensor::Workspace::Scope scope(ws);  // rewinds the sequence temporaries
    Tensor seq = x.Permute({0, 2, 3, 1}, ws).Reshape({n, h * w, c});
    norm_.ForwardInPlace(&seq);  // seq is ours; LayerNorm is in-place safe
    attn_.Forward(seq, ws).Reshape({n, h, w, c}).PermuteInto({0, 3, 1, 2},
                                                               &out);
  }
  Axpy(1.0f, x, &out);  // residual
  return out;
}

Tensor SpatialAttentionBlock::Backward(const Tensor& grad_out) {
  const std::int64_t n = cached_shape_[0], c = cached_shape_[1],
                     h = cached_shape_[2], w = cached_shape_[3];
  Tensor g_seq =
      grad_out.Permute({0, 2, 3, 1}).Reshape({n, h * w, c});
  Tensor g_in_seq = norm_.Backward(attn_.Backward(g_seq));
  Tensor g = g_in_seq.Reshape({n, h, w, c}).Permute({0, 3, 1, 2});
  Axpy(1.0f, grad_out, &g);  // residual path
  return g;
}

std::vector<nn::Param*> SpatialAttentionBlock::Params() {
  std::vector<nn::Param*> out = norm_.Params();
  for (nn::Param* p : attn_.Params()) out.push_back(p);
  return out;
}

TemporalAttentionBlock::TemporalAttentionBlock(std::int64_t channels,
                                               std::int64_t heads, Rng& rng,
                                               const std::string& name)
    : norm_(channels, name + ".ln"), attn_(channels, heads, rng, name) {}

Tensor TemporalAttentionBlock::Forward(const Tensor& x) {
  GLSC_CHECK(x.rank() == 4);
  cached_shape_ = x.shape();
  const std::int64_t n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  // [N, C, H, W] -> [H, W, N, C] -> [H*W, N, C]: attention along frames.
  Tensor seq = x.Permute({2, 3, 0, 1}).Reshape({h * w, n, c});
  Tensor out = attn_.Forward(norm_.Forward(seq));
  Tensor back = out.Reshape({h, w, n, c}).Permute({2, 3, 0, 1});
  return Add(x, back);
}

Tensor TemporalAttentionBlock::Forward(const Tensor& x,
                                       tensor::Workspace* ws) {
  return ForwardBatchedWindows(x, /*windows=*/1, ws);
}

Tensor TemporalAttentionBlock::ForwardBatchedWindows(const Tensor& x,
                                                     std::int64_t windows,
                                                     tensor::Workspace* ws) {
  GLSC_CHECK(x.rank() == 4);
  const std::int64_t bn = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  GLSC_CHECK_MSG(windows >= 1 && bn % windows == 0,
                 "dim0 " << bn << " not a multiple of windows " << windows);
  const std::int64_t n = bn / windows;
  // [B*N, C, H, W] -> [B, H, W, N, C] -> [B*H*W, N, C]: each window's frames
  // form their own length-N sequence, so attention never crosses windows.
  // The permutation {0,3,4,1,2} is self-inverse, and for B == 1 it moves
  // memory exactly like the rank-4 {2,3,0,1} of the training forward.
  Tensor out = ws->NewTensor(x.shape());
  {
    tensor::Workspace::Scope scope(ws);  // rewinds the sequence temporaries
    Tensor seq = x.Reshape({windows, n, c, h, w})
                     .Permute({0, 3, 4, 1, 2}, ws)
                     .Reshape({windows * h * w, n, c});
    norm_.ForwardInPlace(&seq);
    Tensor out5 = out.Reshape({windows, n, c, h, w});
    attn_.Forward(seq, ws).Reshape({windows, h, w, n, c})
        .PermuteInto({0, 3, 4, 1, 2}, &out5);
  }
  Axpy(1.0f, x, &out);
  return out;
}

Tensor TemporalAttentionBlock::Backward(const Tensor& grad_out) {
  const std::int64_t n = cached_shape_[0], c = cached_shape_[1],
                     h = cached_shape_[2], w = cached_shape_[3];
  Tensor g_seq = grad_out.Permute({2, 3, 0, 1}).Reshape({h * w, n, c});
  Tensor g_in_seq = norm_.Backward(attn_.Backward(g_seq));
  Tensor g = g_in_seq.Reshape({h, w, n, c}).Permute({2, 3, 0, 1});
  Axpy(1.0f, grad_out, &g);
  return g;
}

std::vector<nn::Param*> TemporalAttentionBlock::Params() {
  std::vector<nn::Param*> out = norm_.Params();
  for (nn::Param* p : attn_.Params()) out.push_back(p);
  return out;
}

SpaceTimeUNet::SpaceTimeUNet(const UNetConfig& config)
    : config_(config),
      rng_storage_(std::make_unique<Rng>(config.seed)),
      temb_fc1_(config.model_channels, config.model_channels, *rng_storage_,
                true, "unet.temb.fc1"),
      temb_fc2_(config.model_channels, config.model_channels, *rng_storage_,
                true, "unet.temb.fc2"),
      conv_in_(config.EffectiveIn(), config.model_channels, 3, 1, 1,
               *rng_storage_, "unet.conv_in"),
      res1_(config.model_channels, config.model_channels, *rng_storage_,
            "unet.res1"),
      sattn1_(config.model_channels, config.heads, *rng_storage_,
              "unet.sattn1"),
      tattn1_(config.model_channels, config.heads, *rng_storage_,
              "unet.tattn1"),
      down_(config.model_channels, config.model_channels, 3, 2, 1,
            *rng_storage_, "unet.down"),
      res2_(config.model_channels, config.model_channels, *rng_storage_,
            "unet.res2"),
      sattn2_(config.model_channels, config.heads, *rng_storage_,
              "unet.sattn2"),
      tattn2_(config.model_channels, config.heads, *rng_storage_,
              "unet.tattn2"),
      up_conv_(config.model_channels, config.model_channels, 3, 1, 1,
               *rng_storage_, "unet.up_conv"),
      res3_(config.model_channels, config.model_channels, *rng_storage_,
            "unet.res3"),
      gn_out_(GroupsFor(config.model_channels), config.model_channels,
              "unet.gn_out"),
      conv_out_(config.model_channels, config.EffectiveOut(), 3, 1, 1,
                *rng_storage_, "unet.conv_out") {
  // Zero-init the final convolution: the network starts as an identity-noise
  // predictor near zero, which stabilizes early diffusion training.
  for (nn::Param* p : conv_out_.Params()) p->value.Zero();
}

Tensor SpaceTimeUNet::Forward(const Tensor& y_t, std::int64_t t) {
  GLSC_CHECK(y_t.rank() == 4 && y_t.dim(1) == config_.EffectiveIn());
  GLSC_CHECK_MSG(y_t.dim(2) % 2 == 0 && y_t.dim(3) % 2 == 0,
                 "latent H,W must be even for the down/up pair");

  // Time embedding shared by all ResBlocks: [1, Cm].
  Tensor sin_emb = nn::SinusoidalTimeEmbedding(t, config_.model_channels)
                       .Reshape({1, config_.model_channels});
  temb_ = temb_fc2_.Forward(temb_act_.Forward(temb_fc1_.Forward(sin_emb)));

  Tensor h0 = conv_in_.Forward(y_t);
  Tensor h1 = res1_.Forward(h0, temb_);
  if (config_.stage1_attention) {
    h1 = tattn1_.Forward(sattn1_.Forward(h1));
  }
  Tensor h2 = down_.Forward(h1);
  h2 = res2_.Forward(h2, temb_);
  h2 = tattn2_.Forward(sattn2_.Forward(h2));
  Tensor u = up_conv_.Forward(up_.Forward(h2));
  Tensor s = Add(u, h1);  // skip connection
  Tensor h3 = res3_.Forward(s, temb_);
  return conv_out_.Forward(act_out_.Forward(gn_out_.Forward(h3)));
}

Tensor SpaceTimeUNet::Forward(const Tensor& y_t, std::int64_t t,
                              tensor::Workspace* ws, std::int64_t windows) {
  GLSC_CHECK(y_t.rank() == 4 && y_t.dim(1) == config_.EffectiveIn());
  GLSC_CHECK_MSG(y_t.dim(2) % 2 == 0 && y_t.dim(3) % 2 == 0,
                 "latent H,W must be even for the down/up pair");
  GLSC_CHECK_MSG(windows >= 1 && y_t.dim(0) % windows == 0,
                 "dim0 " << y_t.dim(0) << " not a multiple of windows "
                         << windows);

  // One time embedding serves every window: all windows share the same
  // config-determined DDIM ladder, hence the same t.
  Tensor temb =
      nn::SinusoidalTimeEmbedding(t, config_.model_channels, ws)
          .Reshape({1, config_.model_channels});
  temb = temb_fc1_.Forward(temb, ws);
  temb_act_.ForwardInPlace(&temb);
  temb = temb_fc2_.Forward(temb, ws);

  Tensor h0 = conv_in_.Forward(y_t, ws);
  Tensor h1 = res1_.Forward(h0, temb, ws);
  if (config_.stage1_attention) {
    h1 = tattn1_.ForwardBatchedWindows(sattn1_.Forward(h1, ws), windows, ws);
  }
  Tensor h2 = down_.Forward(h1, ws);
  h2 = res2_.Forward(h2, temb, ws);
  h2 = tattn2_.ForwardBatchedWindows(sattn2_.Forward(h2, ws), windows, ws);
  Tensor u = up_conv_.Forward(up_.Forward(h2, ws), ws);
  Axpy(1.0f, h1, &u);  // skip connection
  Tensor h3 = res3_.Forward(u, temb, ws);
  Tensor g = gn_out_.Forward(h3, ws);
  act_out_.ForwardInPlace(&g);
  return conv_out_.Forward(g, ws);
}

Tensor SpaceTimeUNet::Backward(const Tensor& grad_out) {
  Tensor g_temb({1, config_.model_channels});

  Tensor g_h3 = gn_out_.Backward(act_out_.Backward(conv_out_.Backward(grad_out)));
  Tensor g_s = res3_.Backward(g_h3, &g_temb);
  // Skip: gradient flows to both the upsampled branch and h1.
  Tensor g_u = g_s;
  Tensor g_h2 = up_.Backward(up_conv_.Backward(g_u));
  g_h2 = sattn2_.Backward(tattn2_.Backward(g_h2));
  g_h2 = res2_.Backward(g_h2, &g_temb);
  Tensor g_h1 = down_.Backward(g_h2);
  Axpy(1.0f, g_s, &g_h1);  // skip contribution
  if (config_.stage1_attention) {
    g_h1 = sattn1_.Backward(tattn1_.Backward(g_h1));
  }
  Tensor g_h0 = res1_.Backward(g_h1, &g_temb);
  Tensor g_in = conv_in_.Backward(g_h0);

  // Time-embedding MLP backward (sin embedding itself has no params).
  temb_fc1_.Backward(temb_act_.Backward(temb_fc2_.Backward(g_temb)));
  return g_in;
}

std::vector<nn::Param*> SpaceTimeUNet::Params() {
  std::vector<nn::Param*> out;
  auto append = [&out](std::vector<nn::Param*> ps) {
    out.insert(out.end(), ps.begin(), ps.end());
  };
  append(temb_fc1_.Params());
  append(temb_fc2_.Params());
  append(conv_in_.Params());
  append(res1_.Params());
  if (config_.stage1_attention) {
    append(sattn1_.Params());
    append(tattn1_.Params());
  }
  append(down_.Params());
  append(res2_.Params());
  append(sattn2_.Params());
  append(tattn2_.Params());
  append(up_conv_.Params());
  append(res3_.Params());
  append(gn_out_.Params());
  append(conv_out_.Params());
  return out;
}

void SpaceTimeUNet::Save(ByteWriter* out) { nn::SaveParams(Params(), out); }
void SpaceTimeUNet::Load(ByteReader* in) { nn::LoadParams(Params(), in); }

}  // namespace glsc::diffusion
