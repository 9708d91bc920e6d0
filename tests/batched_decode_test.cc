// Byte-identity of the batched inference stack — the one path every GLSC
// decode takes, B == 1 included — against independent references:
//
//   Conv2d::Forward               — frame-merged implicit GEMM vs per-frame
//                                   Im2Col + GemmEx, at every ISA level
//   MultiHeadSelfAttention        — workspace forward vs training forward
//   SpaceTimeUNet::Forward(B)     — one pass over B stacked windows vs the
//                                   training forward per window, for the
//                                   latent model and CDC's pixel-space one
//   SampleConditionalBatch        — batched DDIM ladder vs the allocating
//                                   sampler per window
//   VaeHyperprior::DecodeLatent-  — merged decoder convolutions vs the
//                                   allocating decode
//   GlscCompressor::DecompressB.  — the full pipeline, B ∈ {1, 2, 5}, vs
//                                   the decoder written out from the
//                                   allocating pieces (glsc_reference.h),
//                                   fanned out over the pool and inline on a
//                                   pool worker, at every ISA level; a
//                                   record whose window shape does not fit
//                                   the model throws
//
// "Identical" here always means bitwise: batching is a dispatch choice, never
// a quality choice. Untrained weights are fine — the pipeline is
// deterministic, so equality is meaningful without a training run.
//
// The attention and UNet cases compare two forwards that share the
// attention kernel (kernels.attention_head), so they cannot catch an error
// in it; simd_test's SimdAttention case pins that kernel to the GEMM
// composition it replaced.
#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <utility>
#include <vector>

#include "compress/vae.h"
#include "core/container.h"
#include "core/glsc_compressor.h"
#include "core/registry.h"
#include "data/field_generators.h"
#include "diffusion/noise_schedule.h"
#include "diffusion/sampler.h"
#include "diffusion/spacetime_unet.h"
#include "glsc_reference.h"
#include "nn/attention.h"
#include "nn/conv.h"
#include "tensor/gemm.h"
#include "tensor/im2col.h"
#include "tensor/simd/dispatch.h"
#include "tensor/tensor.h"
#include "tensor/workspace.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace glsc {
namespace {

using tensor::Workspace;

void ExpectBytesEqual(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  ASSERT_EQ(0, std::memcmp(a.data(), b.data(),
                           static_cast<std::size_t>(a.numel()) * sizeof(float)))
      << "tensors differ bitwise";
}

// The explicit lowering the forward used before it became an implicit
// GEMM, kept as the reference: per frame, Im2Col into a column matrix, then
// one GemmEx with the bias fused.
Tensor ExplicitLoweringForward(nn::Conv2d& conv, const Tensor& x,
                               std::int64_t kernel, std::int64_t stride,
                               std::int64_t pad) {
  const std::vector<nn::Param*> params = conv.Params();
  const std::int64_t in_c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const std::int64_t out_c = conv.out_channels();
  const std::int64_t oh = ConvOutDim(h, kernel, stride, pad);
  const std::int64_t ow = ConvOutDim(w, kernel, stride, pad);
  const std::int64_t rows = in_c * kernel * kernel;
  std::vector<float> columns(static_cast<std::size_t>(rows * oh * ow));
  std::vector<float> padded(
      static_cast<std::size_t>(Im2ColPadFloats(h, w, pad)));
  Tensor y = Tensor::Empty({x.dim(0), out_c, oh, ow});
  for (std::int64_t f = 0; f < x.dim(0); ++f) {
    Im2Col(x.data() + f * in_c * h * w, in_c, h, w, kernel, kernel, stride,
           pad, columns.data(), padded.data());
    GemmEx(false, false, out_c, oh * ow, rows, 1.0f,
           params[0]->value.data(), rows, columns.data(), oh * ow, 0.0f,
           y.data() + f * out_c * oh * ow, oh * ow, params[1]->value.data(),
           GemmEpilogue::kBiasRow);
  }
  return y;
}

// Conv2d's forward packs GEMM panels straight from padded frames and merges
// frames along N; at every level it must equal the explicit lowering bit
// for bit. The sweep crosses the 256-long K panel (16 channels x 5x5 = 400)
// and the 512-column N block (32x32 frames, and three 17x17 frames).
TEST(BatchedConv, ForwardMatchesExplicitLowering) {
  Rng rng(21);
  int cases = 0;
  for (const simd::IsaLevel level : simd::RunnableLevels()) {
    simd::ScopedIsaOverride override_level(level);
    for (const auto& [in_c, out_c] :
         std::vector<std::pair<std::int64_t, std::int64_t>>{
             {1, 1}, {3, 5}, {16, 16}, {16, 1}}) {
      for (const std::int64_t kernel : {1, 3, 5}) {
        for (const std::int64_t stride : {1, 2}) {
          for (const std::int64_t pad : {0, 1, 2}) {
            nn::Conv2d conv(in_c, out_c, kernel, stride, pad, rng);
            for (const std::int64_t h : {1, 5, 8, 17, 32}) {
              for (const std::int64_t w : {1, 5, 8, 17, 32}) {
                if (ConvOutDim(h, kernel, stride, pad) <= 0 ||
                    ConvOutDim(w, kernel, stride, pad) <= 0) {
                  continue;
                }
                for (const std::int64_t frames : {1, 3}) {
                  const Tensor x = Tensor::Randn({frames, in_c, h, w}, rng);
                  const Tensor ref =
                      ExplicitLoweringForward(conv, x, kernel, stride, pad);
                  Workspace ws;
                  const Tensor got = conv.Forward(x, &ws);
                  SCOPED_TRACE(testing::Message()
                               << simd::IsaName(level) << " C=" << in_c
                               << "->" << out_c << " H=" << h << " W=" << w
                               << " k=" << kernel << " stride=" << stride
                               << " pad=" << pad << " frames=" << frames);
                  ExpectBytesEqual(ref, got);
                  ++cases;
                }
              }
            }
          }
        }
      }
    }
  }
  EXPECT_GT(cases, 2000);
}

TEST(BatchedAttention, WorkspaceForwardMatchesForward) {
  Rng rng(23);
  nn::MultiHeadSelfAttention attn(8, 2, rng);
  for (const std::int64_t batch : {1, 3, 6}) {
    Tensor x = Tensor::Randn({batch, 5, 8}, rng);
    const Tensor ref = attn.Forward(x);
    Workspace ws;
    const Tensor batched = attn.Forward(x, &ws);
    ExpectBytesEqual(ref, batched);
  }
}

TEST(BatchedUNet, StackedWindowsMatchSerialPerWindow) {
  diffusion::UNetConfig latent;
  latent.latent_channels = 4;
  latent.model_channels = 8;
  latent.heads = 2;
  latent.seed = 5;
  // The pixel-space model CDC decodes with: [noisy | condition] in, one
  // channel out, no full-resolution attention; its windows are blocks of 1
  // (per-frame CDC) or more frames (GCD's 3D blocks).
  diffusion::UNetConfig pixel = latent;
  pixel.latent_channels = 1;
  pixel.in_channels = 2;
  pixel.out_channels = 1;
  pixel.stage1_attention = false;

  const struct {
    diffusion::UNetConfig config;
    std::int64_t n;  // frames per window
  } cases[] = {{latent, 6}, {pixel, 1}, {pixel, 4}};
  for (const auto& tc : cases) {
    diffusion::SpaceTimeUNet unet(tc.config);
    const std::int64_t n = tc.n, h = 8, w = 8;
    const std::int64_t in_c = tc.config.EffectiveIn();
    const std::int64_t out_c = tc.config.EffectiveOut();
    Rng rng(31);
    for (const std::int64_t batch : {1, 2, 5}) {
      Tensor stacked = Tensor::Randn({batch * n, in_c, h, w}, rng);
      Workspace ws;
      const Tensor out = unet.Forward(stacked, /*t=*/17, &ws, batch);
      ASSERT_EQ(out.shape(), (Shape{batch * n, out_c, h, w}));
      for (std::int64_t b = 0; b < batch; ++b) {
        // Reference: the training forward on this window alone.
        Tensor window = Tensor::Empty({n, in_c, h, w});
        std::memcpy(window.data(), stacked.data() + b * n * in_c * h * w,
                    static_cast<std::size_t>(n * in_c * h * w) * sizeof(float));
        const Tensor ref = unet.Forward(window, /*t=*/17);
        ASSERT_EQ(0, std::memcmp(ref.data(), out.data() + b * n * out_c * h * w,
                                 static_cast<std::size_t>(n * out_c * h * w) *
                                     sizeof(float)))
            << "in_channels " << in_c << ", frames " << n << ", batch "
            << batch << ", window " << b;
      }
    }
  }
}

TEST(BatchedSampler, MatchesSerialPerWindow) {
  diffusion::UNetConfig config;
  config.latent_channels = 4;
  config.model_channels = 8;
  config.heads = 2;
  config.seed = 7;
  diffusion::SpaceTimeUNet unet(config);
  diffusion::NoiseSchedule schedule(50);
  const std::int64_t steps = 4;

  const std::vector<std::int64_t> key_idx{0, 3, 6, 7};
  const std::int64_t frames = 8;
  const std::int64_t k = static_cast<std::int64_t>(key_idx.size());
  const std::int64_t g = frames - k;
  const std::int64_t c = 4, h = 6, w = 6;

  Rng data_rng(41);
  for (const std::int64_t batch : {1, 2, 5}) {
    Tensor keys = Tensor::Randn({batch * k, c, h, w}, data_rng);
    std::vector<Rng> rng_storage;
    rng_storage.reserve(static_cast<std::size_t>(batch));
    std::vector<Rng*> rngs;
    for (std::int64_t b = 0; b < batch; ++b) {
      rng_storage.emplace_back(100 + static_cast<std::uint64_t>(b));
    }
    for (auto& r : rng_storage) rngs.push_back(&r);

    Workspace ws;
    const Tensor out = diffusion::SampleConditionalBatch(
        &unet, schedule, steps, keys, key_idx, frames, rngs, &ws);
    ASSERT_EQ(out.shape(), (Shape{batch * g, c, h, w}));

    for (std::int64_t b = 0; b < batch; ++b) {
      Tensor window_keys = Tensor::Empty({k, c, h, w});
      std::memcpy(window_keys.data(), keys.data() + b * k * c * h * w,
                  static_cast<std::size_t>(k * c * h * w) * sizeof(float));
      // Reference: the allocating sampler on this window alone.
      Rng serial_rng(100 + static_cast<std::uint64_t>(b));
      const Tensor ref = diffusion::SampleConditional(
          &unet, schedule, steps, window_keys, key_idx, frames, serial_rng);
      ASSERT_EQ(0, std::memcmp(ref.data(), out.data() + b * g * c * h * w,
                               static_cast<std::size_t>(g * c * h * w) *
                                   sizeof(float)))
          << "batch " << batch << ", window " << b;
    }
  }
}

TEST(BatchedVae, DecodeLatentBatchedMatchesSerial) {
  compress::VaeConfig config;
  config.latent_channels = 4;
  config.hidden_channels = 6;
  config.hyper_channels = 2;
  config.seed = 3;
  compress::VaeHyperprior vae(config);

  Rng rng(51);
  for (const std::int64_t frames : {1, 4, 10}) {
    Tensor y = Tensor::Randn({frames, 4, 4, 4}, rng);
    const Tensor ref = vae.DecodeLatent(y);
    Workspace ws;
    const Tensor batched = vae.DecodeLatentBatched(y, &ws);
    ExpectBytesEqual(ref, batched);
  }
}

// ---------------------------------------------------------------------------
// Full pipeline: DecompressBatch vs the allocating reference decoder, window
// by window.
// ---------------------------------------------------------------------------

core::GlscConfig SmallGlscConfig() {
  core::GlscConfig config;
  config.vae.latent_channels = 4;
  config.vae.hidden_channels = 6;
  config.vae.hyper_channels = 2;
  config.vae.seed = 3;
  config.unet.latent_channels = 4;
  config.unet.model_channels = 8;
  config.unet.heads = 2;
  config.unet.seed = 5;
  config.schedule_steps = 40;
  config.window = 8;
  config.interval = 3;
  config.sample_steps = 3;
  return config;
}

TEST(BatchedGlsc, DecompressBatchMatchesSerialDecompress) {
  core::GlscCompressor glsc(SmallGlscConfig());

  data::FieldSpec spec;
  spec.frames = 40;  // five 8-frame windows
  spec.height = 16;
  spec.width = 16;
  spec.seed = 99;
  const Tensor field = data::GenerateClimate(spec);  // [1, 40, 16, 16]

  // tau > 0 requires a fitted correction basis; 2 windows is plenty for an
  // identity test (the basis just has to exist and be used on both paths).
  data::SequenceDataset dataset(field.Clone());
  core::FitPcaFromResiduals(&glsc, dataset, /*fit_windows=*/2, /*crop=*/16);

  std::vector<core::CompressedWindow> compressed;
  for (std::int64_t w = 0; w < 5; ++w) {
    Tensor window = Tensor::Empty({8, 16, 16});
    std::memcpy(window.data(), field.data() + w * 8 * 16 * 16,
                static_cast<std::size_t>(8 * 16 * 16) * sizeof(float));
    // tau > 0 so some windows carry PCA corrections — the batch path must
    // apply them per window exactly like the serial path.
    compressed.push_back(glsc.Compress(window, /*tau=*/0.5));
  }

  // The decode spreads a batch's windows (sampler) and frames (VAE) over the
  // global pool: from the test thread the pieces fan out, from inside a pool
  // task they run inline. Every level, since the ISA override is
  // process-wide and helper threads must decode at the caller's level.
  for (const simd::IsaLevel level : simd::RunnableLevels()) {
    simd::ScopedIsaOverride override_level(level);
    std::vector<Tensor> refs;
    for (const auto& cw : compressed) {
      refs.push_back(ReferenceDecompress(&glsc, cw));
    }
    // The single-window entry point is a batch of one.
    ExpectBytesEqual(refs[0], glsc.Decompress(compressed[0]));

    for (const std::size_t batch : {std::size_t{1}, std::size_t{2},
                                    std::size_t{5}}) {
      SCOPED_TRACE(testing::Message()
                   << simd::IsaName(level) << " B=" << batch);
      std::vector<const core::CompressedWindow*> views;
      for (std::size_t i = 0; i < batch; ++i) views.push_back(&compressed[i]);
      Workspace ws;
      const std::vector<Tensor> got = glsc.DecompressBatch(views, 0, &ws);
      ASSERT_EQ(got.size(), batch);
      for (std::size_t i = 0; i < batch; ++i) {
        EXPECT_FALSE(got[i].borrowed());  // arena memory must not escape
        ExpectBytesEqual(refs[i], got[i]);
      }
      // Null workspace (local arena) on a pool worker, where the pieces run
      // inline, must give the same bytes.
      const auto on_worker = [&] { return glsc.DecompressBatch(views); };
      const std::vector<Tensor> local =
          GlobalThreadPool().Submit(on_worker).get();
      ASSERT_EQ(local.size(), batch);
      for (std::size_t i = 0; i < batch; ++i) {
        ExpectBytesEqual(refs[i], local[i]);
      }
    }
  }
}

// The window shape is read from the payload and sizes the decode's output
// and its frame pieces, so a record whose shape does not fit the model must
// fail with a typed error before anything is read or written through it.
TEST(BatchedGlsc, HostileWindowShapeThrows) {
  core::GlscCompressor glsc(SmallGlscConfig());  // 8-frame windows
  data::FieldSpec spec;
  spec.frames = 8;
  spec.height = 16;
  spec.width = 16;
  spec.seed = 7;
  const Tensor field = data::GenerateClimate(spec);  // [1, 8, 16, 16]
  const core::CompressedWindow good =
      glsc.Compress(field.Reshape({8, 16, 16}), /*tau=*/0.0);

  for (const Shape& shape : std::vector<Shape>{
           {0, 16, 16}, {9, 16, 16}, {8, 32, 16}, {8, 16, 8}, {8, 256}}) {
    SCOPED_TRACE(ShapeToString(shape));
    core::CompressedWindow bad = good;
    bad.window_shape = shape;
    ByteWriter writer;
    core::SerializeWindow(bad, &writer);
    const std::vector<std::uint8_t> payload = writer.Release();
    ByteReader reader(payload);
    const core::CompressedWindow parsed = core::DeserializeWindow(&reader);
    ASSERT_EQ(parsed.window_shape, shape);
    EXPECT_THROW(glsc.Decompress(parsed), std::runtime_error);
    EXPECT_THROW(glsc.DecompressBatch({&parsed, &parsed, &parsed}),
                 std::runtime_error);
  }
}

}  // namespace
}  // namespace glsc
