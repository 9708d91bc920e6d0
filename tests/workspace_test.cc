// Workspace arena + workspace inference path tests: arena mechanics
// (alignment, scoped rewind, cached-slab reuse, stats), borrowed-storage
// Tensor semantics, and byte-identity of every workspace-aware Forward /
// decode path against the allocating reference — at both dispatch
// registrations (native + _scalar).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "api/adapters.h"
#include "core/archive_reader.h"
#include "core/container.h"
#include "core/glsc_compressor.h"
#include "data/field_generators.h"
#include "diffusion/sampler.h"
#include "glsc_reference.h"
#include "nn/activations.h"
#include "nn/attention.h"
#include "nn/conv.h"
#include "nn/linear.h"
#include "nn/norm.h"
#include "tensor/ops.h"
#include "tensor/workspace.h"

namespace glsc {
namespace {

using tensor::Workspace;

void ExpectBytesEqual(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  ASSERT_EQ(0, std::memcmp(a.data(), b.data(),
                           static_cast<std::size_t>(a.numel()) * sizeof(float)))
      << "tensors differ bitwise";
}

// ---------------------------------------------------------------------------
// Arena mechanics.
// ---------------------------------------------------------------------------

TEST(WorkspaceTest, AllocationsAreAligned) {
  Workspace ws;
  for (const std::int64_t n : {1, 3, 17, 1000}) {
    float* p = ws.Allocate(n);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 64, 0u);
    p[0] = 1.0f;  // must be writable
    p[n - 1] = 2.0f;
  }
  EXPECT_EQ(ws.stats().borrows, 4);
  EXPECT_EQ(ws.stats().slab_allocations, 1);  // everything fits slab 0
}

TEST(WorkspaceTest, ScopeRewindsBumpState) {
  Workspace ws;
  ws.Allocate(100);
  const std::int64_t outer = ws.bytes_in_use();
  {
    Workspace::Scope scope(&ws);
    ws.Allocate(5000);
    EXPECT_GT(ws.bytes_in_use(), outer);
  }
  EXPECT_EQ(ws.bytes_in_use(), outer);
  // Null workspace: scope is a no-op.
  Workspace::Scope noop(nullptr);
}

TEST(WorkspaceTest, SlabsAreCachedAcrossScopes) {
  Workspace ws;
  // Force growth past the first slab.
  {
    Workspace::Scope scope(&ws);
    ws.Allocate(1 << 20);  // 4 MiB of floats
    ws.Allocate(1 << 20);
  }
  const std::int64_t grown = ws.stats().slab_allocations;
  EXPECT_GE(grown, 1);
  // Steady state: the same allocation pattern reuses the cached slabs.
  for (int round = 0; round < 5; ++round) {
    Workspace::Scope scope(&ws);
    ws.Allocate(1 << 20);
    ws.Allocate(1 << 20);
  }
  EXPECT_EQ(ws.stats().slab_allocations, grown);
  EXPECT_EQ(ws.bytes_in_use(), 0);
  EXPECT_GE(ws.stats().peak_bytes, 8 << 20);
}

TEST(WorkspaceTest, NestedScopesRewindInOrder) {
  Workspace ws;
  ws.Allocate(16);
  const std::int64_t base = ws.bytes_in_use();
  {
    Workspace::Scope outer(&ws);
    ws.Allocate(1024);
    const std::int64_t mid = ws.bytes_in_use();
    {
      Workspace::Scope inner(&ws);
      ws.Allocate(1 << 21);  // grows into a second slab
      ws.Allocate(64);
    }
    EXPECT_EQ(ws.bytes_in_use(), mid);
    // Allocations after an inner rewind land back in the cached slabs.
    ws.Allocate(1 << 21);
  }
  EXPECT_EQ(ws.bytes_in_use(), base);
}

TEST(WorkspaceTest, FilteredArchiveDecodeStaysZeroAllocAtSteadyState) {
  // The v4 container routes filter/LZ scratch through the workspace; the
  // zero-heap steady-state invariant must survive a filtered-record decode
  // loop exactly as it does for the inference paths below.
  Rng rng(23);
  std::vector<data::FrameNorm> norms(1 * 16);
  for (auto& n : norms) {
    n.mean = rng.NormalF();
    n.range = 1.0f + rng.UniformF();
  }
  core::DatasetArchive archive("sz", {1, 16, 8, 8}, 8, norms);
  for (std::int64_t t0 = 0; t0 < 16; t0 += 8) {
    std::vector<std::uint8_t> payload(3000);
    for (std::size_t i = 0; i < payload.size(); ++i) {
      payload[i] = static_cast<std::uint8_t>(i / 9 + rng.UniformInt(2));
    }
    archive.Add(0, t0, 8, std::move(payload));
  }
  const auto reader = core::ArchiveReader::FromBytes(archive.Serialize());
  Workspace ws;
  std::vector<std::uint8_t> out;
  for (std::size_t i = 0; i < reader.records().size(); ++i) {
    ASSERT_FALSE(reader.records()[i].filter.IsRaw());
    reader.Payload(i, &out, &ws);
  }
  const std::int64_t slabs = ws.stats().slab_allocations;
  const std::int64_t borrows = ws.stats().borrows;
  for (int pass = 0; pass < 16; ++pass) {
    for (std::size_t i = 0; i < reader.records().size(); ++i) {
      reader.Payload(i, &out, &ws);
    }
  }
  EXPECT_EQ(ws.stats().slab_allocations, slabs)
      << "filtered decode allocated new slabs at steady state";
  EXPECT_GT(ws.stats().borrows, borrows);  // scratch really went through ws
}

TEST(WorkspaceTest, NewTensorAndNewZeroed) {
  Workspace ws;
  Tensor t = ws.NewTensor({4, 5});
  EXPECT_TRUE(t.defined());
  EXPECT_TRUE(t.borrowed());
  t.Fill(3.0f);
  Tensor z = ws.NewZeroed({8});
  for (std::int64_t i = 0; i < z.numel(); ++i) EXPECT_EQ(z[i], 0.0f);
  // Clone lifts a borrowed view into owned storage.
  Tensor owned = t.Clone();
  EXPECT_FALSE(owned.borrowed());
  ExpectBytesEqual(t, owned);
}

TEST(WorkspaceTest, MovedFromTensorIsUndefined) {
  Tensor a = Tensor::Full({4}, 2.0f);
  Tensor b = std::move(a);
  // The source must read as default-constructed — a stale ptr_ here would be
  // a silent use-after-free once b releases the storage.
  EXPECT_FALSE(a.defined());  // NOLINT(bugprone-use-after-move): the contract
  EXPECT_EQ(a.data(), nullptr);
  EXPECT_TRUE(b.defined());
  EXPECT_FLOAT_EQ(b[3], 2.0f);
  a = std::move(b);
  EXPECT_FALSE(b.defined());  // NOLINT(bugprone-use-after-move): the contract
  EXPECT_TRUE(a.defined());
}

TEST(WorkspaceTest, TensorEmptyIsOwnedAndWritable) {
  Tensor t = Tensor::Empty({3, 7});
  EXPECT_TRUE(t.defined());
  EXPECT_FALSE(t.borrowed());
  t.Fill(1.5f);
  EXPECT_FLOAT_EQ(t.MinValue(), 1.5f);
  // Reshape shares storage for borrowed and owned tensors alike.
  Tensor r = t.Reshape({7, 3});
  EXPECT_EQ(r.data(), t.data());
}

// ---------------------------------------------------------------------------
// Layer-level byte identity: Forward(x, ws) == Forward(x, false).
// ---------------------------------------------------------------------------

TEST(WorkspaceNnTest, DenseForwardMatches) {
  Rng rng(11);
  nn::Dense dense(12, 20, rng, /*bias=*/true, "ws.dense");
  const Tensor x = Tensor::Randn({5, 12}, rng);
  const Tensor ref = dense.Forward(x, /*training=*/false);
  Workspace ws;
  const Tensor got = dense.Forward(x, &ws);
  EXPECT_TRUE(got.borrowed());
  ExpectBytesEqual(ref, got);
}

TEST(WorkspaceNnTest, Conv2dForwardMatchesAndScratchPersists) {
  Rng rng(13);
  nn::Conv2d conv(3, 6, 3, 1, 1, rng, "ws.conv");
  const Tensor x = Tensor::Randn({2, 3, 16, 16}, rng);
  const Tensor ref = conv.Forward(x, /*training=*/false);
  Workspace ws;
  for (int round = 0; round < 3; ++round) {
    Workspace::Scope scope(&ws);
    const Tensor got = conv.Forward(x, &ws);
    ExpectBytesEqual(ref, got);
  }
  // Shape changes only ever grow the cached padding and staging scratch.
  const Tensor small = Tensor::Randn({1, 3, 8, 8}, rng);
  Workspace::Scope scope(&ws);
  const Tensor got_small = conv.Forward(small, &ws);
  ExpectBytesEqual(conv.Forward(small, false), got_small);
}

TEST(WorkspaceNnTest, Conv2dBackwardSharesForwardScratch) {
  // Two identically-seeded convs must produce identical grads whether or not
  // the instance's scratch was pre-grown by earlier calls.
  Rng rng_a(17), rng_b(17);
  nn::Conv2d warm(3, 4, 3, 2, 1, rng_a, "ws.conv.warm");
  nn::Conv2d cold(3, 4, 3, 2, 1, rng_b, "ws.conv.cold");
  Rng data_rng(23);
  const Tensor x = Tensor::Randn({2, 3, 16, 16}, data_rng);
  const Tensor g = Tensor::Full({2, 4, 8, 8}, 0.5f);

  // Warm up the scratch with a different geometry first.
  const Tensor other = Tensor::Randn({1, 3, 8, 8}, data_rng);
  warm.Forward(other, true);
  warm.Backward(Tensor::Full({1, 4, 4, 4}, 1.0f));

  warm.Forward(x, true);
  const Tensor grad_warm = warm.Backward(g);
  cold.Forward(x, true);
  const Tensor grad_cold = cold.Backward(g);
  ExpectBytesEqual(grad_cold, grad_warm);
}

TEST(WorkspaceNnTest, AttentionForwardMatches) {
  Rng rng(19);
  nn::MultiHeadSelfAttention attn(16, 4, rng, "ws.attn");
  const Tensor x = Tensor::Randn({3, 10, 16}, rng);
  const Tensor ref = attn.Forward(x, /*training=*/false);
  attn.Backward(Tensor::Zeros(ref.shape()));  // clear the forward cache
  Workspace ws;
  const Tensor got = attn.Forward(x, &ws);
  ExpectBytesEqual(ref, got);
}

TEST(WorkspaceNnTest, NormsMatchIncludingInPlace) {
  Rng rng(29);
  nn::GroupNorm gn(2, 6, "ws.gn");
  const Tensor x4 = Tensor::Randn({2, 6, 5, 5}, rng);
  const Tensor gn_ref = gn.Forward(x4, /*training=*/false);
  Workspace ws;
  ExpectBytesEqual(gn_ref, gn.Forward(x4, &ws));
  Tensor gn_inplace = x4.Clone();
  ASSERT_TRUE(gn.ForwardInPlace(&gn_inplace));
  ExpectBytesEqual(gn_ref, gn_inplace);

  nn::LayerNorm ln(8, "ws.ln");
  const Tensor x3 = Tensor::Randn({4, 6, 8}, rng);
  const Tensor ln_ref = ln.Forward(x3, /*training=*/false);
  ExpectBytesEqual(ln_ref, ln.Forward(x3, &ws));
  Tensor ln_inplace = x3.Clone();
  ASSERT_TRUE(ln.ForwardInPlace(&ln_inplace));
  ExpectBytesEqual(ln_ref, ln_inplace);
}

TEST(WorkspaceNnTest, ActivationsMatchIncludingInPlace) {
  Rng rng(31);
  const Tensor x = Tensor::Randn({64}, rng);
  Workspace ws;

  nn::SiLU silu;
  const Tensor silu_ref = silu.Forward(x, /*training=*/false);
  ExpectBytesEqual(silu_ref, silu.Forward(x, &ws));
  Tensor silu_inplace = x.Clone();
  ASSERT_TRUE(silu.ForwardInPlace(&silu_inplace));
  ExpectBytesEqual(silu_ref, silu_inplace);

  nn::Tanh tanh_layer;
  const Tensor tanh_ref = tanh_layer.Forward(x, /*training=*/false);
  Tensor tanh_inplace = x.Clone();
  ASSERT_TRUE(tanh_layer.ForwardInPlace(&tanh_inplace));
  ExpectBytesEqual(tanh_ref, tanh_inplace);

  nn::FixedScale scale(2.5f);
  const Tensor scale_ref = scale.Forward(x, /*training=*/false);
  Tensor scale_inplace = x.Clone();
  ASSERT_TRUE(scale.ForwardInPlace(&scale_inplace));
  ExpectBytesEqual(scale_ref, scale_inplace);
}

TEST(WorkspaceNnTest, SequentialChainMatches) {
  Rng rng(37);
  nn::Sequential seq;
  seq.Emplace<nn::Conv2d>(2, 4, 3, 1, 1, rng, "ws.seq.conv1");
  seq.Emplace<nn::SiLU>();
  seq.Emplace<nn::GroupNorm>(2, 4, "ws.seq.gn");
  seq.Emplace<nn::Conv2d>(4, 2, 3, 1, 1, rng, "ws.seq.conv2");
  const Tensor x = Tensor::Randn({2, 2, 8, 8}, rng);
  const Tensor ref = seq.Forward(x, /*training=*/false);
  Workspace ws;
  const Tensor got = seq.Forward(x, &ws);
  ExpectBytesEqual(ref, got);
  // The chain's in-place steps must never touch the caller's input.
  const Tensor x_again = x.Clone();
  ExpectBytesEqual(x_again, x);
}

// ---------------------------------------------------------------------------
// Diffusion stack byte identity + no steady-state workspace slab growth.
// ---------------------------------------------------------------------------

diffusion::UNetConfig SmallUNetConfig() {
  diffusion::UNetConfig config;
  config.latent_channels = 4;
  config.model_channels = 8;
  config.heads = 2;
  config.seed = 41;
  return config;
}

TEST(WorkspaceDiffusionTest, UNetForwardMatches) {
  diffusion::SpaceTimeUNet unet(SmallUNetConfig());
  Rng rng(43);
  const Tensor y = Tensor::Randn({6, 4, 8, 8}, rng);
  const Tensor ref = unet.Forward(y, 17);
  unet.Backward(Tensor::Zeros(ref.shape()));  // clear the forward caches
  Workspace ws;
  const Tensor got = unet.Forward(y, 17, &ws, /*windows=*/1);
  ExpectBytesEqual(ref, got);
}

TEST(WorkspaceDiffusionTest, SamplerByteIdenticalAndZeroSteadyStateAllocs) {
  diffusion::SpaceTimeUNet unet(SmallUNetConfig());
  const diffusion::NoiseSchedule schedule(diffusion::ScheduleKind::kLinear, 40);
  diffusion::SamplerConfig config;
  config.steps = 4;
  const std::vector<std::int64_t> key_idx = {0, 3, 6, 7};
  Rng data_rng(47);
  const Tensor keyframes = Tensor::Randn({4, 4, 8, 8}, data_rng);

  Rng rng_ref(123);
  const Tensor ref = diffusion::SampleConditional(&unet, schedule, config,
                                                  keyframes, key_idx, 8,
                                                  rng_ref);

  Workspace ws;
  {
    Workspace::Scope scope(&ws);
    Rng rng_ws(123);
    const Tensor got = diffusion::SampleConditionalBatch(
        &unet, schedule, config, keyframes, key_idx, 8, {&rng_ws}, &ws);
    ExpectBytesEqual(ref, got);
  }

  // The first run grew the arena to its high-water mark; from now on the
  // sampler loop must grow no slabs, even at MORE steps per window
  // (per-step scopes rewind to the same bump state every step).
  const std::int64_t grown = ws.stats().slab_allocations;
  config.steps = 8;
  for (int round = 0; round < 2; ++round) {
    Workspace::Scope scope(&ws);
    Rng rng_ws(123);
    (void)diffusion::SampleConditionalBatch(&unet, schedule, config, keyframes,
                                            key_idx, 8, {&rng_ws}, &ws);
  }
  EXPECT_EQ(ws.stats().slab_allocations, grown)
      << "steady-state sampler loop allocated new slabs";
}

// ---------------------------------------------------------------------------
// Full GLSC decode byte identity (untrained weights are fine: the pipeline is
// deterministic and the entropy coders are exact, so workspace-vs-allocating
// equality is meaningful without a training run).
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

Tensor SmallWindow() {
  data::FieldSpec spec;
  spec.frames = 8;
  spec.height = 16;
  spec.width = 16;
  spec.seed = 99;
  Tensor field = data::GenerateClimate(spec);  // [1, 8, 16, 16]
  return field.Reshape({8, 16, 16});
}

TEST(WorkspaceGlscTest, DecompressByteIdenticalAndSteadyState) {
  core::GlscCompressor glsc(SmallGlscConfig());
  const Tensor window = SmallWindow();
  const core::CompressedWindow compressed = glsc.Compress(window, -1.0);

  const Tensor ref = ReferenceDecompress(&glsc, compressed);
  ExpectBytesEqual(ref, glsc.Decompress(compressed));  // local arena
  Workspace ws;
  const Tensor got = glsc.Decompress(compressed, 0, &ws);
  EXPECT_FALSE(got.borrowed());  // arena memory must not escape
  ExpectBytesEqual(ref, got);

  const std::int64_t grown = ws.stats().slab_allocations;
  for (int round = 0; round < 2; ++round) {
    const Tensor again = glsc.Decompress(compressed, 0, &ws);
    ExpectBytesEqual(ref, again);
  }
  EXPECT_EQ(ws.stats().slab_allocations, grown)
      << "steady-state decode allocated new slabs";
}

TEST(WorkspaceGlscTest, CompressByteIdentical) {
  core::GlscCompressor glsc(SmallGlscConfig());
  const Tensor window = SmallWindow();
  Tensor recon_ref, recon_ws;
  const core::CompressedWindow a =
      glsc.Compress(window, -1.0, 0, &recon_ref);
  Workspace ws;
  const core::CompressedWindow b =
      glsc.Compress(window, -1.0, 0, &recon_ws, &ws);
  EXPECT_EQ(a.keyframes.y_stream, b.keyframes.y_stream);
  EXPECT_EQ(a.keyframes.z_stream, b.keyframes.z_stream);
  EXPECT_EQ(a.sample_seed, b.sample_seed);
  ExpectBytesEqual(recon_ref, recon_ws);
  // The encoder's reconstruction is the decoder's output, and so is
  // Reconstruct's (coding is lossless).
  ExpectBytesEqual(ReferenceDecompress(&glsc, a), recon_ref);
  ExpectBytesEqual(recon_ref, glsc.Reconstruct(window, a.sample_seed));
}

TEST(WorkspaceApiTest, AdapterDecompressMatchesAcrossWorkspaces) {
  core::GlscCompressor glsc(SmallGlscConfig());
  auto codec = api::WrapGlsc(&glsc);
  const Tensor window = SmallWindow();
  const std::vector<data::FrameNorm> norms(8, data::FrameNorm{0.0f, 1.0f});
  const std::vector<std::uint8_t> payload =
      codec->CompressWindow(window, {}, norms);
  const Tensor ref = codec->DecompressWindow(payload);
  Workspace ws;
  ExpectBytesEqual(ref, codec->DecompressWindow(payload, &ws));
  // Rule-based codecs ignore the workspace (default passthrough).
  auto sz = api::Compressor::Create("sz");
  const std::vector<std::uint8_t> sz_payload =
      sz->CompressWindow(window, {api::ErrorBoundMode::kRelative, 0.01},
                         norms);
  ExpectBytesEqual(sz->DecompressWindow(sz_payload),
                   sz->DecompressWindow(sz_payload, &ws));
}

}  // namespace
}  // namespace glsc
