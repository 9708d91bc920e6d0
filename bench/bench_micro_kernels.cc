// Micro-benchmarks (google-benchmark) for the kernels that dominate encode
// and decode time — the quantitative backing for Table 2's cost breakdown.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <vector>

#include "api/compressor.h"
#include "codec/gaussian_model.h"
#include "codec/huffman.h"
#include "codec/range_coder.h"
#include "data/dataset.h"
#include "data/field_generators.h"
#include "diffusion/spacetime_unet.h"
#include "nn/attention.h"
#include "nn/conv.h"
#include "postprocess/residual_pca.h"
#include "tensor/gemm.h"
#include "tensor/im2col.h"
#include "tensor/ops.h"
#include "tensor/simd/dispatch.h"
#include "tensor/simd/kernels.h"
#include "tensor/workspace.h"

namespace {

using namespace glsc;

void BM_Gemm(benchmark::State& state) {
  const auto n = state.range(0);
  Rng rng(1);
  Tensor a = Tensor::Randn({n, n}, rng);
  Tensor b = Tensor::Randn({n, n}, rng);
  Tensor c({n, n});
  for (auto _ : state) {
    MatMul(a.data(), b.data(), c.data(), n, n, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
  state.SetLabel(simd::IsaName(simd::ActiveIsa()));
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(128)->Arg(256);

// Pinned-level variants: the dispatch-speedup story in one run. Levels the
// host lacks clamp to the best available (the label records what ran).
void BM_GemmAtLevel(benchmark::State& state, simd::IsaLevel level) {
  simd::ScopedIsaOverride override_level(level);
  const auto n = state.range(0);
  Rng rng(1);
  Tensor a = Tensor::Randn({n, n}, rng);
  Tensor b = Tensor::Randn({n, n}, rng);
  Tensor c({n, n});
  for (auto _ : state) {
    MatMul(a.data(), b.data(), c.data(), n, n, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
  state.SetLabel(simd::IsaName(simd::ActiveIsa()));
}
void BM_GemmScalar(benchmark::State& state) {
  BM_GemmAtLevel(state, simd::IsaLevel::kScalar);
}
void BM_GemmSse2(benchmark::State& state) {
  BM_GemmAtLevel(state, simd::IsaLevel::kSSE2);
}
void BM_GemmAvx2(benchmark::State& state) {
  BM_GemmAtLevel(state, simd::IsaLevel::kAVX2);
}
BENCHMARK(BM_GemmScalar)->Arg(256);
BENCHMARK(BM_GemmSse2)->Arg(256);
BENCHMARK(BM_GemmAvx2)->Arg(256);

void BM_SiluForward(benchmark::State& state) {
  Rng rng(20);
  const std::int64_t n = 1 << 16;
  Tensor x = Tensor::Randn({n}, rng, 3.0f);
  Tensor y({n});
  const bool scalar = state.range(0) != 0;
  const simd::KernelTable& kernels =
      scalar ? simd::KernelsFor(simd::IsaLevel::kScalar)
             : simd::ActiveKernels();
  for (auto _ : state) {
    kernels.silu_fwd(x.data(), y.data(), n);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.SetLabel(simd::IsaName(kernels.level));
}
BENCHMARK(BM_SiluForward)->Arg(0)->Arg(1);

void BM_SoftmaxRows(benchmark::State& state) {
  Rng rng(21);
  const std::int64_t rows = 256, d = 256;
  Tensor x = Tensor::Randn({rows, d}, rng, 4.0f);
  Tensor work({rows, d});
  const bool scalar = state.range(0) != 0;
  const simd::KernelTable& kernels =
      scalar ? simd::KernelsFor(simd::IsaLevel::kScalar)
             : simd::ActiveKernels();
  for (auto _ : state) {
    std::copy_n(x.data(), rows * d, work.data());
    for (std::int64_t r = 0; r < rows; ++r) {
      kernels.softmax_row(work.data() + r * d, d);
    }
    benchmark::DoNotOptimize(work.data());
  }
  state.SetItemsProcessed(state.iterations() * rows * d);
  state.SetLabel(simd::IsaName(kernels.level));
}
BENCHMARK(BM_SoftmaxRows)->Arg(0)->Arg(1);

// Conv2d inference forward over one 16-frame window at the shapes GLSC
// decode runs: Arg 0-2 the VAE decoder (16->16 5x5 at 32x32 and at 16x16,
// 16->1 3x3 at 32x32), Arg 3 a UNet ResBlock conv (16->16 3x3 at 8x8). All
// stride 1 with same padding, one workspace reused as the decoder does.
void BM_Conv2dForward(benchmark::State& state) {
  struct ConvShape {
    std::int64_t in_c, out_c, kernel, edge;
    const char* label;
  };
  static constexpr ConvShape kShapes[] = {
      {16, 16, 5, 32, "vae 16->16 5x5 32x32"},
      {16, 16, 5, 16, "vae 16->16 5x5 16x16"},
      {16, 1, 3, 32, "vae 16->1 3x3 32x32"},
      {16, 16, 3, 8, "unet 16->16 3x3 8x8"}};
  const ConvShape& shape = kShapes[state.range(0)];
  Rng rng(2);
  nn::Conv2d conv(shape.in_c, shape.out_c, shape.kernel, 1, shape.kernel / 2,
                  rng);
  Tensor x = Tensor::Randn({16, shape.in_c, shape.edge, shape.edge}, rng);
  tensor::Workspace ws;
  for (auto _ : state) {
    tensor::Workspace::Scope scope(&ws);
    Tensor y = conv.Forward(x, &ws);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * 16 * shape.out_c *
                          shape.in_c * shape.kernel * shape.kernel *
                          shape.edge * shape.edge);  // flops
  state.SetLabel(shape.label);
}
BENCHMARK(BM_Conv2dForward)->DenseRange(0, 3);

// im2col over one 16-frame window, the lowering Conv2d::Backward runs (the
// forward packs GEMM panels from padded frames instead). Arg 0: a UNet
// conv, 3x3 over 16 channels of 8x8 latents. Arg 1: the VAE decoder's
// widest conv, 5x5 over 16 channels at 32x32.
void BM_Im2Col(benchmark::State& state) {
  const bool vae = state.range(0) == 1;
  const std::int64_t frames = 16, channels = 16;
  const std::int64_t edge = vae ? 32 : 8;
  const std::int64_t k = vae ? 5 : 3;
  const std::int64_t pad = k / 2;
  Rng rng(12);
  Tensor x = Tensor::Randn({frames, channels, edge, edge}, rng);
  std::vector<float> columns(
      static_cast<std::size_t>(channels * k * k * edge * edge));
  std::vector<float> padded(
      static_cast<std::size_t>(Im2ColPadFloats(edge, edge, pad)));
  for (auto _ : state) {
    for (std::int64_t f = 0; f < frames; ++f) {
      Im2Col(x.data() + f * channels * edge * edge, channels, edge, edge, k, k,
             1, pad, columns.data(), padded.data());
    }
    benchmark::DoNotOptimize(columns.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * frames *
                          static_cast<std::int64_t>(columns.size()) *
                          static_cast<std::int64_t>(sizeof(float)));
  state.SetLabel(vae ? "vae 5x5 16ch 32x32" : "unet 3x3 16ch 8x8");
}
BENCHMARK(BM_Im2Col)->Arg(0)->Arg(1);

void BM_ConvForwardBackward(benchmark::State& state) {
  Rng rng(3);
  nn::Conv2d conv(16, 16, 3, 1, 1, rng);
  Tensor x = Tensor::Randn({4, 16, 16, 16}, rng);
  for (auto _ : state) {
    Tensor y = conv.Forward(x, true);
    Tensor g = conv.Backward(y);
    benchmark::DoNotOptimize(g.data());
  }
}
BENCHMARK(BM_ConvForwardBackward);

// The four attention blocks of the GLSC UNet at the workload geometry (a
// 16-frame window of 8x8 latents, 16 model channels, 4 heads of width 4),
// inference forward with a reused workspace. Arg 0/1: spatial / temporal at
// 8x8 (L = 64 / 16); Arg 2/3: spatial / temporal after the 2x downsample
// (L = 16 / 16).
void BM_AttentionForward(benchmark::State& state) {
  const bool temporal = state.range(0) % 2 == 1;
  const std::int64_t edge = state.range(0) < 2 ? 8 : 4;
  Rng rng(4);
  diffusion::SpatialAttentionBlock spatial(16, 4, rng, "sattn");
  diffusion::TemporalAttentionBlock temporal_block(16, 4, rng, "tattn");
  nn::Layer& block = temporal ? static_cast<nn::Layer&>(temporal_block)
                              : static_cast<nn::Layer&>(spatial);
  Tensor x = Tensor::Randn({16, 16, edge, edge}, rng);
  tensor::Workspace ws;
  for (auto _ : state) {
    tensor::Workspace::Scope scope(&ws);
    Tensor y = block.Forward(x, &ws);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetLabel(std::string(temporal ? "temporal" : "spatial") + " " +
                 std::to_string(edge) + "x" + std::to_string(edge) + " " +
                 simd::IsaName(simd::ActiveIsa()));
}
BENCHMARK(BM_AttentionForward)->DenseRange(0, 3);

void BM_UNetForwardLatent(benchmark::State& state) {
  diffusion::UNetConfig config;
  config.latent_channels = 8;
  config.model_channels = 16;
  config.heads = 4;
  diffusion::SpaceTimeUNet unet(config);
  Rng rng(5);
  Tensor x = Tensor::Randn({16, 8, 8, 8}, rng);
  for (auto _ : state) {
    Tensor y = unet.Forward(x, 100);
    unet.Backward(Tensor::Zeros(y.shape()));
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_UNetForwardLatent);

// GLSC window decode through the codec's one inference path, Arg windows
// per DecompressWindows call (1 is the single-window case). Decode cost does
// not depend on training, so the weights are the seeded random init; 6 DDIM
// steps on [16, 32, 32] windows, one workspace reused across calls as the
// decode scheduler does. Most of the decode runs on global pool threads, so
// the time is wall time, not the main thread's CPU time.
void BM_GlscDecodeBatch(benchmark::State& state) {
  const std::int64_t batch = state.range(0);
  api::CodecOptions options;
  options.sample_steps = 6;
  auto codec = api::Compressor::Create("glsc", options);
  data::FieldSpec spec;
  spec.frames = 16 * batch;
  spec.height = 32;
  spec.width = 32;
  spec.seed = 13;
  const Tensor field =
      data::GenerateClimate(spec).Reshape({spec.frames, 32, 32});
  const std::vector<data::FrameNorm> norms(16, data::FrameNorm{0.0f, 1.0f});
  std::vector<std::vector<std::uint8_t>> payloads;
  for (std::int64_t b = 0; b < batch; ++b) {
    payloads.push_back(codec->CompressWindow(
        field.Slice0(b * 16, (b + 1) * 16).Clone(), {}, norms));
  }
  std::vector<const std::vector<std::uint8_t>*> views;
  for (const auto& p : payloads) views.push_back(&p);
  tensor::Workspace ws;
  for (auto _ : state) {
    std::vector<Tensor> out = codec->DecompressWindows(views, &ws);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * batch);  // windows
  state.SetLabel(simd::IsaName(simd::ActiveIsa()));
}
BENCHMARK(BM_GlscDecodeBatch)
    ->Arg(1)
    ->Arg(2)
    ->Arg(3)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_UNetForwardPixel(benchmark::State& state) {
  diffusion::UNetConfig config;
  config.latent_channels = 1;
  config.in_channels = 2;
  config.out_channels = 1;
  config.model_channels = 16;
  config.heads = 4;
  config.stage1_attention = false;
  diffusion::SpaceTimeUNet unet(config);
  Rng rng(6);
  Tensor x = Tensor::Randn({16, 2, 32, 32}, rng);
  for (auto _ : state) {
    Tensor y = unet.Forward(x, 100);
    unet.Backward(Tensor::Zeros(y.shape()));
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_UNetForwardPixel);

void BM_RangeCoderEncode(benchmark::State& state) {
  Rng rng(7);
  std::vector<int> symbols(1 << 14);
  for (auto& s : symbols) s = static_cast<int>(rng.UniformInt(16));
  for (auto _ : state) {
    codec::RangeEncoder enc;
    for (const int s : symbols) {
      enc.Encode(static_cast<std::uint32_t>(s) * 4, 4, 64);
    }
    auto bytes = enc.Finish();
    benchmark::DoNotOptimize(bytes.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(symbols.size()));
}
BENCHMARK(BM_RangeCoderEncode);

void BM_GaussianModelEncode(benchmark::State& state) {
  Rng rng(8);
  const Shape shape{6, 8, 8, 8};
  Tensor mu = Tensor::Zeros(shape);
  Tensor sigma = Tensor::Full(shape, 2.0f);
  Tensor y(shape);
  for (std::int64_t i = 0; i < y.numel(); ++i) {
    y[i] = std::nearbyint(2.0f * rng.NormalF());
  }
  codec::GaussianConditionalModel model;
  for (auto _ : state) {
    auto bytes = model.Encode(y, mu, sigma);
    benchmark::DoNotOptimize(bytes.data());
  }
  state.SetItemsProcessed(state.iterations() * y.numel());
}
BENCHMARK(BM_GaussianModelEncode);

void BM_GaussianModelDecode(benchmark::State& state) {
  Rng rng(18);
  const Shape shape{6, 8, 8, 8};
  Tensor mu = Tensor::Zeros(shape);
  Tensor sigma = Tensor::Full(shape, 2.0f);
  Tensor y(shape);
  for (std::int64_t i = 0; i < y.numel(); ++i) {
    y[i] = std::nearbyint(2.0f * rng.NormalF());
  }
  codec::GaussianConditionalModel model;
  const auto bytes = model.Encode(y, mu, sigma);
  for (auto _ : state) {
    Tensor back = model.Decode(bytes, mu, sigma);
    benchmark::DoNotOptimize(back.data());
  }
  state.SetItemsProcessed(state.iterations() * y.numel());
}
BENCHMARK(BM_GaussianModelDecode);

void BM_HuffmanRoundTrip(benchmark::State& state) {
  Rng rng(9);
  std::vector<std::int32_t> symbols(1 << 14);
  for (auto& s : symbols) {
    s = rng.UniformInt(100) < 85 ? 0 : static_cast<std::int32_t>(rng.UniformInt(32)) - 16;
  }
  for (auto _ : state) {
    auto bytes = codec::HuffmanEncode(symbols);
    auto back = codec::HuffmanDecode(bytes);
    benchmark::DoNotOptimize(back.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(symbols.size()));
}
BENCHMARK(BM_HuffmanRoundTrip);

void BM_PcaCorrect(benchmark::State& state) {
  Rng rng(10);
  postprocess::ResidualPca pca;
  std::vector<Tensor> residuals;
  for (int f = 0; f < 4; ++f) {
    residuals.push_back(Tensor::Randn({32, 32}, rng, 0.05f));
  }
  pca.Fit(residuals);
  Tensor original = Tensor::Randn({32, 32}, rng);
  for (auto _ : state) {
    Tensor recon = original.Clone();
    for (std::int64_t i = 0; i < recon.numel(); ++i) {
      recon[i] += 0.05f * ((i % 7) - 3);
    }
    auto correction = pca.Correct(original, &recon, 0.2);
    benchmark::DoNotOptimize(correction.payload.data());
  }
}
BENCHMARK(BM_PcaCorrect);

void BM_GenerateField(benchmark::State& state) {
  const auto kind = static_cast<data::DatasetKind>(state.range(0));
  data::FieldSpec spec;
  spec.frames = 16;
  spec.height = 32;
  spec.width = 32;
  for (auto _ : state) {
    Tensor field = data::GenerateField(kind, spec);
    benchmark::DoNotOptimize(field.data());
  }
}
BENCHMARK(BM_GenerateField)->Arg(0)->Arg(1)->Arg(2);

}  // namespace

BENCHMARK_MAIN();
