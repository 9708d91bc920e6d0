#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "baselines/cdc.h"
#include "baselines/sz_like.h"
#include "baselines/vae_sr.h"
#include "baselines/zfp_like.h"
#include "codec/huffman.h"
#include "data/dataset.h"
#include "data/field_generators.h"
#include "tensor/metrics.h"
#include "tensor/ops.h"
#include "tensor/workspace.h"
#include "util/bytes.h"

namespace glsc::baselines {
namespace {

// ---- rule-based: pointwise error-bound property across datasets/bounds ----

struct RuleCase {
  data::DatasetKind kind;
  double bound_scale;  // fraction of the data range
};

class RuleBasedBoundTest : public ::testing::TestWithParam<RuleCase> {};

TEST_P(RuleBasedBoundTest, SZRespectsBoundAndCompresses) {
  const auto& p = GetParam();
  data::FieldSpec spec;
  spec.frames = 12;
  spec.height = 20;  // deliberately not a power of two
  spec.width = 28;
  const Tensor var0 = data::GenerateField(p.kind, spec).Slice0(0, 1);
  const Tensor field = var0.Reshape({12, 20, 28});
  const double range = field.MaxValue() - field.MinValue();
  const double bound = p.bound_scale * range;

  SZLikeCompressor sz;
  const auto bytes = sz.Compress(field, bound);
  const Tensor recon = sz.Decompress(bytes);
  ASSERT_EQ(recon.shape(), field.shape());
  EXPECT_LE(MaxAbsError(field, recon), bound * (1.0 + 1e-6));
  // Meaningful reduction vs raw float32 at loose bounds.
  if (p.bound_scale >= 1e-3) {
    EXPECT_LT(bytes.size(), field.numel() * sizeof(float));
  }
}

TEST_P(RuleBasedBoundTest, ZFPRespectsBoundAndCompresses) {
  const auto& p = GetParam();
  data::FieldSpec spec;
  spec.frames = 9;
  spec.height = 22;
  spec.width = 26;
  const Tensor var0 = data::GenerateField(p.kind, spec).Slice0(0, 1);
  const Tensor field = var0.Reshape({9, 22, 26});
  const double range = field.MaxValue() - field.MinValue();
  const double bound = p.bound_scale * range;

  ZFPLikeCompressor zfp;
  const auto bytes = zfp.Compress(field, bound);
  const Tensor recon = zfp.Decompress(bytes);
  ASSERT_EQ(recon.shape(), field.shape());
  EXPECT_LE(MaxAbsError(field, recon), bound * (1.0 + 1e-6));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RuleBasedBoundTest,
    ::testing::Values(RuleCase{data::DatasetKind::kClimate, 1e-1},
                      RuleCase{data::DatasetKind::kClimate, 1e-2},
                      RuleCase{data::DatasetKind::kClimate, 1e-3},
                      RuleCase{data::DatasetKind::kCombustion, 1e-2},
                      RuleCase{data::DatasetKind::kCombustion, 1e-4},
                      RuleCase{data::DatasetKind::kTurbulence, 1e-2},
                      RuleCase{data::DatasetKind::kTurbulence, 1e-5}));

TEST(SZLike, TighterBoundCostsMore) {
  data::FieldSpec spec;
  spec.frames = 8;
  spec.height = 16;
  spec.width = 16;
  const Tensor field =
      data::GenerateClimate(spec).Reshape({8, 16, 16});
  const double range = field.MaxValue() - field.MinValue();
  SZLikeCompressor sz;
  const auto loose = sz.Compress(field, 1e-1 * range);
  const auto tight = sz.Compress(field, 1e-4 * range);
  EXPECT_LT(loose.size(), tight.size());
}

TEST(SZLike, SmoothDataCompressesBetterThanNoise) {
  data::FieldSpec spec;
  spec.frames = 8;
  spec.height = 16;
  spec.width = 16;
  const Tensor smooth = data::GenerateClimate(spec).Reshape({8, 16, 16});
  Rng rng(3);
  Tensor noise = Tensor::Randn({8, 16, 16}, rng);
  // Equalize ranges so equal absolute bounds are comparable.
  const double srange = smooth.MaxValue() - smooth.MinValue();
  const double nrange = noise.MaxValue() - noise.MinValue();
  MulScalarInPlace(&noise, static_cast<float>(srange / nrange));

  SZLikeCompressor sz;
  const double bound = 1e-3 * srange;
  EXPECT_LT(sz.Compress(smooth, bound).size(),
            sz.Compress(noise, bound).size());
}

TEST(ZFPLike, ExactForConstantField) {
  Tensor field = Tensor::Full({4, 8, 8}, 3.25f);
  ZFPLikeCompressor zfp;
  const auto bytes = zfp.Compress(field, 1e-3);
  const Tensor recon = zfp.Decompress(bytes);
  EXPECT_LE(MaxAbsError(field, recon), 1e-3);
  // A constant block should cost almost nothing after entropy coding.
  EXPECT_LT(bytes.size(), 200u);
}

TEST(SZLike, DecompressIsDeterministic) {
  data::FieldSpec spec;
  spec.frames = 6;
  spec.height = 16;
  spec.width = 16;
  const Tensor field = data::GenerateClimate(spec).Reshape({6, 16, 16});
  SZLikeCompressor sz;
  const auto bytes = sz.Compress(field, 1e-2);
  const Tensor a = sz.Decompress(bytes);
  const Tensor b = sz.Decompress(bytes);
  for (std::int64_t i = 0; i < a.numel(); ++i) ASSERT_EQ(a[i], b[i]);
}

TEST(SZLike, WorkspaceDecodeMatchesHeapDecodeAndRewinds) {
  data::FieldSpec spec;
  spec.frames = 7;
  spec.height = 12;
  spec.width = 20;
  const Tensor field = data::GenerateTurbulence(spec).Reshape({7, 12, 20});
  SZLikeCompressor sz;
  const auto bytes = sz.Compress(field, 1e-3);
  const Tensor heap = sz.Decompress(bytes);
  tensor::Workspace ws;
  const Tensor arena = sz.Decompress(bytes, &ws);
  EXPECT_FALSE(arena.borrowed());  // arena memory must not escape
  ASSERT_EQ(heap.shape(), arena.shape());
  EXPECT_EQ(0, std::memcmp(heap.data(), arena.data(),
                           static_cast<std::size_t>(heap.numel()) *
                               sizeof(float)));
  EXPECT_EQ(ws.bytes_in_use(), 0);
  EXPECT_GT(ws.stats().borrows, 0);
}

// An sz or zfp payload (both share the layout): dims, bound, then a Huffman
// stream of `codes`.
std::vector<std::uint8_t> RuleBasedPayload(std::uint64_t t, std::uint64_t h,
                                    std::uint64_t w,
                                    const std::vector<std::int32_t>& codes) {
  ByteWriter out;
  out.PutVarU64(t);
  out.PutVarU64(h);
  out.PutVarU64(w);
  out.PutF64(0.01);
  const auto huff = codec::HuffmanEncode(codes);
  out.PutVarU64(huff.size());
  out.PutBytes(huff.data(), huff.size());
  return out.Release();
}

TEST(SZLike, RejectsDimsThatDisagreeWithTheCodeCount) {
  const std::vector<std::int32_t> codes(2 * 3 * 4, 0);
  SZLikeCompressor sz;
  EXPECT_EQ(sz.Decompress(RuleBasedPayload(2, 3, 4, codes)).shape(),
            (Shape{2, 3, 4}));
  tensor::Workspace ws;
  for (const auto& dims : std::vector<std::array<std::uint64_t, 3>>{
           {2, 3, 5},
           {0, 3, 4},
           {std::uint64_t{1} << 20, std::uint64_t{1} << 20,
            std::uint64_t{1} << 20},
           // (2^61 + 3) · 8 wraps to exactly 24 in 64 bits.
           {(std::uint64_t{1} << 61) + 3, 8, 1},
           {~std::uint64_t{0}, 1, 1}}) {
    SCOPED_TRACE(::testing::Message()
                 << dims[0] << " x " << dims[1] << " x " << dims[2]);
    const auto bytes = RuleBasedPayload(dims[0], dims[1], dims[2], codes);
    EXPECT_THROW(sz.Decompress(bytes), std::runtime_error);
    EXPECT_THROW(sz.Decompress(bytes, &ws), std::runtime_error);
  }
  // Nothing was sized by the declared dims: the arena only ever held the
  // one-symbol alphabet.
  EXPECT_LE(ws.stats().peak_bytes, 64);
  EXPECT_EQ(ws.bytes_in_use(), 0);
}

TEST(SZLike, RejectsHuffmanStreamLongerThanThePayload) {
  auto bytes = RuleBasedPayload(2, 3, 4, std::vector<std::int32_t>(24, 1));
  bytes.pop_back();
  SZLikeCompressor sz;
  EXPECT_THROW(sz.Decompress(bytes), std::runtime_error);
}

TEST(ZFPLike, RejectsDimsThatDisagreeWithTheCodeCount) {
  // Two 4x4x4 blocks' worth of codes.
  const std::vector<std::int32_t> codes(2 * 64, 0);
  ZFPLikeCompressor zfp;
  EXPECT_EQ(zfp.Decompress(RuleBasedPayload(8, 3, 4, codes)).shape(),
            (Shape{8, 3, 4}));
  for (const auto& dims : std::vector<std::array<std::uint64_t, 3>>{
           {9, 3, 4},
           {0, 3, 4},
           {std::uint64_t{1} << 20, std::uint64_t{1} << 20,
            std::uint64_t{1} << 20},
           {~std::uint64_t{0}, 1, 1}}) {
    SCOPED_TRACE(::testing::Message()
                 << dims[0] << " x " << dims[1] << " x " << dims[2]);
    EXPECT_THROW(zfp.Decompress(RuleBasedPayload(dims[0], dims[1], dims[2],
                                                 codes)),
                 std::runtime_error);
  }
  auto truncated = RuleBasedPayload(8, 3, 4, codes);
  truncated.pop_back();
  EXPECT_THROW(zfp.Decompress(truncated), std::runtime_error);
}

TEST(ZFPLike, TighterBoundCostsMore) {
  data::FieldSpec spec;
  spec.frames = 8;
  spec.height = 16;
  spec.width = 16;
  const Tensor field = data::GenerateTurbulence(spec).Reshape({8, 16, 16});
  const double range = field.MaxValue() - field.MinValue();
  ZFPLikeCompressor zfp;
  EXPECT_LT(zfp.Compress(field, 1e-1 * range).size(),
            zfp.Compress(field, 1e-4 * range).size());
}

TEST(ZFPLike, SingleBlockField) {
  // Exactly one 4x4x4 block: exercises the no-padding fast path.
  Rng rng(5);
  Tensor field = Tensor::Randn({4, 4, 4}, rng);
  ZFPLikeCompressor zfp;
  const auto bytes = zfp.Compress(field, 0.01);
  EXPECT_LE(MaxAbsError(field, zfp.Decompress(bytes)), 0.01);
}

TEST(RuleBased, RejectsNonPositiveBound) {
  Tensor field({4, 8, 8});
  SZLikeCompressor sz;
  ZFPLikeCompressor zfp;
  EXPECT_THROW(sz.Compress(field, 0.0), std::runtime_error);
  EXPECT_THROW(zfp.Compress(field, -1.0), std::runtime_error);
}

// ---- learned baselines: tiny-training smoke + structural checks ----

compress::VaeConfig TinyVae(std::uint64_t seed) {
  compress::VaeConfig config;
  config.latent_channels = 4;
  config.hidden_channels = 6;
  config.hyper_channels = 2;
  config.seed = seed;
  return config;
}

compress::VaeTrainConfig TinyVaeTrain() {
  compress::VaeTrainConfig train;
  train.iterations = 60;
  train.batch_size = 2;
  train.crop = 16;
  train.log_every = 0;
  train.lambda_double_at = 30;
  train.lr_decay_every = 0;
  return train;
}

TEST(CDC, TrainCompressDecompress) {
  data::FieldSpec spec;
  spec.frames = 24;
  spec.height = 16;
  spec.width = 16;
  data::SequenceDataset dataset(data::GenerateClimate(spec));

  for (const auto target : {PredictTarget::kEpsilon, PredictTarget::kX0}) {
    CdcConfig config;
    config.vae = TinyVae(3);
    config.model_channels = 8;
    config.heads = 2;
    config.schedule_steps = 20;
    config.target = target;
    CDCCompressor cdc(config);
    // The eps variant needs several hundred steps before its noise estimate
    // is good enough for the quality assertion below; X0 gets the same budget.
    cdc.Train(dataset, TinyVaeTrain(), /*diffusion_iters=*/800, /*crop=*/16);

    const Tensor window = dataset.NormalizedWindow(0, 0, 4);
    const auto compressed = cdc.Compress(window);
    EXPECT_GT(compressed.frames.TotalBytes(), 0u);

    Rng rng(7);
    const Tensor recon = cdc.Decompress(compressed, /*steps=*/10, rng);
    ASSERT_EQ(recon.shape(), window.shape());
    EXPECT_TRUE(recon.AllFinite());

    if (target == PredictTarget::kEpsilon) {
      // With the eps parameterization even a briefly-trained model must stay
      // in the neighbourhood of its VAE conditioning signal. (The X0 variant
      // needs far more training before its direct prediction is usable, so
      // only structural checks apply to it at this budget.)
      const Tensor vae_only = cdc.DecompressVaeOnly(compressed);
      EXPECT_LT(MeanSquaredError(window, recon),
                10.0 * MeanSquaredError(window, vae_only) + 0.1);
    }

    // Frames decode independently, as the model was trained: replacing the
    // window's last frame leaves every other frame's decode byte-identical
    // under the same noise seed.
    const std::int64_t hw = window.dim(1) * window.dim(2);
    Tensor changed = window.Clone();
    const Tensor other = dataset.NormalizedWindow(0, 8, 4);
    std::copy_n(other.data() + 3 * hw, hw, changed.data() + 3 * hw);
    Rng rng_a(11), rng_b(11);
    const Tensor a = cdc.Decompress(cdc.Compress(window), /*steps=*/10, rng_a);
    const Tensor b = cdc.Decompress(cdc.Compress(changed), /*steps=*/10, rng_b);
    EXPECT_EQ(std::memcmp(a.data(), b.data(),
                          static_cast<std::size_t>(3 * hw) * sizeof(float)),
              0);
    EXPECT_NE(std::memcmp(a.data() + 3 * hw, b.data() + 3 * hw,
                          static_cast<std::size_t>(hw) * sizeof(float)),
              0);
  }
}

TEST(CDC, BlockOfFourDenoisesJointly) {
  // GCD's 3D blocks: CDC with a block of 4 frames.
  data::FieldSpec spec;
  spec.frames = 24;
  spec.height = 16;
  spec.width = 16;
  data::SequenceDataset dataset(data::GenerateCombustion(spec));

  CdcConfig config;
  config.vae = TinyVae(5);
  config.model_channels = 8;
  config.heads = 2;
  config.schedule_steps = 20;
  config.block = 4;
  config.seed = 61;
  CDCCompressor gcd(config);
  gcd.Train(dataset, TinyVaeTrain(), /*diffusion_iters=*/40, /*crop=*/16);

  const Tensor window = dataset.NormalizedWindow(0, 2, 4);
  const auto compressed = gcd.Compress(window);
  Rng rng(9);
  const Tensor recon = gcd.Decompress(compressed, /*steps=*/4, rng);
  ASSERT_EQ(recon.shape(), window.shape());
  EXPECT_TRUE(recon.AllFinite());

  // The converse of CDC's frame independence: the block's frames denoise
  // together through temporal attention, so replacing its last frame changes
  // its first frame's decode under the same noise seed.
  const std::int64_t hw = window.dim(1) * window.dim(2);
  Tensor changed = window.Clone();
  const Tensor other = dataset.NormalizedWindow(0, 10, 4);
  std::copy_n(other.data() + 3 * hw, hw, changed.data() + 3 * hw);
  Rng rng_a(11), rng_b(11);
  const Tensor a = gcd.Decompress(gcd.Compress(window), /*steps=*/4, rng_a);
  const Tensor b = gcd.Decompress(gcd.Compress(changed), /*steps=*/4, rng_b);
  EXPECT_NE(std::memcmp(a.data(), b.data(),
                        static_cast<std::size_t>(hw) * sizeof(float)),
            0);

  // A window that is not a whole number of blocks does not decode.
  const auto ragged = gcd.Compress(dataset.NormalizedWindow(0, 2, 6));
  Rng rng_c(13);
  EXPECT_THROW(gcd.Decompress(ragged, /*steps=*/4, rng_c), std::runtime_error);
}

TEST(VAESR, TrainCompressDecompress) {
  // 32x32 frames: the low-resolution branch halves them to 16x16, the
  // smallest geometry whose hyperprior path round-trips (latent edge 4).
  data::FieldSpec spec;
  spec.frames = 24;
  spec.height = 32;
  spec.width = 32;
  data::SequenceDataset dataset(data::GenerateTurbulence(spec));

  VaeSrConfig config;
  config.vae = TinyVae(7);
  config.sr_channels = 8;
  VAESRCompressor vaesr(config);
  vaesr.Train(dataset, TinyVaeTrain(), /*sr_iters=*/80, /*crop=*/32);

  const Tensor window = dataset.NormalizedWindow(0, 0, 6);
  const auto compressed = vaesr.Compress(window);
  EXPECT_GT(compressed.frames.TotalBytes(), 0u);
  const Tensor recon = vaesr.Decompress(compressed);
  ASSERT_EQ(recon.shape(), window.shape());
  EXPECT_TRUE(recon.AllFinite());
}

TEST(VAESR, StoresFewerBytesThanFullResVae) {
  // The low-resolution path must be cheaper per frame than coding the frames
  // at full resolution with an equivalent VAE.
  data::FieldSpec spec;
  spec.frames = 16;
  spec.height = 32;
  spec.width = 32;
  data::SequenceDataset dataset(data::GenerateClimate(spec));

  VaeSrConfig config;
  config.vae = TinyVae(11);
  VAESRCompressor vaesr(config);
  auto train = TinyVaeTrain();
  train.iterations = 40;
  vaesr.Train(dataset, train, /*sr_iters=*/20, /*crop=*/32);

  compress::VaeHyperprior full_vae(TinyVae(11));
  const Tensor window = dataset.NormalizedWindow(0, 0, 8);
  const auto lr_bytes = vaesr.Compress(window).frames.TotalBytes();
  const auto full_bytes =
      full_vae
          .Compress(window.Reshape({8, 1, 32, 32}))
          .TotalBytes();
  EXPECT_LT(lr_bytes, full_bytes);
}

}  // namespace
}  // namespace glsc::baselines
