#include <gtest/gtest.h>

#include <cmath>

#include "compress/vae.h"
#include "data/dataset.h"
#include "data/field_generators.h"
#include "diffusion/conditioner.h"
#include "diffusion/noise_schedule.h"
#include "diffusion/sampler.h"
#include "diffusion/trainer.h"
#include "tensor/ops.h"

namespace glsc::diffusion {
namespace {

class ScheduleTest : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(ScheduleTest, Invariants) {
  const std::int64_t steps = GetParam();
  NoiseSchedule schedule(steps);
  EXPECT_EQ(schedule.steps(), steps);
  double prev_ab = 1.0;
  for (std::int64_t t = 0; t < steps; ++t) {
    EXPECT_GT(schedule.beta(t), 0.0);
    EXPECT_LT(schedule.beta(t), 1.0);
    // alpha_bar strictly decreasing in t, within (0, 1).
    EXPECT_LT(schedule.alpha_bar(t), prev_ab);
    EXPECT_GT(schedule.alpha_bar(t), 0.0);
    prev_ab = schedule.alpha_bar(t);
  }
  // Terminal signal level should be small (mostly noise at t = T-1).
  EXPECT_LT(schedule.alpha_bar(steps - 1), 0.05);
}

INSTANTIATE_TEST_SUITE_P(Lengths, ScheduleTest,
                         ::testing::Values(std::int64_t{100},
                                           std::int64_t{1000}));

class RespaceTest : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(RespaceTest, SubsetProperties) {
  NoiseSchedule schedule(200);
  const auto ladder = schedule.Respace(GetParam());
  ASSERT_FALSE(ladder.empty());
  EXPECT_EQ(ladder.back(), 199);  // always includes the last (noisiest) step
  for (std::size_t i = 1; i < ladder.size(); ++i) {
    EXPECT_GT(ladder[i], ladder[i - 1]);  // strictly ascending
  }
  EXPECT_LE(static_cast<std::int64_t>(ladder.size()), GetParam());
}

INSTANTIATE_TEST_SUITE_P(Counts, RespaceTest,
                         ::testing::Values(1, 2, 8, 32, 64, 128, 200));

TEST(Keyframes, InterpolationPattern) {
  // Paper §4.4: interval 3 over 16 frames -> {0,3,6,9,12,15}.
  const auto keys =
      SelectKeyframes(KeyframeStrategy::kInterpolation, 16, 3, 0);
  EXPECT_EQ(keys, (std::vector<std::int64_t>{0, 3, 6, 9, 12, 15}));
}

TEST(Keyframes, InterpolationAnchorsTail) {
  const auto keys =
      SelectKeyframes(KeyframeStrategy::kInterpolation, 16, 4, 0);
  // 0,4,8,12 then the tail anchor 15.
  EXPECT_EQ(keys, (std::vector<std::int64_t>{0, 4, 8, 12, 15}));
}

TEST(Keyframes, PredictionPattern) {
  const auto keys = SelectKeyframes(KeyframeStrategy::kPrediction, 16, 0, 6);
  EXPECT_EQ(keys, (std::vector<std::int64_t>{0, 1, 2, 3, 4, 5}));
}

TEST(Keyframes, MixedPattern) {
  const auto keys = SelectKeyframes(KeyframeStrategy::kMixed, 16, 0, 6);
  EXPECT_EQ(keys, (std::vector<std::int64_t>{0, 1, 2, 3, 4, 15}));
}

TEST(Keyframes, GeneratedIsComplement) {
  const auto keys =
      SelectKeyframes(KeyframeStrategy::kInterpolation, 16, 3, 0);
  const auto gen = GeneratedIndices(keys, 16);
  EXPECT_EQ(gen.size() + keys.size(), 16u);
  std::vector<bool> seen(16, false);
  for (const auto k : keys) seen[static_cast<std::size_t>(k)] = true;
  for (const auto g : gen) {
    EXPECT_FALSE(seen[static_cast<std::size_t>(g)]);
    seen[static_cast<std::size_t>(g)] = true;
  }
  for (const bool s : seen) EXPECT_TRUE(s);
}

TEST(Conditioner, GatherScatterComposeRoundTrip) {
  Rng rng(5);
  Tensor window = Tensor::Randn({8, 2, 3, 3}, rng);
  const std::vector<std::int64_t> keys{0, 3, 6};
  const auto gen = GeneratedIndices(keys, 8);

  const Tensor packed_keys = GatherFrames(window, keys);
  const Tensor packed_gen = GatherFrames(window, gen);
  EXPECT_EQ(packed_keys.dim(0), 3);
  EXPECT_EQ(packed_gen.dim(0), 5);

  const Tensor recomposed = Compose(packed_gen, packed_keys, gen, keys);
  ASSERT_EQ(recomposed.shape(), window.shape());
  for (std::int64_t i = 0; i < window.numel(); ++i) {
    ASSERT_EQ(recomposed[i], window[i]);
  }
}

TEST(Conditioner, LatentNormMapsToUnitRange) {
  Rng rng(6);
  Tensor t = Tensor::Randn({4, 2, 3, 3}, rng, 10.0f);
  const LatentNorm norm = LatentNorm::FromTensor(t);
  const Tensor n = norm.Normalize(t);
  EXPECT_NEAR(n.MinValue(), -1.0f, 1e-5);
  EXPECT_NEAR(n.MaxValue(), 1.0f, 1e-5);
  const Tensor back = norm.Denormalize(n);
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    EXPECT_NEAR(back[i], t[i], 1e-3f * std::max(1.0f, std::fabs(t[i])));
  }
}

TEST(Conditioner, LatentNormConstantTensor) {
  Tensor t = Tensor::Full({2, 2}, 3.0f);
  const LatentNorm norm = LatentNorm::FromTensor(t);
  const Tensor n = norm.Normalize(t);
  EXPECT_TRUE(n.AllFinite());
}

TEST(Sampler, DeterministicGivenSeed) {
  UNetConfig config;
  config.latent_channels = 4;
  config.model_channels = 8;
  config.heads = 2;
  SpaceTimeUNet unet(config);
  NoiseSchedule schedule(50);
  const std::int64_t steps = 8;

  Rng data_rng(7);
  const std::vector<std::int64_t> keys{0, 3, 6, 7};
  Tensor keyframes = Tensor::Randn({4, 4, 4, 4}, data_rng);

  Rng rng_a(42), rng_b(42), rng_c(43);
  const Tensor a =
      SampleConditional(&unet, schedule, steps, keyframes, keys, 8, rng_a);
  const Tensor b =
      SampleConditional(&unet, schedule, steps, keyframes, keys, 8, rng_b);
  const Tensor c =
      SampleConditional(&unet, schedule, steps, keyframes, keys, 8, rng_c);
  ASSERT_EQ(a.shape(), (Shape{4, 4, 4, 4}));
  double diff_ab = 0.0, diff_ac = 0.0;
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    diff_ab += std::fabs(a[i] - b[i]);
    diff_ac += std::fabs(a[i] - c[i]);
  }
  EXPECT_EQ(diff_ab, 0.0) << "same seed must give identical samples";
  EXPECT_GT(diff_ac, 0.0) << "different seed should differ";
}

TEST(Sampler, OutputFinitePerStepCount) {
  UNetConfig config;
  config.latent_channels = 2;
  config.model_channels = 8;
  config.heads = 2;
  SpaceTimeUNet unet(config);
  NoiseSchedule schedule(100);
  Rng rng(9);
  Tensor keyframes = Tensor::Randn({2, 2, 4, 4}, rng);
  for (const std::int64_t steps : {1, 2, 8, 50}) {
    Rng srng(11);
    const Tensor out = SampleConditional(&unet, schedule, steps, keyframes,
                                         {0, 7}, 8, srng);
    EXPECT_TRUE(out.AllFinite()) << steps << " steps";
    EXPECT_EQ(out.dim(0), 6);
  }
}

TEST(Trainer, MaskedLossDecreases) {
  data::FieldSpec spec;
  spec.frames = 32;
  spec.height = 16;
  spec.width = 16;
  data::SequenceDataset dataset(data::GenerateClimate(spec));

  compress::VaeConfig vae_cfg;
  vae_cfg.latent_channels = 4;
  vae_cfg.hidden_channels = 8;
  vae_cfg.hyper_channels = 2;
  compress::VaeHyperprior vae(vae_cfg);

  UNetConfig unet_cfg;
  unet_cfg.latent_channels = 4;
  unet_cfg.model_channels = 8;
  unet_cfg.heads = 2;
  SpaceTimeUNet unet(unet_cfg);
  NoiseSchedule schedule(50);

  DiffusionTrainConfig cfg;
  cfg.iterations = 30;
  cfg.window = 8;
  cfg.crop = 16;
  cfg.interval = 3;
  cfg.log_every = 0;
  const double first = TrainDiffusion(&unet, schedule, &vae, dataset, cfg);

  cfg.iterations = 150;
  cfg.seed = 31;
  const double later = TrainDiffusion(&unet, schedule, &vae, dataset, cfg);
  EXPECT_LT(later, first * 1.05)
      << "continued training should not regress the masked noise MSE";
}

TEST(Conditioner, ComposeRejectsMismatchedCounts) {
  Rng rng(11);
  Tensor gen = Tensor::Randn({3, 2, 2, 2}, rng);
  Tensor keys = Tensor::Randn({2, 2, 2, 2}, rng);
  // gen_idx has 2 entries but `gen` holds 3 frames.
  EXPECT_THROW(Compose(gen, keys, {0, 2}, {1, 3}), std::runtime_error);
}

TEST(Keyframes, IntervalOneMeansEverythingStored) {
  const auto keys =
      SelectKeyframes(KeyframeStrategy::kInterpolation, 8, 1, 0);
  EXPECT_EQ(keys.size(), 8u);
  EXPECT_TRUE(GeneratedIndices(keys, 8).empty());
}

TEST(Trainer, FinetuneRestrictsTimesteps) {
  // A fine-tune pass at 4 steps must train and keep the model sane (the
  // respaced pool is exercised inside TrainDiffusion).
  data::FieldSpec spec;
  spec.frames = 16;
  spec.height = 16;
  spec.width = 16;
  data::SequenceDataset dataset(data::GenerateClimate(spec));
  compress::VaeConfig vae_cfg;
  vae_cfg.latent_channels = 4;
  vae_cfg.hidden_channels = 6;
  vae_cfg.hyper_channels = 2;
  compress::VaeHyperprior vae(vae_cfg);
  UNetConfig unet_cfg;
  unet_cfg.latent_channels = 4;
  unet_cfg.model_channels = 8;
  unet_cfg.heads = 2;
  SpaceTimeUNet unet(unet_cfg);
  NoiseSchedule schedule(40);

  DiffusionTrainConfig cfg;
  cfg.iterations = 20;
  cfg.window = 8;
  cfg.crop = 16;
  cfg.finetune_steps = 4;
  cfg.log_every = 0;
  const double loss = TrainDiffusion(&unet, schedule, &vae, dataset, cfg);
  EXPECT_TRUE(std::isfinite(loss));
  for (nn::Param* p : unet.Params()) {
    ASSERT_TRUE(p->value.AllFinite()) << p->name;
  }
}

TEST(Trainer, QuantizedLatentWindowShape) {
  compress::VaeConfig vae_cfg;
  vae_cfg.latent_channels = 4;
  vae_cfg.hidden_channels = 6;
  vae_cfg.hyper_channels = 2;
  compress::VaeHyperprior vae(vae_cfg);
  Rng rng(3);
  Tensor frames = Tensor::Randn({5, 16, 16}, rng, 0.3f);
  const Tensor y = QuantizedLatentWindow(&vae, frames);
  EXPECT_EQ(y.shape(), (Shape{5, 4, 4, 4}));
  // Values are integers.
  for (std::int64_t i = 0; i < y.numel(); ++i) {
    EXPECT_EQ(y[i], std::nearbyint(y[i]));
  }
}

}  // namespace
}  // namespace glsc::diffusion
