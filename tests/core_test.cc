// End-to-end tests of the GLSC pipeline: keyframe coding, diffusion
// interpolation, error-bound postprocessing, byte accounting, determinism and
// the artifact registry.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <string>
#include <thread>

#include "core/glsc_compressor.h"
#include "core/registry.h"
#include "temp_path.h"
#include "util/timer.h"
#include "tensor/metrics.h"
#include "tensor/ops.h"

namespace glsc::core {
namespace {

GlscConfig TinyConfig() {
  GlscConfig config;
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
  config.sample_steps = 6;
  return config;
}

TrainBudget TinyBudget() {
  TrainBudget budget;
  budget.vae.iterations = 450;
  budget.vae.batch_size = 4;
  budget.vae.crop = 16;
  budget.vae.log_every = 0;
  budget.vae.lambda_double_at = 225;
  budget.vae.lr_decay_every = 0;
  budget.diffusion.iterations = 250;
  budget.diffusion.crop = 16;
  budget.diffusion.log_every = 0;
  budget.pca_fit_windows = 2;
  return budget;
}

data::SequenceDataset TinyDataset(std::uint64_t seed = 7) {
  data::FieldSpec spec;
  spec.frames = 32;
  spec.height = 16;
  spec.width = 16;
  spec.seed = seed;
  return data::SequenceDataset(data::GenerateClimate(spec));
}

// One model cache per process: one registration's TearDownTestSuite must not
// delete the cache the other is about to load.
std::string ArtifactDir() { return ProcessTempPath("glsc_test_artifacts"); }

class GlscEndToEnd : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new data::SequenceDataset(TinyDataset());
    compressor_ = GetOrTrainGlsc(*dataset_, TinyConfig(), TinyBudget(),
                                 ArtifactDir(), "core_test_tiny_v2")
                      .release();
  }
  static void TearDownTestSuite() {
    delete compressor_;
    delete dataset_;
    std::filesystem::remove_all(ArtifactDir());
  }

  static data::SequenceDataset* dataset_;
  static GlscCompressor* compressor_;
};

data::SequenceDataset* GlscEndToEnd::dataset_ = nullptr;
GlscCompressor* GlscEndToEnd::compressor_ = nullptr;

TEST_F(GlscEndToEnd, KeyframeIndicesMatchConfig) {
  EXPECT_EQ(compressor_->keyframe_indices(),
            (std::vector<std::int64_t>{0, 3, 6, 7}));
  EXPECT_EQ(compressor_->generated_indices().size(), 4u);
}

TEST_F(GlscEndToEnd, CompressDecompressRoundTrip) {
  const Tensor window = dataset_->NormalizedWindow(0, 0, 8);
  const CompressedWindow compressed = compressor_->Compress(window, -1.0);
  EXPECT_GT(compressed.LatentBytes(), 0u);
  EXPECT_EQ(compressed.CorrectionBytes(), 0u);

  const Tensor recon = compressor_->Decompress(compressed);
  ASSERT_EQ(recon.shape(), window.shape());
  EXPECT_TRUE(recon.AllFinite());
  // Sanity bound only: at this suite's seconds-scale training budget the
  // uncorrected reconstruction hovers around the zero-predictor MSE, so a
  // strict "beats zero" assertion is flaky. The real quality property (and
  // keyframes-beat-generated) is asserted in integration_test at a budget
  // where it holds with margin.
  EXPECT_LT(MeanSquaredError(window, recon),
            2.0 * MeanSquaredError(window, Tensor::Zeros(window.shape())));
}

TEST_F(GlscEndToEnd, DecompressionIsDeterministic) {
  const Tensor window = dataset_->NormalizedWindow(0, 8, 8);
  const CompressedWindow compressed = compressor_->Compress(window, -1.0);
  const Tensor a = compressor_->Decompress(compressed);
  const Tensor b = compressor_->Decompress(compressed);
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    ASSERT_EQ(a[i], b[i]) << "decoder must be bit-reproducible";
  }
}

TEST_F(GlscEndToEnd, ErrorBoundGuaranteeHolds) {
  const Tensor window = dataset_->NormalizedWindow(0, 16, 8);
  const std::int64_t hw = window.dim(1) * window.dim(2);
  for (const double tau : {0.5, 0.2, 0.05}) {
    const CompressedWindow compressed = compressor_->Compress(window, tau);
    const Tensor recon = compressor_->Decompress(compressed);
    for (std::int64_t f = 0; f < window.dim(0); ++f) {
      double l2 = 0.0;
      for (std::int64_t i = 0; i < hw; ++i) {
        const double d = window[f * hw + i] - recon[f * hw + i];
        l2 += d * d;
      }
      EXPECT_LE(std::sqrt(l2), tau * (1.0 + 1e-4) + 1e-12)
          << "frame " << f << " tau " << tau;
    }
  }
}

TEST_F(GlscEndToEnd, TighterBoundMoreCorrectionBytes) {
  const Tensor window = dataset_->NormalizedWindow(0, 0, 8);
  const auto loose = compressor_->Compress(window, 0.5);
  const auto tight = compressor_->Compress(window, 0.02);
  EXPECT_LE(loose.CorrectionBytes(), tight.CorrectionBytes());
}

TEST_F(GlscEndToEnd, OnlyKeyframesAreCoded) {
  // The latent stream holds exactly |C| frames, not N — the core storage
  // saving of the method.
  const Tensor window = dataset_->NormalizedWindow(0, 0, 8);
  const CompressedWindow compressed = compressor_->Compress(window, -1.0);
  EXPECT_EQ(compressed.keyframes.y_shape[0],
            static_cast<std::int64_t>(compressor_->keyframe_indices().size()));
}

TEST_F(GlscEndToEnd, FewerSampleStepsStillFinite) {
  const Tensor window = dataset_->NormalizedWindow(0, 0, 8);
  for (const std::int64_t steps : {1, 2, 4}) {
    const CompressedWindow compressed =
        compressor_->Compress(window, -1.0, steps);
    const Tensor recon = compressor_->Decompress(compressed, steps);
    EXPECT_TRUE(recon.AllFinite()) << steps;
  }
}

TEST_F(GlscEndToEnd, CodedPathEqualsDirectPath) {
  // Entropy coding is lossless, so decompressing the coded bitstream must
  // reproduce exactly what Reconstruct() computes from in-memory quantized
  // latents with the same sampling seed.
  const Tensor window = dataset_->NormalizedWindow(0, 8, 8);
  const CompressedWindow compressed = compressor_->Compress(window, -1.0);
  const Tensor via_codec = compressor_->Decompress(compressed);
  const Tensor direct =
      compressor_->Reconstruct(window, compressed.sample_seed);
  ASSERT_EQ(via_codec.shape(), direct.shape());
  for (std::int64_t i = 0; i < via_codec.numel(); ++i) {
    ASSERT_EQ(via_codec[i], direct[i]) << "coding changed the result at " << i;
  }
}

TEST_F(GlscEndToEnd, SaveLoadIdenticalReconstruction) {
  ByteWriter out;
  compressor_->Save(&out);
  GlscCompressor loaded(TinyConfig());
  ByteReader in(out.bytes());
  loaded.Load(&in);

  const Tensor window = dataset_->NormalizedWindow(0, 24, 8);
  const auto ca = compressor_->Compress(window, 0.1);
  const auto cb = loaded.Compress(window, 0.1);
  const Tensor ra = compressor_->Decompress(ca);
  const Tensor rb = loaded.Decompress(cb);
  for (std::int64_t i = 0; i < ra.numel(); ++i) ASSERT_EQ(ra[i], rb[i]);
}

TEST_F(GlscEndToEnd, RegistryCacheHitSkipsTraining) {
  // Second call with the same tag must load the artifact (fast path).
  Timer timer;
  auto again = GetOrTrainGlsc(*dataset_, TinyConfig(), TinyBudget(),
                              ArtifactDir(), "core_test_tiny_v2");
  EXPECT_LT(timer.Seconds(), 5.0) << "cache load should be near-instant";
  const Tensor window = dataset_->NormalizedWindow(0, 0, 8);
  const Tensor ra = compressor_->Decompress(compressor_->Compress(window, -1.0));
  const Tensor rb = again->Decompress(again->Compress(window, -1.0));
  for (std::int64_t i = 0; i < ra.numel(); ++i) ASSERT_EQ(ra[i], rb[i]);
}

TEST(ArtifactCache, ConcurrentCallersWithOneTagTrainOnce) {
  // Two threads race one tag through the cache. Without its lock both would
  // miss the file check and train (the slow train keeps both in the window);
  // with it one trains and saves, and the other waits and loads those bytes.
  const std::string root = ProcessTempPath("glsc_artifact_cache");
  const std::string dir = root + "/nested";
  std::filesystem::remove_all(root);
  std::atomic<int> trains{0};
  std::vector<std::uint8_t> loaded[2];
  const auto call = [&](int i) {
    LoadOrTrainArtifact(
        dir, "shared",
        [&loaded, i](ByteReader* in) {
          loaded[i].resize(in->remaining());
          in->GetBytes(loaded[i].data(), loaded[i].size());
        },
        [&trains] {
          trains.fetch_add(1);
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
        },
        [](ByteWriter* out) { out->PutString("trained once"); });
  };
  std::thread a(call, 0);
  std::thread b(call, 1);
  a.join();
  b.join();
  EXPECT_EQ(trains.load(), 1);
  ByteWriter saved;
  saved.PutString("trained once");
  // Exactly one caller loaded, and it read what the other saved.
  EXPECT_NE(loaded[0].empty(), loaded[1].empty());
  EXPECT_EQ(loaded[0].empty() ? loaded[1] : loaded[0], saved.bytes());
  EXPECT_TRUE(FileExists(ArtifactPath(dir, "shared")));
  std::filesystem::remove_all(root);
}

TEST(GlscCompressor, ByteAccountingConsistent) {
  CompressedWindow w;
  w.window_shape = {8, 16, 16};
  w.keyframes.y_stream = std::vector<std::uint8_t>(100);
  w.keyframes.z_stream = std::vector<std::uint8_t>(20);
  w.corrections = {{1, 2, 3}, {}, {4, 5}};
  EXPECT_EQ(w.LatentBytes(), 120u);
  EXPECT_EQ(w.CorrectionBytes(), 5u);
  EXPECT_EQ(w.TotalBytes(), 120u + 5u + w.HeaderBytes());
  EXPECT_EQ(w.HeaderBytes(), 4u + 12u + 8u * 8u);
}

TEST(GlscCompressor, MismatchedWindowSizeRejected) {
  GlscConfig config = TinyConfig();
  GlscCompressor compressor(config);
  Rng rng(3);
  Tensor wrong = Tensor::Randn({5, 16, 16}, rng);  // config expects 8
  EXPECT_THROW(compressor.Compress(wrong, -1.0), std::runtime_error);
}

TEST(GlscCompressor, StrategyVariantsConstruct) {
  for (const auto strategy : {diffusion::KeyframeStrategy::kInterpolation,
                              diffusion::KeyframeStrategy::kPrediction,
                              diffusion::KeyframeStrategy::kMixed}) {
    GlscConfig config = TinyConfig();
    config.strategy = strategy;
    GlscCompressor compressor(config);
    EXPECT_FALSE(compressor.keyframe_indices().empty());
    EXPECT_FALSE(compressor.generated_indices().empty());
  }
}

}  // namespace
}  // namespace glsc::core
