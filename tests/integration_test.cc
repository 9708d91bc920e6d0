// Cross-module integration tests: the properties the paper's evaluation
// relies on, verified end to end at tiny scale.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <string>

#include "baselines/sz_like.h"
#include "core/glsc_compressor.h"
#include "core/registry.h"
#include "temp_path.h"
#include "tensor/metrics.h"
#include "tensor/ops.h"
#include "util/timer.h"

namespace glsc {
namespace {

core::GlscConfig SmallConfig() {
  core::GlscConfig config;
  config.vae.latent_channels = 4;
  config.vae.hidden_channels = 8;
  config.vae.hyper_channels = 2;
  config.vae.seed = 13;
  config.unet.latent_channels = 4;
  config.unet.model_channels = 8;
  config.unet.heads = 2;
  config.unet.seed = 15;
  config.schedule_steps = 40;
  config.window = 8;
  config.interval = 3;
  config.sample_steps = 6;
  return config;
}

core::TrainBudget SmallBudget() {
  core::TrainBudget budget;
  budget.vae.iterations = 400;
  budget.vae.batch_size = 4;
  budget.vae.crop = 16;
  budget.vae.log_every = 0;
  budget.vae.lambda_double_at = 200;
  budget.vae.lr_decay_every = 0;
  budget.diffusion.iterations = 250;
  budget.diffusion.crop = 16;
  budget.diffusion.log_every = 0;
  budget.pca_fit_windows = 3;
  return budget;
}

class IntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::FieldSpec spec;
    spec.frames = 48;
    spec.height = 16;
    spec.width = 16;
    spec.seed = 21;
    dataset_ =
        new data::SequenceDataset(data::GenerateClimate(spec));
    compressor_ =
        core::GetOrTrainGlsc(*dataset_, SmallConfig(), SmallBudget(),
                             ArtifactDir(), "integ_small_v2")
            .release();
  }
  static void TearDownTestSuite() {
    delete compressor_;
    delete dataset_;
    std::filesystem::remove_all(ArtifactDir());
  }
  static std::string ArtifactDir() {
    return ProcessTempPath("glsc_integration_artifacts");
  }

  static data::SequenceDataset* dataset_;
  static core::GlscCompressor* compressor_;
};

data::SequenceDataset* IntegrationTest::dataset_ = nullptr;
core::GlscCompressor* IntegrationTest::compressor_ = nullptr;

// Postprocessing corrections strictly improve reconstruction error while
// adding bytes — the RD sweep that generates every Figure-3 curve.
TEST_F(IntegrationTest, RdSweepIsMonotone) {
  const Tensor window = dataset_->NormalizedWindow(0, 0, 8);

  struct Point {
    double nrmse;
    std::size_t bytes;
  };
  std::vector<Point> points;
  for (const double tau : {1.0, 0.3, 0.1, 0.03}) {
    const auto compressed = compressor_->Compress(window, tau);
    const Tensor recon = compressor_->Decompress(compressed);
    points.push_back({Nrmse(window, recon), compressed.TotalBytes()});
  }
  for (std::size_t i = 1; i < points.size(); ++i) {
    EXPECT_LE(points[i].nrmse, points[i - 1].nrmse * (1.0 + 1e-9))
        << "tighter tau must not increase error";
    EXPECT_GE(points[i].bytes, points[i - 1].bytes)
        << "tighter tau must not shrink the payload";
  }
}

// The headline storage claim: our windows store keyframe latents only, so at
// matched VAE settings the latent bytes are well below a per-frame coder.
TEST_F(IntegrationTest, KeyframeStorageBeatsAllFrameStorage) {
  const Tensor window = dataset_->NormalizedWindow(0, 8, 8);
  const auto ours = compressor_->Compress(window, -1.0);

  const Tensor all_frames =
      window.Reshape({8, 1, window.dim(1), window.dim(2)});
  const auto every_frame = compressor_->vae().Compress(all_frames);
  EXPECT_LT(ours.LatentBytes(), every_frame.TotalBytes())
      << "keyframe-only latents must cost less than all-frame latents";
}

// Compression ratio accounting matches Eq. 11 with real byte counts.
TEST_F(IntegrationTest, CompressionRatioFormula) {
  const Tensor window = dataset_->NormalizedWindow(0, 16, 8);
  const auto compressed = compressor_->Compress(window, 0.1);
  const std::size_t original =
      static_cast<std::size_t>(window.numel()) * sizeof(float);
  const double cr = CompressionRatio(
      original, compressed.LatentBytes() + compressed.HeaderBytes(),
      compressed.CorrectionBytes());
  EXPECT_GT(cr, 1.0) << "the pipeline must actually compress";
  const double cr_manual =
      static_cast<double>(original) / compressed.TotalBytes();
  EXPECT_NEAR(cr, cr_manual, 1e-9);
}

// Keyframes are reconstructed more faithfully than generated frames in the
// uncorrected pipeline (Figure 2's per-frame error dips at keyframes).
TEST_F(IntegrationTest, KeyframesReconstructBest) {
  double key_mse = 0.0, gen_mse = 0.0;
  std::int64_t key_n = 0, gen_n = 0;
  const std::int64_t hw = 16 * 16;
  for (std::int64_t w0 = 0; w0 + 8 <= 48; w0 += 8) {
    const Tensor window = dataset_->NormalizedWindow(0, w0, 8);
    const auto compressed = compressor_->Compress(window, -1.0);
    const Tensor recon = compressor_->Decompress(compressed);
    for (std::int64_t f = 0; f < 8; ++f) {
      double mse = 0.0;
      for (std::int64_t i = 0; i < hw; ++i) {
        const double d = window[f * hw + i] - recon[f * hw + i];
        mse += d * d;
      }
      mse /= hw;
      const auto& keys = compressor_->keyframe_indices();
      if (std::find(keys.begin(), keys.end(), f) != keys.end()) {
        key_mse += mse;
        ++key_n;
      } else {
        gen_mse += mse;
        ++gen_n;
      }
    }
  }
  key_mse /= key_n;
  gen_mse /= gen_n;
  EXPECT_LT(key_mse, gen_mse)
      << "stored keyframes should beat generated frames";
}

// SZ-like baseline comparison runs end to end on the same data (the harness
// behind Figure 3's dotted lines).
TEST_F(IntegrationTest, RuleBasedBaselineComparableOnSameData) {
  const Tensor window = dataset_->NormalizedWindow(0, 0, 8);
  baselines::SZLikeCompressor sz;
  const double range = window.MaxValue() - window.MinValue();
  const auto bytes = sz.Compress(window, 0.02 * range);
  const Tensor recon = sz.Decompress(bytes);
  EXPECT_LE(MaxAbsError(window, recon), 0.02 * range * (1.0 + 1e-6));
  EXPECT_GT(bytes.size(), 0u);
}

// Encode is much faster than decode (the asymmetry Table 2 quantifies:
// encoding is one VAE pass, decoding runs the reverse diffusion).
TEST_F(IntegrationTest, EncodeFasterThanDecode) {
  const Tensor window = dataset_->NormalizedWindow(0, 0, 8);
  Timer encode_timer;
  const auto compressed = compressor_->Compress(window, -1.0);
  const double compress_time = encode_timer.Seconds();

  // Compress() above already includes a full decode simulation, so compare
  // pure pieces instead: VAE keyframe coding vs diffusion decode.
  const Tensor keys = diffusion::GatherFrames(
      window, compressor_->keyframe_indices());
  Timer enc;
  const auto stream = compressor_->vae().Compress(
      keys.Reshape({keys.dim(0), 1, keys.dim(1), keys.dim(2)}));
  const double t_enc = enc.Seconds();

  Timer dec;
  const Tensor recon = compressor_->Decompress(compressed);
  const double t_dec = dec.Seconds();
  EXPECT_LT(t_enc, t_dec);
  (void)compress_time;
}

}  // namespace
}  // namespace glsc
