// Tests for the VAE + hyperprior transform coder and its differentiable rate
// models.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "compress/factorized_prior.h"
#include "compress/rate.h"
#include "compress/vae.h"
#include "compress/vae_trainer.h"
#include "data/field_generators.h"
#include "tensor/ops.h"
#include "tensor/workspace.h"

namespace glsc::compress {
namespace {

// Finite-difference check of the Gaussian rate gradients.
TEST(Rate, GaussianGradientsMatchFiniteDifference) {
  Rng rng(1);
  const Shape shape{2, 3, 2, 2};
  Tensor y = Tensor::Randn(shape, rng, 2.0f);
  Tensor mu = Tensor::Randn(shape, rng);
  Tensor sigma = Map(Tensor::Randn(shape, rng),
                     [](float v) { return 0.5f + std::fabs(v); });

  Tensor gy(shape), gm(shape), gs(shape);
  GaussianRateBits(y, mu, sigma, &gy, &gm, &gs);

  const float eps = 1e-3f;
  for (std::int64_t i = 0; i < 8; ++i) {
    auto probe = [&](Tensor* t, const Tensor& analytic) {
      const float saved = (*t)[i];
      (*t)[i] = saved + eps;
      const double lp = GaussianRateBits(y, mu, sigma);
      (*t)[i] = saved - eps;
      const double lm = GaussianRateBits(y, mu, sigma);
      (*t)[i] = saved;
      const double numeric = (lp - lm) / (2.0 * eps);
      EXPECT_NEAR(analytic[i], numeric,
                  2e-2 * std::max(1.0, std::fabs(numeric)));
    };
    probe(&y, gy);
    probe(&mu, gm);
    probe(&sigma, gs);
  }
}

TEST(Rate, HigherSigmaCostsMoreForCenteredData) {
  // For y == mu, rate grows as sigma grows (flatter pmf).
  const Shape shape{1, 1, 1, 1};
  Tensor y = Tensor::Zeros(shape);
  Tensor mu = Tensor::Zeros(shape);
  const double r1 = GaussianRateBits(y, mu, Tensor::Full(shape, 0.3f));
  const double r2 = GaussianRateBits(y, mu, Tensor::Full(shape, 3.0f));
  EXPECT_LT(r1, r2);
}

TEST(Rate, FarFromMeanCostsMore) {
  const Shape shape{1, 1, 1, 1};
  Tensor mu = Tensor::Zeros(shape);
  Tensor sigma = Tensor::Full(shape, 1.0f);
  const double near = GaussianRateBits(Tensor::Zeros(shape), mu, sigma);
  const double far = GaussianRateBits(Tensor::Full(shape, 6.0f), mu, sigma);
  EXPECT_LT(near, far);
}

TEST(Rate, SigmaFloorClampsGradient) {
  // Below the codec's minimum scale the rate is computed at the floor and
  // sigma receives no gradient (matching the clamp at coding time).
  const Shape shape{1, 1, 1, 1};
  Tensor y = Tensor::Zeros(shape);
  Tensor mu = Tensor::Zeros(shape);
  Tensor sigma = Tensor::Full(shape, 0.01f);  // below the 0.05 floor
  Tensor gy(shape), gm(shape), gs(shape);
  const double bits = GaussianRateBits(y, mu, sigma, &gy, &gm, &gs);
  // At the floor the bin mass is ~1, so the cost is ~0 bits — but never
  // negative, and sigma must receive no gradient through the clamp.
  EXPECT_GE(bits, 0.0);
  EXPECT_EQ(gs[0], 0.0f);
  const double floor_bits =
      GaussianRateBits(y, mu, Tensor::Full(shape, 0.05f));
  EXPECT_NEAR(bits, floor_bits, 1e-9);
}

TEST(FactorizedPrior, RateGradientsMatchFiniteDifference) {
  Rng rng(2);
  FactorizedPrior prior(3);
  const Shape shape{2, 3, 2, 2};
  Tensor z = Tensor::Randn(shape, rng, 2.0f);

  for (nn::Param* p : prior.Params()) p->ZeroGrad();
  Tensor gz(shape);
  prior.RateBits(z, &gz);
  std::vector<Tensor> param_grads;
  for (nn::Param* p : prior.Params()) param_grads.push_back(p->grad.Clone());

  const float eps = 1e-3f;
  for (std::int64_t i = 0; i < 6; ++i) {
    const float saved = z[i];
    z[i] = saved + eps;
    const double lp = prior.RateBits(z);
    z[i] = saved - eps;
    const double lm = prior.RateBits(z);
    z[i] = saved;
    const double numeric = (lp - lm) / (2.0 * eps);
    EXPECT_NEAR(gz[i], numeric, 2e-2 * std::max(1.0, std::fabs(numeric)));
  }
  // Parameter gradients.
  for (std::size_t k = 0; k < prior.Params().size(); ++k) {
    nn::Param* p = prior.Params()[k];
    for (std::int64_t i = 0; i < p->value.numel(); ++i) {
      const float saved = p->value[i];
      p->value[i] = saved + eps;
      const double lp = prior.RateBits(z);
      p->value[i] = saved - eps;
      const double lm = prior.RateBits(z);
      p->value[i] = saved;
      const double numeric = (lp - lm) / (2.0 * eps);
      EXPECT_NEAR(param_grads[k][i], numeric,
                  2e-2 * std::max(1.0, std::fabs(numeric)));
    }
  }
}

TEST(FactorizedPrior, EncodeDecodeRoundTrip) {
  Rng rng(3);
  FactorizedPrior prior(4);
  const Shape shape{2, 4, 3, 3};
  Tensor z(shape);
  for (std::int64_t i = 0; i < z.numel(); ++i) {
    z[i] = std::nearbyint(3.0f * rng.NormalF());
  }
  const auto bytes = prior.Encode(z);
  const Tensor decoded = prior.Decode(bytes, shape);
  for (std::int64_t i = 0; i < z.numel(); ++i) ASSERT_EQ(decoded[i], z[i]);
}

class VaeShapeTest : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(VaeShapeTest, GeometryRoundTrip) {
  const std::int64_t edge = GetParam();
  VaeConfig config;
  config.latent_channels = 8;
  config.hidden_channels = 12;
  config.hyper_channels = 4;
  VaeHyperprior vae(config);
  Tensor x = Tensor::Zeros({2, 1, edge, edge});
  const Tensor y = vae.EncodeLatent(x);
  EXPECT_EQ(y.shape(), (Shape{2, 8, edge / 4, edge / 4}));
  const Tensor xr = vae.DecodeLatent(y);
  EXPECT_EQ(xr.shape(), x.shape());
}

INSTANTIATE_TEST_SUITE_P(Edges, VaeShapeTest, ::testing::Values(16, 24, 32));

TEST(Vae, CompressDecompressLatentsLossless) {
  Rng rng(4);
  VaeConfig config;
  config.latent_channels = 6;
  config.hidden_channels = 8;
  config.hyper_channels = 4;
  config.seed = 7;
  VaeHyperprior vae(config);
  Tensor x = Tensor::Randn({3, 1, 16, 16}, rng, 0.3f);

  const Tensor y = vae.EncodeLatent(x);
  const Tensor y_hat = Round(y);
  const VaeBitstream bits = vae.CompressLatents(y);
  const Tensor decoded = vae.DecompressLatents(bits);
  ASSERT_EQ(decoded.shape(), y_hat.shape());
  for (std::int64_t i = 0; i < y_hat.numel(); ++i) {
    ASSERT_EQ(decoded[i], y_hat[i]) << "latent mismatch at " << i;
  }
}

TEST(Vae, DecompressLatentsRejectsHostileHyperlatentShapes) {
  // z_shape comes off the wire. A zero batch or channel count once divided
  // by zero in the prior's decoder, and an extra channel read past its
  // (mu, s) parameters; both overloads must throw instead.
  Rng rng(9);
  VaeConfig config;
  config.latent_channels = 6;
  config.hidden_channels = 8;
  config.hyper_channels = 4;
  VaeHyperprior vae(config);
  const VaeBitstream bits = vae.CompressLatents(
      vae.EncodeLatent(Tensor::Randn({2, 1, 16, 16}, rng, 0.3f)));
  ASSERT_EQ(bits.z_shape, (Shape{2, 4, 1, 1}));

  for (const Shape& z_shape :
       {Shape{0, 4, 1, 1}, Shape{2, 0, 1, 1}, Shape{2, 5, 1, 1}}) {
    SCOPED_TRACE(ShapeToString(z_shape));
    VaeBitstream hostile = bits;
    hostile.z_shape = z_shape;
    EXPECT_THROW(vae.DecompressLatents(hostile), std::runtime_error);
    tensor::Workspace ws;
    EXPECT_THROW(vae.DecompressLatents(hostile, &ws), std::runtime_error);
    EXPECT_EQ(ws.bytes_in_use(), 0);
  }
}

TEST(Vae, EstimateTracksCodedSize) {
  Rng rng(5);
  VaeConfig config;
  config.latent_channels = 6;
  config.hidden_channels = 8;
  config.hyper_channels = 4;
  VaeHyperprior vae(config);
  Tensor x = Tensor::Randn({2, 1, 32, 32}, rng, 0.3f);
  const Tensor y_hat = Round(vae.EncodeLatent(x));
  const double est_bits = vae.EstimateLatentBits(y_hat);
  const VaeBitstream bits = vae.Compress(x);
  const double coded_bits = 8.0 * static_cast<double>(bits.TotalBytes());
  EXPECT_LT(coded_bits, est_bits * 1.4 + 256);
  EXPECT_GT(coded_bits, est_bits * 0.6 - 256);
}

TEST(Vae, TrainingReducesLoss) {
  data::FieldSpec spec;
  spec.frames = 24;
  spec.height = 32;
  spec.width = 32;
  data::SequenceDataset dataset(GenerateClimate(spec));

  VaeConfig config;
  config.latent_channels = 6;
  config.hidden_channels = 8;
  config.hyper_channels = 4;
  VaeHyperprior vae(config);

  Rng rng(6);
  // Measure initial loss on a fixed batch.
  std::vector<Tensor> patches;
  for (int i = 0; i < 4; ++i) {
    Tensor p = dataset.SampleTrainingPatch(16, rng);
    patches.push_back(p.Reshape({1, 1, 16, 16}));
  }
  const Tensor batch = Concat0(patches);
  Rng probe_rng(9);
  const auto before = vae.TrainingForwardBackward(batch, 1e-4, probe_rng);
  for (nn::Param* p : vae.Params()) p->ZeroGrad();

  VaeTrainConfig train;
  train.iterations = 120;
  train.batch_size = 4;
  train.crop = 16;
  train.log_every = 0;
  train.lr_decay_every = 0;
  train.lambda_double_at = 60;
  TrainVae(&vae, dataset, train);

  Rng probe_rng2(9);
  const auto after = vae.TrainingForwardBackward(batch, 1e-4, probe_rng2);
  EXPECT_LT(after.mse, before.mse) << "training did not reduce distortion";
}

TEST(Vae, SaveLoadPreservesBehaviour) {
  Rng rng(7);
  VaeConfig config;
  config.latent_channels = 4;
  config.hidden_channels = 6;
  config.hyper_channels = 2;
  config.seed = 11;
  VaeHyperprior a(config);
  config.seed = 22;  // different init
  VaeHyperprior b(config);

  ByteWriter out;
  a.Save(&out);
  ByteReader in(out.bytes());
  b.Load(&in);

  Tensor x = Tensor::Randn({1, 1, 16, 16}, rng, 0.3f);
  const Tensor ya = a.EncodeLatent(x);
  const Tensor yb = b.EncodeLatent(x);
  for (std::int64_t i = 0; i < ya.numel(); ++i) EXPECT_EQ(ya[i], yb[i]);
}

TEST(Vae, RejectsBadGeometry) {
  VaeConfig config;
  VaeHyperprior vae(config);
  Rng rng(8);
  Tensor bad = Tensor::Randn({1, 1, 18, 18}, rng);  // not divisible by 4
  EXPECT_THROW(vae.TrainingForwardBackward(bad, 1e-4, rng),
               std::runtime_error);
}

}  // namespace
}  // namespace glsc::compress
