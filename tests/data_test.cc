#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <string>

#include "data/dataset.h"
#include "data/field_generators.h"
#include "data/pgm.h"
#include "tensor/ops.h"

namespace glsc::data {
namespace {

class GeneratorTest : public ::testing::TestWithParam<DatasetKind> {};

TEST_P(GeneratorTest, ShapeSeedAndFiniteness) {
  FieldSpec spec;
  spec.variables = 2;
  spec.frames = 10;
  spec.height = 16;
  spec.width = 24;
  spec.seed = 5;

  const Tensor a = GenerateField(GetParam(), spec);
  EXPECT_EQ(a.shape(), (Shape{2, 10, 16, 24}));
  EXPECT_TRUE(a.AllFinite());

  // Determinism in the seed.
  const Tensor b = GenerateField(GetParam(), spec);
  for (std::int64_t i = 0; i < a.numel(); ++i) ASSERT_EQ(a[i], b[i]);

  // A different seed produces different data.
  spec.seed = 6;
  const Tensor c = GenerateField(GetParam(), spec);
  double diff = 0.0;
  for (std::int64_t i = 0; i < a.numel(); ++i) diff += std::fabs(a[i] - c[i]);
  EXPECT_GT(diff, 0.0);
}

TEST_P(GeneratorTest, TemporalCorrelation) {
  // Consecutive frames must be more similar than distant frames — the
  // property the whole keyframe-interpolation idea rests on.
  FieldSpec spec;
  spec.frames = 32;
  spec.height = 16;
  spec.width = 16;
  const Tensor field = GenerateField(GetParam(), spec);
  const std::int64_t hw = 16 * 16;

  auto frame_mse = [&](std::int64_t a, std::int64_t b) {
    double s = 0.0;
    for (std::int64_t i = 0; i < hw; ++i) {
      const double d = field[a * hw + i] - field[b * hw + i];
      s += d * d;
    }
    return s / hw;
  };
  // Averaged over several anchors for robustness.
  double near = 0.0, far = 0.0;
  for (std::int64_t t = 8; t < 16; ++t) {
    near += frame_mse(t, t + 1);
    far += frame_mse(t, t + 12);
  }
  EXPECT_LT(near, far);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, GeneratorTest,
                         ::testing::Values(DatasetKind::kClimate,
                                           DatasetKind::kCombustion,
                                           DatasetKind::kTurbulence),
                         [](const auto& info) {
                           std::string name = DatasetName(info.param);
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(Dataset, NormalizationInvertsExactly) {
  FieldSpec spec;
  spec.variables = 2;
  spec.frames = 8;
  spec.height = 16;
  spec.width = 16;
  SequenceDataset dataset(GenerateClimate(spec));

  const Tensor window = dataset.NormalizedWindow(1, 2, 4);
  const Tensor restored = dataset.Denormalize(window, 1, 2);
  const std::int64_t hw = 16 * 16;
  for (std::int64_t f = 0; f < 4; ++f) {
    for (std::int64_t i = 0; i < hw; ++i) {
      const float orig = dataset.raw()[((1 * 8) + 2 + f) * hw + i];
      EXPECT_NEAR(restored[f * hw + i], orig,
                  1e-4f * std::max(1.0f, std::fabs(orig)));
    }
  }
}

TEST(Dataset, NormalizedFramesAreZeroMeanUnitRange) {
  FieldSpec spec;
  spec.frames = 6;
  spec.height = 16;
  spec.width = 16;
  SequenceDataset dataset(GenerateCombustion(spec));
  for (std::int64_t t = 0; t < 6; ++t) {
    const Tensor f = dataset.NormalizedFrame(0, t);
    EXPECT_NEAR(f.Mean(), 0.0, 1e-5);
    EXPECT_LE(f.MaxValue() - f.MinValue(), 1.0f + 1e-4f);
  }
}

TEST(Dataset, SampleWindowGeometry) {
  FieldSpec spec;
  spec.frames = 20;
  spec.height = 32;
  spec.width = 48;
  SequenceDataset dataset(GenerateTurbulence(spec));
  Rng rng(3);
  const Tensor w = dataset.SampleTrainingWindow(8, 16, rng);
  EXPECT_EQ(w.shape(), (Shape{8, 16, 16}));
  // Crop larger than the field falls back to the full extent.
  const Tensor big = dataset.SampleTrainingWindow(4, 100, rng);
  EXPECT_EQ(big.shape(), (Shape{4, 32, 48}));
}

TEST(Dataset, EvaluationWindowsCoverWithoutOverlap) {
  FieldSpec spec;
  spec.variables = 2;
  spec.frames = 33;
  spec.height = 16;
  spec.width = 16;
  SequenceDataset dataset(GenerateClimate(spec));
  const auto windows = dataset.EvaluationWindows(16);
  // 33 frames -> two non-overlapping windows of 16 per variable.
  EXPECT_EQ(windows.size(), 4u);
  EXPECT_EQ(windows[0].t0, 0);
  EXPECT_EQ(windows[1].t0, 16);
}

TEST(Dataset, OriginalBytes) {
  FieldSpec spec;
  spec.variables = 1;
  spec.frames = 4;
  spec.height = 8;
  spec.width = 8;
  SequenceDataset dataset(GenerateClimate(spec));
  EXPECT_EQ(dataset.OriginalBytes(), 4u * 64u * sizeof(float));
}

TEST(Pgm, WritesValidHeaderAndZoom) {
  Tensor frame({16, 16});
  for (std::int64_t i = 0; i < frame.numel(); ++i) {
    frame[i] = static_cast<float>(i % 31);
  }
  // Per process: the native and _scalar registrations of this suite run
  // concurrently under ctest -j and must not remove each other's files.
  const std::string base =
      (std::filesystem::temp_directory_path() /
       ("glsc_test_pgm_" + std::to_string(::getpid())))
          .string();
  WritePgmWithZoom(base, frame, 8, 8, 6, 3);
  for (const std::string suffix : {".pgm", "_zoom.pgm"}) {
    std::ifstream in(base + suffix, std::ios::binary);
    ASSERT_TRUE(in.good()) << suffix;
    std::string magic;
    in >> magic;
    EXPECT_EQ(magic, "P5");
    std::filesystem::remove(base + suffix);
  }
}

}  // namespace
}  // namespace glsc::data
