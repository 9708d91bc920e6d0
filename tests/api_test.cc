// Tests for the unified codec API: factory registry, capability declarations,
// streaming EncodeSession (chunking, tail padding, parallel fan-out,
// byte-identity vs the one-shot path), and the acceptance round trip of every
// registered codec over a [2, 40, 32, 32] stream whose T=40 is not divisible
// by the 16-frame window, read back through serve::DecodeScheduler::GetAll.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "api/adapters.h"
#include "api/session.h"
#include "core/archive_reader.h"
#include "core/container.h"
#include "data/field_generators.h"
#include "serve/decode_scheduler.h"
#include "tensor/metrics.h"
#include "util/status.h"

namespace glsc::api {
namespace {

// [V, t0:t1, H, W] slice of a [V, T, H, W] field.
Tensor TimeSlice(const Tensor& field, std::int64_t t0, std::int64_t t1) {
  const std::int64_t v = field.dim(0), t = field.dim(1);
  const std::int64_t hw = field.dim(2) * field.dim(3);
  Tensor out({v, t1 - t0, field.dim(2), field.dim(3)});
  for (std::int64_t vi = 0; vi < v; ++vi) {
    std::copy_n(field.data() + (vi * t + t0) * hw, (t1 - t0) * hw,
                out.data() + vi * (t1 - t0) * hw);
  }
  return out;
}

// Streams `field` through a fresh session in pushes of `chunk` frames.
core::DatasetArchive StreamIn(Compressor* codec, const Tensor& field,
                              std::int64_t chunk,
                              const SessionOptions& options) {
  EncodeSession session(codec, field.dim(0), field.dim(2), field.dim(3),
                        options);
  for (std::int64_t t0 = 0; t0 < field.dim(1); t0 += chunk) {
    session.Push(TimeSlice(field, t0, std::min(field.dim(1), t0 + chunk)));
  }
  return session.Finish();
}

// The whole archive back in physical units, serialized and then read through
// the program's one decode path.
Tensor DecodeAll(Compressor* codec, const core::DatasetArchive& archive) {
  const auto reader = core::ArchiveReader::FromBytes(archive.Serialize());
  serve::DecodeScheduler scheduler(&reader, codec);
  return scheduler.GetAll();
}

void ExpectPointwiseBound(const Tensor& raw, const Tensor& recon,
                          const data::SequenceDataset& dataset,
                          double rel_bound) {
  const std::int64_t hw = raw.dim(2) * raw.dim(3);
  for (std::int64_t v = 0; v < raw.dim(0); ++v) {
    for (std::int64_t t = 0; t < raw.dim(1); ++t) {
      const double limit =
          rel_bound * dataset.norm(v, t).range * (1.0 + 1e-5);
      const float* a = raw.data() + (v * raw.dim(1) + t) * hw;
      const float* b = recon.data() + (v * raw.dim(1) + t) * hw;
      for (std::int64_t i = 0; i < hw; ++i) {
        ASSERT_LE(std::fabs(a[i] - b[i]), limit) << "v=" << v << " t=" << t;
      }
    }
  }
}

TEST(Registry, ListsAllSixAndRejectsUnknown) {
  const auto names = RegisteredCompressors();
  for (const char* expected : {"glsc", "sz", "zfp", "cdc", "gcd", "vae_sr"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
  }
  for (const auto& name : names) {
    const auto codec = Compressor::Create(name);
    ASSERT_NE(codec, nullptr);
    EXPECT_EQ(codec->name(), name);
    EXPECT_GT(codec->window(), 0);
  }
  EXPECT_THROW(Compressor::Create("no_such_codec"), std::runtime_error);
}

TEST(Registry, CapabilitiesDeclareBoundsAndModelNeeds) {
  const auto sz = Compressor::Create("sz");
  EXPECT_TRUE(sz->capabilities().model_free);
  EXPECT_TRUE(sz->capabilities().Supports(ErrorBoundMode::kAbsolute));
  EXPECT_TRUE(sz->capabilities().Supports(ErrorBoundMode::kRelative));
  EXPECT_FALSE(sz->capabilities().Supports(ErrorBoundMode::kPointwiseL2));

  const auto glsc = Compressor::Create("glsc");
  EXPECT_FALSE(glsc->capabilities().model_free);
  EXPECT_TRUE(glsc->capabilities().Supports(ErrorBoundMode::kPointwiseL2));
  EXPECT_TRUE(glsc->capabilities().Supports(ErrorBoundMode::kNone));

  for (const char* learned : {"cdc", "gcd", "vae_sr"}) {
    const auto codec = Compressor::Create(learned);
    EXPECT_FALSE(codec->capabilities().model_free) << learned;
    EXPECT_TRUE(codec->capabilities().Supports(ErrorBoundMode::kNone))
        << learned;
  }

  // Sessions refuse bound modes the codec cannot honor.
  SessionOptions unsupported;
  unsupported.bound = {ErrorBoundMode::kPointwiseL2, 0.1};
  auto zfp = Compressor::Create("zfp");
  EXPECT_THROW(EncodeSession(zfp.get(), 1, 16, 16, unsupported),
               std::runtime_error);
}

TEST(Session, RuleBasedStreamRoundTripWithPartialTail) {
  data::FieldSpec spec;
  spec.variables = 2;
  spec.frames = 40;  // window 16 -> full windows at 0, 16 and a tail of 8
  spec.height = 32;
  spec.width = 32;
  spec.seed = 71;
  const Tensor field = data::GenerateClimate(spec);
  data::SequenceDataset dataset(field.Clone());

  for (const char* name : {"sz", "zfp"}) {
    auto codec = Compressor::Create(name);
    SessionOptions options;
    options.bound = {ErrorBoundMode::kRelative, 0.01};
    const core::DatasetArchive archive =
        StreamIn(codec.get(), field, /*chunk=*/7, options);

    EXPECT_EQ(archive.codec(), name);
    EXPECT_EQ(archive.dataset_shape(), field.shape());
    ASSERT_EQ(archive.entries().size(), 6u) << name;  // 3 slabs x 2 variables
    std::int64_t tail_records = 0;
    for (const auto& entry : archive.entries()) {
      if (entry.t0 == 32) {
        EXPECT_EQ(entry.valid_frames, 8);
        ++tail_records;
      } else {
        EXPECT_EQ(entry.valid_frames, 16);
      }
    }
    EXPECT_EQ(tail_records, 2) << name;
    // Session-derived norms match SequenceDataset's.
    EXPECT_FLOAT_EQ(archive.norm(1, 17).mean, dataset.norm(1, 17).mean);
    EXPECT_FLOAT_EQ(archive.norm(1, 17).range, dataset.norm(1, 17).range);

    // Serialize -> parse -> decode; the relative bound must hold pointwise on
    // every frame, tail included.
    const Tensor recon = DecodeAll(codec.get(), archive);
    ASSERT_EQ(recon.shape(), field.shape());
    ExpectPointwiseBound(field, recon, dataset, 0.01);
  }
}

TEST(Session, ChunkingAndParallelismAreByteIdentical) {
  data::FieldSpec spec;
  spec.variables = 2;
  spec.frames = 40;
  spec.height = 32;
  spec.width = 32;
  spec.seed = 73;
  const Tensor field = data::GenerateClimate(spec);

  auto codec = Compressor::Create("sz");
  SessionOptions options;
  options.bound = {ErrorBoundMode::kRelative, 0.02};

  const auto one_shot =
      StreamIn(codec.get(), field, field.dim(1), options).Serialize();
  const auto frame_by_frame =
      StreamIn(codec.get(), field, 1, options).Serialize();
  EXPECT_EQ(one_shot, frame_by_frame);

  SessionOptions parallel = options;
  parallel.parallelism = 3;
  const auto fanned = StreamIn(codec.get(), field, 11, parallel).Serialize();
  EXPECT_EQ(one_shot, fanned);
}

// A session compresses each batch of windows as soon as it fills, so it
// never holds more than one partial window per variable plus one batch,
// whatever the chunk size.
TEST(Session, CompressesEachBatchAsSoonAsItFills) {
  data::FieldSpec spec;
  spec.variables = 2;
  spec.frames = 88;  // five full windows per variable and an 8-frame tail
  spec.height = 16;
  spec.width = 16;
  spec.seed = 71;
  const Tensor field = data::GenerateCombustion(spec);
  auto codec = Compressor::Create("sz");
  SessionOptions options;
  options.bound = {ErrorBoundMode::kRelative, 0.02};

  // One worker: every window as it completes, mid-chunk included.
  EncodeSession serial(codec.get(), 2, 16, 16, options);
  serial.Push(TimeSlice(field, 0, 40));
  EXPECT_EQ(serial.records_emitted(), 4);  // two windows x two variables
  serial.Push(TimeSlice(field, 40, 88));
  EXPECT_EQ(serial.records_emitted(), 10);
  EXPECT_EQ(serial.Finish().entries().size(), 12u);

  // Two workers: batches of four windows.
  options.parallelism = 2;
  EncodeSession batched(codec.get(), 2, 16, 16, options);
  batched.Push(TimeSlice(field, 0, 40));
  EXPECT_EQ(batched.records_emitted(), 4);
  batched.Push(TimeSlice(field, 40, 56));
  EXPECT_EQ(batched.records_emitted(), 4);  // two windows pending
  batched.Push(TimeSlice(field, 56, 88));
  EXPECT_EQ(batched.records_emitted(), 8);  // two pending again
  EXPECT_EQ(batched.Finish().entries().size(), 12u);
  EXPECT_EQ(batched.records_emitted(), 12);
}

TEST(Session, SingleFrameTailAndShortStreams) {
  data::FieldSpec spec;
  spec.variables = 1;
  spec.frames = 17;  // window 16 + single-frame tail
  spec.height = 32;
  spec.width = 32;
  spec.seed = 79;
  const Tensor field = data::GenerateTurbulence(spec);
  data::SequenceDataset dataset(field.Clone());

  auto codec = Compressor::Create("zfp");
  SessionOptions options;
  options.bound = {ErrorBoundMode::kRelative, 0.005};
  const core::DatasetArchive archive =
      StreamIn(codec.get(), field, 4, options);
  ASSERT_EQ(archive.entries().size(), 2u);
  EXPECT_EQ(archive.entries()[1].t0, 16);
  EXPECT_EQ(archive.entries()[1].valid_frames, 1);
  const Tensor recon = DecodeAll(codec.get(), archive);
  ASSERT_EQ(recon.shape(), field.shape());
  ExpectPointwiseBound(field, recon, dataset, 0.005);

  // A stream shorter than one window: a single padded record carries it.
  const Tensor short_field = TimeSlice(field, 0, 5);
  data::SequenceDataset short_dataset(short_field.Clone());
  const core::DatasetArchive short_archive =
      StreamIn(codec.get(), short_field, 2, options);
  ASSERT_EQ(short_archive.entries().size(), 1u);
  EXPECT_EQ(short_archive.entries()[0].valid_frames, 5);
  const Tensor short_recon = DecodeAll(codec.get(), short_archive);
  ASSERT_EQ(short_recon.shape(), short_field.shape());
  ExpectPointwiseBound(short_field, short_recon, short_dataset, 0.005);
}

TEST(Session, GlscStreamingMatchesOneShotAndHoldsBound) {
  data::FieldSpec spec;
  spec.variables = 1;
  spec.frames = 20;  // window 8 -> windows at 0, 8 and a 4-frame tail
  spec.height = 16;
  spec.width = 16;
  spec.seed = 89;
  const Tensor field = data::GenerateClimate(spec);
  data::SequenceDataset dataset(field.Clone());

  CodecOptions options;
  options.window = 8;
  options.latent_channels = 4;
  options.hidden_channels = 6;
  options.hyper_channels = 2;
  options.model_channels = 8;
  options.heads = 2;
  options.schedule_steps = 30;
  options.sample_steps = 4;
  auto codec = Compressor::Create("glsc", options);
  TrainOptions train;
  train.vae_iterations = 50;
  train.model_iterations = 30;
  train.batch_size = 2;
  train.crop = 16;
  train.pca_fit_windows = 2;
  codec->Train(dataset, train);

  const double tau = 0.3;
  SessionOptions session_options;
  session_options.bound = {ErrorBoundMode::kPointwiseL2, tau};
  const core::DatasetArchive archive =
      StreamIn(codec.get(), field, 3, session_options);
  ASSERT_EQ(archive.entries().size(), 3u);
  EXPECT_EQ(archive.entries()[2].valid_frames, 4);

  // Chunked == one-shot == cloned-worker fan-out, byte for byte.
  const auto chunked = archive.Serialize();
  EXPECT_EQ(chunked,
            StreamIn(codec.get(), field, 20, session_options).Serialize());
  SessionOptions parallel = session_options;
  parallel.parallelism = 2;
  EXPECT_EQ(chunked, StreamIn(codec.get(), field, 20, parallel).Serialize());

  // Per-frame L2 bound (normalized units -> physical via the frame range)
  // holds on every real frame, tail included.
  const Tensor recon = DecodeAll(codec.get(), archive);
  ASSERT_EQ(recon.shape(), field.shape());
  const std::int64_t hw = 16 * 16;
  for (std::int64_t t = 0; t < field.dim(1); ++t) {
    double l2 = 0.0;
    for (std::int64_t i = 0; i < hw; ++i) {
      const double d = field[t * hw + i] - recon[t * hw + i];
      l2 += d * d;
    }
    EXPECT_LE(std::sqrt(l2), tau * dataset.norm(0, t).range * (1.0 + 1e-3))
        << "t=" << t;
  }
}

// Acceptance: every registered codec round-trips a [2, 40, 32, 32] stream
// (T=40 with window 16 exercises the padded tail) through EncodeSession and
// DecodeScheduler::GetAll, honoring its declared error bound where one exists.
TEST(Session, AllSixCodecsRoundTripStream) {
  data::FieldSpec spec;
  spec.variables = 2;
  spec.frames = 40;
  spec.height = 32;
  spec.width = 32;
  spec.seed = 97;
  const Tensor field = data::GenerateClimate(spec);
  data::SequenceDataset dataset(field.Clone());

  CodecOptions options;
  options.window = 16;
  options.latent_channels = 4;
  options.hidden_channels = 6;
  options.hyper_channels = 2;
  options.model_channels = 8;
  options.heads = 2;
  options.schedule_steps = 20;
  options.sample_steps = 2;
  options.sr_channels = 6;
  TrainOptions train;
  train.vae_iterations = 40;
  train.model_iterations = 25;
  train.batch_size = 2;
  train.crop = 16;
  train.pca_fit_windows = 1;

  for (const auto& name : RegisteredCompressors()) {
    SCOPED_TRACE(name);
    auto codec = Compressor::Create(name, options);
    if (!codec->capabilities().model_free) {
      TrainOptions codec_train = train;
      // vae_sr trains its VAE at crop/2 and needs the full hyperprior
      // geometry there.
      if (name == "vae_sr") codec_train.crop = 32;
      codec->Train(dataset, codec_train);
    }

    SessionOptions session_options;
    double rel_bound = 0.0, l2_bound = 0.0;
    if (codec->capabilities().Supports(ErrorBoundMode::kPointwiseL2)) {
      l2_bound = 0.5;
      session_options.bound = {ErrorBoundMode::kPointwiseL2, l2_bound};
    } else if (codec->capabilities().Supports(ErrorBoundMode::kRelative)) {
      rel_bound = 0.02;
      session_options.bound = {ErrorBoundMode::kRelative, rel_bound};
    }

    const core::DatasetArchive archive =
        StreamIn(codec.get(), field, 9, session_options);
    EXPECT_EQ(archive.codec(), name);
    ASSERT_EQ(archive.entries().size(), 6u);  // 2 vars x (2 full + 1 tail)

    const Tensor recon = DecodeAll(codec.get(), archive);
    ASSERT_EQ(recon.shape(), field.shape());
    EXPECT_TRUE(recon.AllFinite());

    if (rel_bound > 0.0) {
      ExpectPointwiseBound(field, recon, dataset, rel_bound);
    }
    if (l2_bound > 0.0) {
      const std::int64_t hw = 32 * 32;
      for (std::int64_t v = 0; v < 2; ++v) {
        for (std::int64_t t = 0; t < 40; ++t) {
          double l2 = 0.0;
          const float* a = field.data() + (v * 40 + t) * hw;
          const float* b = recon.data() + (v * 40 + t) * hw;
          for (std::int64_t i = 0; i < hw; ++i) {
            const double d = a[i] - b[i];
            l2 += d * d;
          }
          EXPECT_LE(std::sqrt(l2),
                    l2_bound * dataset.norm(v, t).range * (1.0 + 1e-3))
              << "v=" << v << " t=" << t;
        }
      }
    }
  }
}

TEST(Session, DecodeRejectsSlabValidFramesMismatch) {
  // Two variables' records at one t0 claiming different true lengths would
  // leave rows of the decoded slab holding zeros that look like data.
  // GetAll rejects the archive before decoding any record.
  data::FieldSpec spec;
  spec.variables = 1;
  spec.frames = 16;
  spec.height = 32;
  spec.width = 32;
  spec.seed = 101;
  const Tensor field = data::GenerateClimate(spec);
  auto codec = Compressor::Create("sz");
  SessionOptions options;
  options.bound = {ErrorBoundMode::kRelative, 0.01};
  const core::DatasetArchive encoded = StreamIn(codec.get(), field, 16, options);
  ASSERT_EQ(encoded.entries().size(), 1u);

  std::vector<data::FrameNorm> norms(2 * 16, data::FrameNorm{0.0f, 1.0f});
  core::DatasetArchive archive("sz", {2, 16, 32, 32}, 16, norms);
  archive.Add(0, 0, 16, encoded.entries()[0].payload);
  archive.Add(1, 0, 9, encoded.entries()[0].payload);  // disagrees
  const auto reader = core::ArchiveReader::FromBytes(archive.Serialize());
  serve::DecodeScheduler scheduler(&reader, codec.get());
  EXPECT_THROW(scheduler.GetAll(), std::runtime_error);
  EXPECT_EQ(scheduler.decoded_records(), 0);
}

TEST(Session, RejectsGeometryAndLifecycleMisuse) {
  auto codec = Compressor::Create("sz");
  SessionOptions options;
  options.bound = {ErrorBoundMode::kRelative, 0.01};
  EncodeSession session(codec.get(), 2, 16, 16, options);
  EXPECT_THROW(session.Push(Tensor({1, 4, 16, 16})), std::runtime_error);
  EXPECT_THROW(session.Push(Tensor({2, 4, 16, 8})), std::runtime_error);
  EXPECT_THROW(session.Push(Tensor({4, 16, 16})), std::runtime_error);

  Rng rng(7);
  session.Push(Tensor::Randn({2, 4, 16, 16}, rng));
  // An un-pushed session still finishes (empty archive), but only once.
  (void)session.Finish();
  EXPECT_THROW(session.Push(Tensor::Randn({2, 4, 16, 16}, rng)),
               std::runtime_error);
  EXPECT_THROW(session.Finish(), std::runtime_error);
}

// A chunk holding NaN or Inf is rejected with a typed kInvalidArgument
// before the session buffers any of it, so the session goes on as if the
// chunk had never been pushed.
TEST(Session, RejectsNonFiniteChunksAndStaysUnchanged) {
  data::FieldSpec spec;
  spec.variables = 2;
  spec.frames = 24;
  spec.height = 16;
  spec.width = 16;
  spec.seed = 83;
  const Tensor field = data::GenerateClimate(spec);

  // glsc with random-init weights: nothing is trained, only bytes compared.
  CodecOptions glsc_options;
  glsc_options.window = 8;
  glsc_options.latent_channels = 4;
  glsc_options.hidden_channels = 6;
  glsc_options.hyper_channels = 2;
  glsc_options.model_channels = 8;
  glsc_options.heads = 2;
  glsc_options.schedule_steps = 20;
  glsc_options.sample_steps = 2;
  struct Case {
    const char* codec;
    CodecOptions options;
    ErrorBound bound;
  };
  const Case cases[] = {
      {"sz", CodecOptions{}, {ErrorBoundMode::kRelative, 0.01}},
      {"glsc", glsc_options, {ErrorBoundMode::kNone, 0.0}},
  };
  for (const Case& c : cases) {
    auto codec = Compressor::Create(c.codec, c.options);
    SessionOptions options;
    options.bound = c.bound;
    const auto clean = StreamIn(codec.get(), field, 8, options).Serialize();

    EncodeSession session(codec.get(), 2, 16, 16, options);
    session.Push(TimeSlice(field, 0, 8));
    for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::infinity()}) {
      Tensor chunk = TimeSlice(field, 8, 16);
      chunk[(1 * 8 + 5) * 16 * 16 + 17] = bad;  // variable 1, stream frame 13
      try {
        session.Push(chunk);
        ADD_FAILURE() << c.codec << " accepted " << bad;
      } catch (const StatusError& e) {
        EXPECT_EQ(e.code(), ErrorCode::kInvalidArgument) << c.codec;
        EXPECT_NE(std::string(e.what()).find("variable 1, frame 13"),
                  std::string::npos)
            << e.what();
      }
      EXPECT_EQ(session.frames_pushed(), 8) << c.codec << " " << bad;
    }
    session.Push(TimeSlice(field, 8, 16));
    session.Push(TimeSlice(field, 16, 24));
    EXPECT_EQ(session.Finish().Serialize(), clean) << c.codec;
  }
}

}  // namespace
}  // namespace glsc::api
