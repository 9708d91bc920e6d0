// File-level compression tool: the workflow an HPC facility would wire into
// its I/O pipeline. Takes raw float32 input (or generates a demo field),
// streams it chunk by chunk through the unified codec API into a .glsca
// archive on disk, then restores it and reports the achieved ratio and error.
//
//   ./examples/file_compressor --demo                      # synthetic field
//   ./examples/file_compressor --input=field.f32 --variables=2 [...]   # your data
//   options: --codec=glsc|sz|zfp|cdc|gcd|vae_sr (backend, default glsc)
//            --tau=0.1 (error bound), --output=out.glsca, --chunk=8
//
// Input layout: [variables, frames, height, width] row-major float32.
// Learned codecs (glsc, cdc, gcd, vae_sr) need height/width to be multiples
// of 16 (VAE + hyperprior geometry); the rule-based codecs take any shape.
//
// The error bound maps to what the chosen backend can guarantee: a per-frame
// L2 bound of tau (normalized units) for glsc, a pointwise relative bound of
// tau * frame-range for sz/zfp, best effort for the other learned codecs.
#include <cstdio>

#include "api/adapters.h"
#include "api/session.h"
#include "core/archive_reader.h"
#include "core/container.h"
#include "core/registry.h"
#include "data/field_generators.h"
#include "serve/decode_scheduler.h"
#include "tensor/metrics.h"
#include "util/flags.h"
#include "util/logging.h"

int main(int argc, char** argv) {
  using namespace glsc;
  Flags flags(argc, argv);
  const double tau = flags.GetDouble("tau", 0.1);
  const std::string output = flags.GetString("output", "compressed.glsca");
  const std::string codec_name = flags.GetString("codec", "glsc");

  // ---- load or synthesize the input field ----
  Tensor field;
  if (flags.Has("input")) {
    const auto v = flags.GetInt("variables", 1);
    const auto t = flags.GetInt("frames", 48);
    const auto h = flags.GetInt("height", 32);
    const auto w = flags.GetInt("width", 32);
    std::vector<std::uint8_t> bytes;
    if (!ReadFileBytes(flags.GetString("input", ""), &bytes)) {
      std::fprintf(stderr, "cannot read %s\n",
                   flags.GetString("input", "").c_str());
      return 1;
    }
    const std::size_t expect =
        static_cast<std::size_t>(v * t * h * w) * sizeof(float);
    if (bytes.size() != expect) {
      std::fprintf(stderr, "input is %zu bytes, expected %zu for %lldx%lldx%lldx%lld f32\n",
                   bytes.size(), expect, (long long)v, (long long)t,
                   (long long)h, (long long)w);
      return 1;
    }
    field = Tensor({v, t, h, w});
    std::memcpy(field.data(), bytes.data(), bytes.size());
  } else {
    std::printf("no --input given; generating a demo climate field\n");
    data::FieldSpec spec;
    spec.variables = 1;
    spec.frames = 48;
    spec.height = 32;
    spec.width = 32;
    spec.seed = 5150;
    field = data::GenerateClimate(spec);
  }

  // ---- pick the backend and validate geometry BEFORE any training ----
  api::CodecOptions codec_options;
  codec_options.window = 16;
  auto probe = api::Compressor::Create(codec_name, codec_options);
  if (!probe->capabilities().model_free &&
      (field.dim(2) % 16 != 0 || field.dim(3) % 16 != 0)) {
    std::fprintf(stderr,
                 "error: codec '%s' needs height and width to be multiples of "
                 "16 (VAE + hyperprior geometry), got %lldx%lld.\n"
                 "Pad the field or use a rule-based codec (--codec=sz|zfp).\n",
                 codec_name.c_str(), (long long)field.dim(2),
                 (long long)field.dim(3));
    return 1;
  }

  data::SequenceDataset dataset(field);

  // ---- model (trained once per config, cached; model-free codecs skip) ----
  api::TrainOptions train;
  train.vae_iterations = 400;
  train.model_iterations = 400;
  train.crop = 32;
  auto codec = api::GetOrTrainCodec(codec_name, codec_options, dataset, train,
                                    "artifacts", "file_compressor_" + codec_name);

  // ---- stream -> archive -> restore ----
  api::SessionOptions session_options;
  if (tau > 0.0) {
    if (codec->capabilities().Supports(api::ErrorBoundMode::kPointwiseL2)) {
      session_options.bound = {api::ErrorBoundMode::kPointwiseL2, tau};
    } else if (codec->capabilities().Supports(api::ErrorBoundMode::kRelative)) {
      session_options.bound = {api::ErrorBoundMode::kRelative, tau};
    } else {
      std::printf("codec '%s' is best-effort; --tau ignored\n",
                  codec_name.c_str());
    }
  } else if (!codec->capabilities().Supports(api::ErrorBoundMode::kNone)) {
    std::fprintf(stderr,
                 "error: codec '%s' is error-bounded and needs --tau > 0\n",
                 codec_name.c_str());
    return 1;
  }
  api::EncodeSession session(codec.get(), field.dim(0), field.dim(2),
                             field.dim(3), session_options);
  // Feed the stream in chunks, as an I/O pipeline would (records are emitted
  // as windows fill; any chunking yields the identical archive).
  const std::int64_t chunk_frames = flags.GetInt("chunk", 8);
  const std::int64_t frames = field.dim(1);
  for (std::int64_t t0 = 0; t0 < frames; t0 += chunk_frames) {
    const std::int64_t t1 = std::min(frames, t0 + chunk_frames);
    Tensor chunk({field.dim(0), t1 - t0, field.dim(2), field.dim(3)});
    const std::int64_t hw = field.dim(2) * field.dim(3);
    for (std::int64_t v = 0; v < field.dim(0); ++v) {
      std::copy_n(field.data() + (v * frames + t0) * hw, (t1 - t0) * hw,
                  chunk.data() + v * (t1 - t0) * hw);
    }
    session.Push(chunk);
  }
  const core::DatasetArchive archive = session.Finish();
  archive.WriteFile(output);
  std::vector<std::uint8_t> on_disk;
  GLSC_CHECK(ReadFileBytes(output, &on_disk));

  const auto reader = core::ArchiveReader::FromFile(output);
  serve::DecodeScheduler scheduler(&reader, codec.get());
  const Tensor restored = scheduler.GetAll();

  const double original_bytes =
      static_cast<double>(dataset.OriginalBytes());
  std::printf("\n[%s] wrote %s: %zu bytes (original %.0f) -> CR %.1fx\n",
              codec_name.c_str(), output.c_str(), on_disk.size(),
              original_bytes,
              original_bytes / static_cast<double>(on_disk.size()));
  std::printf("restored NRMSE: %.4e   max |err| / range: %.4e\n",
              Nrmse(field, restored),
              MaxAbsError(field, restored) /
                  (field.MaxValue() - field.MinValue()));
  if (session_options.bound.mode != api::ErrorBoundMode::kNone) {
    std::printf("error bound tau=%.3g enforced by construction (%s mode)\n",
                tau,
                session_options.bound.mode == api::ErrorBoundMode::kPointwiseL2
                    ? "per-frame L2"
                    : "pointwise relative");
  }
  return 0;
}
