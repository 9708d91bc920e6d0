// Quickstart: compress and decompress one spatiotemporal window end to end.
//
//   1. generate a synthetic climate field,
//   2. train (or load a cached) GLSC compressor — VAE + hyperprior, latent
//      diffusion with keyframe conditioning, PCA error-bound basis,
//   3. compress a 16-frame window with an error bound,
//   4. decompress and report compression ratio / NRMSE / bound compliance.
//
//   5. lift the trained model into the unified codec API and stream the whole
//      dataset into a codec-agnostic archive (see docs/API.md),
//   6. write the archive to disk and serve a single window back through the
//      random-access reader + decode scheduler — only that record's payload
//      is read and decoded.
//
// Run:  ./examples/quickstart [--tau=0.1] [--steps=32]
#include <cmath>
#include <cstdio>

#include "api/adapters.h"
#include "api/session.h"
#include "core/archive_reader.h"
#include "core/container.h"
#include "core/glsc_compressor.h"
#include "core/registry.h"
#include "data/dataset.h"
#include "data/field_generators.h"
#include "serve/decode_scheduler.h"
#include "tensor/metrics.h"
#include "util/flags.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace glsc;
  Flags flags(argc, argv);
  const double tau = flags.GetDouble("tau", 0.1);
  const auto steps = flags.GetInt("steps", 32);

  // 1. A small climate-like dataset: 1 variable, 48 frames of 32x32.
  data::FieldSpec spec;
  spec.variables = 1;
  spec.frames = 48;
  spec.height = 32;
  spec.width = 32;
  spec.seed = 2024;
  data::SequenceDataset dataset(data::GenerateClimate(spec));
  std::printf("dataset: climate %lld frames of %lldx%lld (%.2f MB)\n",
              static_cast<long long>(dataset.frames()),
              static_cast<long long>(dataset.height()),
              static_cast<long long>(dataset.width()),
              dataset.OriginalBytes() / double(1 << 20));

  // 2. Configure the compressor. These are laptop-scale settings, far
  //    narrower than the paper's models, so training runs on a CPU.
  core::GlscConfig config;
  config.vae.latent_channels = 8;
  config.vae.hidden_channels = 16;
  config.vae.hyper_channels = 4;
  config.unet.latent_channels = 8;
  config.unet.model_channels = 16;
  config.window = 16;
  config.interval = 3;
  config.schedule_steps = 200;
  config.sample_steps = steps;

  core::TrainBudget budget;
  budget.vae.iterations = 400;
  budget.vae.crop = 32;
  budget.diffusion.iterations = 400;
  budget.diffusion.crop = 32;
  budget.finetune_steps = 32;
  budget.finetune_iterations = 100;

  auto compressor = core::GetOrTrainGlsc(dataset, config, budget, "artifacts",
                                         "quickstart_climate");
  std::printf("keyframes per %lld-frame window: {",
              static_cast<long long>(config.window));
  for (const auto k : compressor->keyframe_indices()) {
    std::printf(" %lld", static_cast<long long>(k));
  }
  std::printf(" } — only these frames' latents are stored\n");

  // 3. Compress one window with an L2 error bound per frame.
  const Tensor window = dataset.NormalizedWindow(0, 0, config.window);
  const core::CompressedWindow compressed = compressor->Compress(window, tau);

  // 4. Decompress and report.
  const Tensor recon = compressor->Decompress(compressed);
  const double original_bytes = window.numel() * sizeof(float);
  std::printf("\ncompressed bytes: latents=%zu corrections=%zu header=%zu\n",
              compressed.LatentBytes(), compressed.CorrectionBytes(),
              compressed.HeaderBytes());
  std::printf("compression ratio: %.1fx   NRMSE: %.4e   PSNR: %.1f dB\n",
              original_bytes / compressed.TotalBytes(),
              Nrmse(window, recon), Psnr(window, recon));

  // Verify the per-frame guarantee the postprocessor enforces.
  const std::int64_t hw = window.dim(1) * window.dim(2);
  double worst = 0.0;
  for (std::int64_t f = 0; f < window.dim(0); ++f) {
    double l2 = 0.0;
    for (std::int64_t i = 0; i < hw; ++i) {
      const double d = window[f * hw + i] - recon[f * hw + i];
      l2 += d * d;
    }
    worst = std::max(worst, std::sqrt(l2));
  }
  std::printf("error bound tau=%.3g: worst per-frame L2=%.4g -> %s\n", tau,
              worst, worst <= tau * (1 + 1e-4) ? "GUARANTEED" : "VIOLATED");

  // 5. The same trained model through the unified codec API: stream the full
  //    dataset (tail windows included) into an archive any backend could
  //    have written — swap "glsc" for "sz", "zfp", ... via Compressor::Create.
  const auto codec = api::WrapGlsc(compressor.get());
  api::SessionOptions session_options;
  session_options.bound = {api::ErrorBoundMode::kPointwiseL2, tau};
  api::EncodeSession session(codec.get(), dataset.variables(),
                             dataset.height(), dataset.width(),
                             session_options);
  session.Push(dataset.raw());
  const core::DatasetArchive archive = session.Finish();
  const auto archive_bytes = archive.Serialize();
  std::printf("\nstreamed %lld frames -> %zu '%s' records, %zu archive bytes "
              "(CR %.1fx)\n",
              static_cast<long long>(session.frames_pushed()),
              archive.entries().size(), archive.codec().c_str(),
              archive_bytes.size(),
              dataset.OriginalBytes() / double(archive_bytes.size()));

  // 6. Random access: the v3 footer index lets a reader serve one window
  //    without touching the rest of the archive, and the scheduler's LRU
  //    makes the second fetch free.
  const std::string archive_path = "artifacts/quickstart_stream.glsca";
  archive.WriteFile(archive_path);
  auto reader = core::ArchiveReader::FromFile(archive_path);
  serve::DecodeScheduler scheduler(&reader, codec.get());
  Timer cold;
  const Tensor slice =
      scheduler.Get(0, config.window, 2 * config.window);
  const double t_cold = cold.Seconds();
  Timer warm;
  (void)scheduler.Get(0, config.window, 2 * config.window);
  const double t_warm = warm.Seconds();
  std::printf("random access: frames [%lld, %lld) = %lld x %lldx%lld slice, "
              "%lld of %zu records decoded,\n"
              "  %llu of %llu archive bytes read; cold %.3fs, cached %.4fs\n",
              static_cast<long long>(config.window),
              static_cast<long long>(2 * config.window),
              static_cast<long long>(slice.dim(0)),
              static_cast<long long>(slice.dim(1)),
              static_cast<long long>(slice.dim(2)),
              static_cast<long long>(scheduler.decoded_records()),
              archive.entries().size(),
              static_cast<unsigned long long>(reader.payload_bytes_fetched()),
              static_cast<unsigned long long>(reader.archive_bytes()), t_cold,
              t_warm);
  return 0;
}
