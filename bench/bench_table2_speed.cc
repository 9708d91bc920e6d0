// Table 2: encode / decode throughput (MB/s) for the generation-based
// codecs. Paper shape (CPU analogue of the A100/RTX rows): encoding is a
// single lightweight VAE pass for every method; decoding runs the reverse
// diffusion — in PIXEL space for CDC and GCD (both CDCCompressor: per-frame,
// and 8-frame blocks), in LATENT space for ours — so our decode is 1-2
// orders of magnitude faster at matched steps and scales inversely with step
// count.
#include <cstdio>

#include "harness.h"
#include "util/timer.h"

namespace {

using namespace glsc;

struct SpeedRow {
  std::string method;
  double encode_mbps;
  double decode_mbps;
};

void Print(const SpeedRow& row) {
  std::printf("%-16s encode %8.2f MB/s    decode %8.4f MB/s\n",
              row.method.c_str(), row.encode_mbps, row.decode_mbps);
  std::fflush(stdout);
}

}  // namespace

int main() {
  const bench::Preset preset = bench::MakePreset(data::DatasetKind::kClimate);
  data::SequenceDataset dataset(
      data::GenerateField(data::DatasetKind::kClimate, preset.spec));
  const std::int64_t n = preset.glsc.window;
  const std::string tag = data::DatasetName(preset.kind);

  bench::PrintHeader(
      "Table 2 — Inference speed on this host "
      "(paper: ours > CDC > GCD, decode scales ~1/steps)");

  // Fixed corpus: all evaluation windows of variable 0.
  std::vector<Tensor> corpus;
  for (const auto& ref : dataset.EvaluationWindows(n)) {
    if (ref.variable != 0) continue;
    corpus.push_back(dataset.NormalizedWindow(ref.variable, ref.t0, n));
  }
  double corpus_mb = 0.0;
  for (const auto& w : corpus) {
    corpus_mb += static_cast<double>(w.numel()) * sizeof(float) / (1 << 20);
  }
  std::printf("corpus: %zu windows, %.2f MB\n", corpus.size(), corpus_mb);

  // ---- CDC (both parameterizations) ----
  for (const bool is_eps : {false, true}) {
    baselines::CdcConfig config;
    config.vae = preset.glsc.vae;
    config.vae.seed += is_eps ? 200 : 300;
    config.model_channels = 16;
    config.schedule_steps = preset.glsc.schedule_steps;
    config.target = is_eps ? baselines::PredictTarget::kEpsilon
                           : baselines::PredictTarget::kX0;
    auto cdc = core::GetOrTrain<baselines::CDCCompressor>(
        bench::ArtifactsDir(), (is_eps ? "cdc_eps_" : "cdc_x_") + tag,
        [&] { return std::make_unique<baselines::CDCCompressor>(config); },
        [&](baselines::CDCCompressor* m) {
          m->Train(dataset, preset.budget.vae,
                   preset.budget.diffusion.iterations, 32);
        });

    std::vector<baselines::CDCCompressor::Compressed> streams;
    Timer enc;
    for (const auto& w : corpus) streams.push_back(cdc->Compress(w));
    const double t_enc = enc.Seconds();
    Rng rng(5);
    Timer dec;
    for (const auto& s : streams) cdc->Decompress(s, 32, rng);
    const double t_dec = dec.Seconds();
    Print({is_eps ? "CDC-eps" : "CDC-X", corpus_mb / t_enc,
           corpus_mb / t_dec});
  }

  // ---- GCD: CDC denoising 8-frame blocks ----
  {
    baselines::CdcConfig config;
    config.vae = preset.glsc.vae;
    config.vae.seed += 400;
    config.model_channels = 16;
    config.schedule_steps = preset.glsc.schedule_steps;
    config.block = 8;
    config.seed = 61;
    auto gcd = core::GetOrTrain<baselines::CDCCompressor>(
        bench::ArtifactsDir(), "gcd_" + tag,
        [&] { return std::make_unique<baselines::CDCCompressor>(config); },
        [&](baselines::CDCCompressor* m) {
          m->Train(dataset, preset.budget.vae,
                   preset.budget.diffusion.iterations, 32);
        });
    std::vector<baselines::CDCCompressor::Compressed> streams;
    Timer enc;
    for (const auto& w : corpus) {
      for (std::int64_t f0 = 0; f0 + 8 <= n; f0 += 8) {
        streams.push_back(gcd->Compress(w.Slice0(f0, f0 + 8)));
      }
    }
    const double t_enc = enc.Seconds();
    Rng rng(7);
    Timer dec;
    for (const auto& s : streams) gcd->Decompress(s, 32, rng);
    const double t_dec = dec.Seconds();
    Print({"GCD", corpus_mb / t_enc, corpus_mb / t_dec});
  }

  // ---- Ours at {64, 32, 8} steps ----
  {
    auto ours = core::GetOrTrainGlsc(dataset, preset.glsc, preset.budget,
                                     bench::ArtifactsDir(), "glsc_" + tag);
    // Encoding does not depend on the step count: keyframes through the VAE
    // and entropy coder.
    std::vector<core::CompressedWindow> streams;
    Timer enc;
    for (const auto& w : corpus) {
      const Tensor keys = diffusion::GatherFrames(w, ours->keyframe_indices());
      auto bits = ours->vae().Compress(
          keys.Reshape({keys.dim(0), 1, keys.dim(1), keys.dim(2)}));
      core::CompressedWindow cw;
      cw.keyframes = std::move(bits);
      cw.window_shape = w.shape();
      streams.push_back(std::move(cw));
    }
    const double t_enc = enc.Seconds();

    for (const std::int64_t steps : {64, 32, 8}) {
      Timer dec;
      for (const auto& s : streams) ours->Decompress(s, steps);
      const double t_dec = dec.Seconds();
      Print({"Ours-" + std::to_string(steps) + "-steps", corpus_mb / t_enc,
             corpus_mb / t_dec});
    }
  }

  bench::PrintNote(
      "paper claims at 32 steps: >2x CDC encode, >15x CDC decode, >3x/200x "
      "GCD — check the ratios above");
  return 0;
}
