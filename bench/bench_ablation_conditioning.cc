// Ablation: does the ⊕ keyframe conditioning actually carry
// the information, or would the diffusion prior alone produce similar
// frames? Reconstructs the same windows twice with the SAME trained model —
// once with the true keyframe latents composed in, once with zeroed
// (uninformative) keyframes — and compares per-frame error. If conditioning
// works, the gap is large on generated frames.
//
// Reuses the cached Figure-3a climate model; trains it if missing.
#include <cstdio>

#include "harness.h"
#include "tensor/metrics.h"
#include "tensor/ops.h"

int main() {
  using namespace glsc;
  const bench::Preset preset = bench::MakePreset(data::DatasetKind::kClimate);
  data::SequenceDataset dataset(
      data::GenerateField(data::DatasetKind::kClimate, preset.spec));
  const std::int64_t n = preset.glsc.window;

  bench::PrintHeader(
      "Ablation — keyframe conditioning vs zeroed conditioning "
      "(expected: conditioned reconstruction far better)");

  auto model = core::GetOrTrainGlsc(
      dataset, preset.glsc, preset.budget, bench::ArtifactsDir(),
      std::string("glsc_") + data::DatasetName(preset.kind));
  const auto& key_idx = model->keyframe_indices();
  const auto& gen_idx = model->generated_indices();

  double cond_sq = 0.0, blind_sq = 0.0;
  std::int64_t count = 0;
  const std::int64_t hw = preset.spec.height * preset.spec.width;
  for (const auto& ref : dataset.EvaluationWindows(n)) {
    const Tensor window = dataset.NormalizedWindow(ref.variable, ref.t0, n);

    // Conditioned reconstruction (normal path).
    Tensor cond_recon;
    model->Compress(window, -1.0, 0, &cond_recon);

    // Blind reconstruction: replace the keyframes with zeros before
    // encoding, so the conditioning latents carry no information about this
    // window. The diffusion model still "generates", but blindly.
    Tensor blind_window = window.Clone();
    for (const auto k : key_idx) {
      std::fill_n(blind_window.data() + k * hw, hw, 0.0f);
    }
    Tensor blind_recon;
    model->Compress(blind_window, -1.0, 0, &blind_recon);

    // Compare only on the GENERATED frames (keyframes trivially differ).
    for (const auto g : gen_idx) {
      for (std::int64_t i = 0; i < hw; ++i) {
        const double dc = window[g * hw + i] - cond_recon[g * hw + i];
        const double db = window[g * hw + i] - blind_recon[g * hw + i];
        cond_sq += dc * dc;
        blind_sq += db * db;
      }
      ++count;
    }
  }
  const double cond_rmse = std::sqrt(cond_sq / (count * hw));
  const double blind_rmse = std::sqrt(blind_sq / (count * hw));
  std::printf("generated-frame RMSE: conditioned=%.4e  zeroed=%.4e  "
              "(ratio %.2fx)\n",
              cond_rmse, blind_rmse, blind_rmse / cond_rmse);
  std::printf("conditioning carries the signal: %s\n",
              blind_rmse > 1.3 * cond_rmse ? "REPRODUCED" : "NOT reproduced");
  return 0;
}
