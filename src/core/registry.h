// Model artifact registry: training on one CPU core is the expensive part of
// every benchmark, so trained models are cached on disk keyed by a config
// tag. Benches and examples call GetOrTrainGlsc / the baseline equivalents;
// set GLSC_RETRAIN=1 to ignore caches.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "compress/vae_trainer.h"
#include "core/glsc_compressor.h"
#include "data/dataset.h"
#include "diffusion/trainer.h"

namespace glsc::core {

struct TrainBudget {
  compress::VaeTrainConfig vae;
  diffusion::DiffusionTrainConfig diffusion;
  // Additional fine-tuning pass at `finetune_steps` (0 = skip), §4.6.
  std::int64_t finetune_steps = 0;
  std::int64_t finetune_iterations = 0;
  // Windows used to fit the PCA correction basis.
  std::int64_t pca_fit_windows = 6;
};

// Returns a trained GLSC compressor, loading from `<artifacts_dir>/<tag>.glsc`
// when present. Training runs both stages + PCA fit and saves the artifact.
std::unique_ptr<GlscCompressor> GetOrTrainGlsc(
    const data::SequenceDataset& dataset, const GlscConfig& config,
    const TrainBudget& budget, const std::string& artifacts_dir,
    const std::string& tag);

// The artifact cache behind every GetOrTrain* (api::GetOrTrainCodec too):
// loads `ArtifactPath(artifacts_dir, tag)` through `load` when it exists and
// GLSC_RETRAIN=1 is not set; otherwise runs `train`, creates `artifacts_dir`
// when missing (throwing if it cannot) and saves through `save`. One
// process-wide lock serializes the calls, so two callers with one tag train
// once: the second waits, then loads what the first saved.
void LoadOrTrainArtifact(const std::string& artifacts_dir,
                         const std::string& tag,
                         const std::function<void(ByteReader*)>& load,
                         const std::function<void()>& train,
                         const std::function<void(ByteWriter*)>& save);

// Generic cached-train helper for the learned baselines: `make` constructs
// the model, `train` trains it; Save/Load round-trips through the cache.
template <typename Model>
std::unique_ptr<Model> GetOrTrain(
    const std::string& artifacts_dir, const std::string& tag,
    const std::function<std::unique_ptr<Model>()>& make,
    const std::function<void(Model*)>& train) {
  auto model = make();
  LoadOrTrainArtifact(
      artifacts_dir, tag, [&](ByteReader* in) { model->Load(in); },
      [&] { train(model.get()); }, [&](ByteWriter* out) { model->Save(out); });
  return model;
}

std::string ArtifactPath(const std::string& artifacts_dir,
                         const std::string& tag);

// Fits the PCA basis from pipeline residuals on training windows.
void FitPcaFromResiduals(GlscCompressor* compressor,
                         const data::SequenceDataset& dataset,
                         std::int64_t fit_windows, std::int64_t crop);

}  // namespace glsc::core
