#include "core/registry.h"

#include <cstdlib>
#include <filesystem>

#include "tensor/ops.h"
#include "util/logging.h"
#include "util/mutex.h"
#include "util/timer.h"

namespace glsc::core {

namespace {

bool RetrainRequested() {
  const char* env = std::getenv("GLSC_RETRAIN");
  return env != nullptr && env[0] == '1';
}

// Creates `artifacts_dir` (and parents) when missing; throws if the path
// cannot be created or is not a directory, so a bad cache location fails
// loudly instead of silently dropping the trained artifact.
void EnsureArtifactsDir(const std::string& artifacts_dir) {
  std::error_code ec;
  std::filesystem::create_directories(artifacts_dir, ec);
  GLSC_CHECK_MSG(!ec, "cannot create artifacts dir " << artifacts_dir << ": "
                                                     << ec.message());
  GLSC_CHECK_MSG(std::filesystem::is_directory(artifacts_dir),
                 artifacts_dir << " exists but is not a directory");
}

// Stage 1 (VAE), stage 2 (latent diffusion, plus the optional fine-tune pass
// of §4.6) and stage 3 (PCA residual basis).
void TrainGlsc(GlscCompressor* compressor,
               const data::SequenceDataset& dataset, const GlscConfig& config,
               const TrainBudget& budget, const std::string& tag) {
  LOG_INFO << "training GLSC model '" << tag << "' (stage 1: VAE)";
  compress::TrainVae(&compressor->vae(), dataset, budget.vae);

  LOG_INFO << "stage 2: latent diffusion (" << budget.diffusion.iterations
           << " iters)";
  diffusion::DiffusionTrainConfig diff_cfg = budget.diffusion;
  diff_cfg.window = config.window;
  diff_cfg.strategy = config.strategy;
  diff_cfg.interval = config.interval;
  diff_cfg.key_count = config.key_count;
  TrainDiffusion(&compressor->unet(), compressor->schedule(),
                 &compressor->vae(), dataset, diff_cfg);

  if (budget.finetune_steps > 0 && budget.finetune_iterations > 0) {
    LOG_INFO << "stage 2b: fine-tune at " << budget.finetune_steps << " steps";
    diffusion::DiffusionTrainConfig ft_cfg = diff_cfg;
    ft_cfg.iterations = budget.finetune_iterations;
    ft_cfg.finetune_steps = budget.finetune_steps;
    ft_cfg.seed = diff_cfg.seed + 1;
    TrainDiffusion(&compressor->unet(), compressor->schedule(),
                   &compressor->vae(), dataset, ft_cfg);
  }

  LOG_INFO << "stage 3: PCA residual basis";
  FitPcaFromResiduals(compressor, dataset, budget.pca_fit_windows,
                      budget.diffusion.crop);
}

}  // namespace

std::string ArtifactPath(const std::string& artifacts_dir,
                         const std::string& tag) {
  return artifacts_dir + "/" + tag + ".glsc";
}

void LoadOrTrainArtifact(const std::string& artifacts_dir,
                         const std::string& tag,
                         const std::function<void(ByteReader*)>& load,
                         const std::function<void()>& train,
                         const std::function<void(ByteWriter*)>& save) {
  // Held across training, which is the point: without it two calls with one
  // tag would both miss the file check, train twice and interleave their
  // writes.
  static Mutex artifact_mu{"core.artifact_mu"};
  MutexLock lock(artifact_mu);
  const std::string path = ArtifactPath(artifacts_dir, tag);
  if (!RetrainRequested() && FileExists(path)) {
    std::vector<std::uint8_t> bytes;
    GLSC_CHECK(ReadFileBytes(path, &bytes));
    ByteReader in(bytes);
    load(&in);
    LOG_INFO << "loaded cached model " << path;
    return;
  }
  Timer timer;
  train();
  EnsureArtifactsDir(artifacts_dir);
  ByteWriter out;
  save(&out);
  WriteFileBytes(path, out.bytes());
  LOG_INFO << "trained + cached " << path << " in " << timer.Seconds()
           << "s (" << out.size() << " bytes)";
}

void FitPcaFromResiduals(GlscCompressor* compressor,
                         const data::SequenceDataset& dataset,
                         std::int64_t fit_windows, std::int64_t crop) {
  Rng rng(101);
  std::vector<Tensor> residual_frames;
  const std::int64_t n = compressor->config().window;
  for (std::int64_t i = 0; i < fit_windows; ++i) {
    const Tensor window = dataset.SampleTrainingWindow(n, crop, rng);
    const Tensor recon =
        compressor->Reconstruct(window, static_cast<std::uint32_t>(7 + i));
    const Tensor residual = Sub(window, recon);
    const std::int64_t hw = window.dim(1) * window.dim(2);
    for (std::int64_t f = 0; f < n; ++f) {
      Tensor frame({window.dim(1), window.dim(2)});
      std::copy_n(residual.data() + f * hw, hw, frame.data());
      residual_frames.push_back(std::move(frame));
    }
  }
  compressor->pca().Fit(residual_frames);
}

std::unique_ptr<GlscCompressor> GetOrTrainGlsc(
    const data::SequenceDataset& dataset, const GlscConfig& config,
    const TrainBudget& budget, const std::string& artifacts_dir,
    const std::string& tag) {
  auto compressor = std::make_unique<GlscCompressor>(config);
  GlscCompressor* model = compressor.get();
  LoadOrTrainArtifact(
      artifacts_dir, tag, [model](ByteReader* in) { model->Load(in); },
      [&] { TrainGlsc(model, dataset, config, budget, tag); },
      [model](ByteWriter* out) { model->Save(out); });
  return compressor;
}

}  // namespace glsc::core
