// Shared plumbing for the per-table / per-figure benchmark harnesses.
//
// Every experiment follows the same shape: build the scaled dataset analogue,
// train (or load cached) models, reconstruct all evaluation windows once, and
// sweep the error-bound postprocessing to trace a rate-distortion curve with
// REAL byte counts. This header centralizes the presets and sweep logic so
// each bench_*.cc file reads like the experiment description in the paper.
// The learned baselines come from baselines/: VAE-SR, and CDC, whose
// CdcConfig::block also gives GCD (CDC denoising multi-frame blocks).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "baselines/cdc.h"
#include "baselines/sz_like.h"
#include "baselines/vae_sr.h"
#include "baselines/zfp_like.h"
#include "core/glsc_compressor.h"
#include "core/registry.h"
#include "data/dataset.h"
#include "postprocess/residual_pca.h"

namespace glsc::bench {

// Where trained models are cached between bench runs.
std::string ArtifactsDir();

struct Preset {
  data::DatasetKind kind;
  data::FieldSpec spec;
  core::GlscConfig glsc;
  core::TrainBudget budget;
};

// Bench-scale preset for one dataset analogue: a 48-frame 32x32 field with
// fewer variables than the paper's, and model widths that train on a CPU.
Preset MakePreset(data::DatasetKind kind);

// Smaller/faster preset used by ablation benches that train several model
// variants (Figures 2, 4, 5).
Preset MakeAblationPreset(data::DatasetKind kind);

struct RdPoint {
  double tau = 0.0;
  double cr = 0.0;
  double nrmse = 0.0;
  std::size_t bytes = 0;
};

// A method's uncorrected reconstruction of one normalized window plus the
// base (latent + header) bytes it stored to produce it.
struct WindowRecon {
  Tensor window;  // original normalized frames [N, H, W]
  Tensor recon;   // uncorrected reconstruction, same shape
  std::size_t base_bytes = 0;
  std::int64_t variable = 0;
  std::int64_t t0 = 0;
};

using ReconFn =
    std::function<WindowRecon(const Tensor& window, std::int64_t variable,
                              std::int64_t t0)>;

// Reconstructs every evaluation window once.
std::vector<WindowRecon> ReconstructAll(const data::SequenceDataset& dataset,
                                        std::int64_t window,
                                        const ReconFn& fn);

// Sweeps the PCA error bound over pre-computed reconstructions: for each tau,
// corrections are (re)computed per frame, byte totals accumulated, and NRMSE
// measured on the PHYSICAL (de-normalized) data per Eq. 12.
std::vector<RdPoint> SweepBounds(const data::SequenceDataset& dataset,
                                 const std::vector<WindowRecon>& recons,
                                 const postprocess::ResidualPca& pca,
                                 const std::vector<double>& taus);

// Rule-based curve: sweeps pointwise absolute bounds (relative to the global
// range) through a compressor callback returning (bytes, reconstruction).
using RuleFn = std::function<std::vector<std::uint8_t>(const Tensor& field,
                                                       double abs_bound)>;
using RuleDecodeFn = std::function<Tensor(const std::vector<std::uint8_t>&)>;
std::vector<RdPoint> RuleCurve(const data::SequenceDataset& dataset,
                               const RuleFn& compress,
                               const RuleDecodeFn& decompress,
                               const std::vector<double>& rel_bounds);

// Fits a PCA correction basis from a method's residuals on training windows.
postprocess::ResidualPca FitPcaFor(const data::SequenceDataset& dataset,
                                   std::int64_t window, const ReconFn& fn,
                                   std::int64_t fit_windows,
                                   const postprocess::PcaConfig& config = {});

// Pretty-printing helpers: every bench prints machine-greppable rows.
void PrintHeader(const std::string& title);
void PrintCurve(const std::string& method, const std::vector<RdPoint>& points);
void PrintNote(const std::string& note);

// Default tau ladder for learned-method sweeps (normalized units).
std::vector<double> DefaultTaus();
// Default relative-bound ladder for rule-based sweeps.
std::vector<double> DefaultRelBounds();

}  // namespace glsc::bench
