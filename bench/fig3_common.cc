#include "fig3_common.h"

#include <algorithm>
#include <cstdio>

#include "harness.h"
#include "util/logging.h"
#include "util/timer.h"

namespace glsc::bench {
namespace {

// Header bytes a per-frame learned codec must store alongside its latents:
// per-frame normalization pair + window geometry.
std::size_t FrameHeaderBytes(std::int64_t frames) {
  return 12 + static_cast<std::size_t>(frames) * 2 * sizeof(float);
}

compress::VaeTrainConfig BaselineVaeTrain(const core::TrainBudget& budget) {
  compress::VaeTrainConfig cfg = budget.vae;
  return cfg;
}

// Finds, for a set of reference NRMSE levels, the CR each method achieves by
// interpolating its curve; used for the headline "ours vs X" ratios.
double CrAtNrmse(const std::vector<RdPoint>& curve, double target) {
  // Curves are swept from loose to tight; find the two points bracketing the
  // target and interpolate CR in log space.
  for (std::size_t i = 1; i < curve.size(); ++i) {
    const double hi = curve[i - 1].nrmse;
    const double lo = curve[i].nrmse;
    if (target <= hi && target >= lo) {
      const double t = (std::log(target) - std::log(lo)) /
                       std::max(std::log(hi) - std::log(lo), 1e-12);
      return std::exp(std::log(curve[i].cr) +
                      t * (std::log(curve[i - 1].cr) - std::log(curve[i].cr)));
    }
  }
  return 0.0;  // target outside the measured range
}

}  // namespace

void RunFig3(data::DatasetKind kind, const std::string& figure_name,
             const Fig3Options& options) {
  const Preset preset = MakePreset(kind);
  data::SequenceDataset dataset(data::GenerateField(kind, preset.spec));
  const std::string dataset_tag = data::DatasetName(kind);
  const std::int64_t window = preset.glsc.window;

  PrintHeader(figure_name + " — CR vs NRMSE on " + dataset_tag +
              " (paper: learned >> rule-based; Ours > VAE-SR > CDC)");

  // ---------------- rule-based baselines ----------------
  {
    baselines::SZLikeCompressor sz;
    const auto curve = RuleCurve(
        dataset,
        [&sz](const Tensor& f, double b) { return sz.Compress(f, b); },
        [&sz](const std::vector<std::uint8_t>& s) { return sz.Decompress(s); },
        DefaultRelBounds());
    PrintCurve("SZ3-like", curve);
  }
  {
    baselines::ZFPLikeCompressor zfp;
    const auto curve = RuleCurve(
        dataset,
        [&zfp](const Tensor& f, double b) { return zfp.Compress(f, b); },
        [&zfp](const std::vector<std::uint8_t>& s) { return zfp.Decompress(s); },
        DefaultRelBounds());
    PrintCurve("ZFP-like", curve);
  }

  // ---------------- ours ----------------
  Timer timer;
  auto ours = core::GetOrTrainGlsc(dataset, preset.glsc, preset.budget,
                                   ArtifactsDir(),
                                   std::string("glsc_") + dataset_tag);
  ReconFn ours_fn = [&](const Tensor& w, std::int64_t, std::int64_t) {
    Tensor recon;
    const auto compressed = ours->Compress(w, -1.0, options.decode_steps, &recon);
    return WindowRecon{w, recon,
                       compressed.LatentBytes() + compressed.HeaderBytes()};
  };
  const auto ours_recons = ReconstructAll(dataset, window, ours_fn);
  const auto ours_curve =
      SweepBounds(dataset, ours_recons, ours->pca(), DefaultTaus());
  PrintCurve("Ours", ours_curve);
  auto base_bytes = [](const std::vector<WindowRecon>& recons) {
    std::size_t total = 0;
    for (const auto& r : recons) total += r.base_bytes;
    return total / std::max<std::size_t>(recons.size(), 1);
  };
  const std::size_t ours_base = base_bytes(ours_recons);
  PrintNote("Ours stores " + std::to_string(ours_base) +
            " base bytes/window (keyframe latents only)");

  // ---------------- VAE-SR ----------------
  std::vector<RdPoint> vaesr_curve;
  {
    baselines::VaeSrConfig config;
    config.vae = preset.glsc.vae;
    config.vae.seed += 100;
    config.sr_channels = 16;
    auto vaesr = core::GetOrTrain<baselines::VAESRCompressor>(
        ArtifactsDir(), std::string("vaesr_") + dataset_tag,
        [&] { return std::make_unique<baselines::VAESRCompressor>(config); },
        [&](baselines::VAESRCompressor* m) {
          m->Train(dataset, BaselineVaeTrain(preset.budget),
                   /*sr_iters=*/preset.budget.vae.iterations, /*crop=*/32);
        });
    ReconFn fn = [&](const Tensor& w, std::int64_t, std::int64_t) {
      const auto compressed = vaesr->Compress(w);
      return WindowRecon{w, vaesr->Decompress(compressed),
                         compressed.frames.TotalBytes() +
                             FrameHeaderBytes(w.dim(0))};
    };
    const auto pca = FitPcaFor(dataset, window, fn, 3);
    const auto recons = ReconstructAll(dataset, window, fn);
    vaesr_curve = SweepBounds(dataset, recons, pca, DefaultTaus());
    PrintCurve("VAE-SR", vaesr_curve);
    std::size_t total = 0;
    for (const auto& r : recons) total += r.base_bytes;
    PrintNote("VAE-SR stores " + std::to_string(total / recons.size()) +
              " base bytes/window (low-res latents for EVERY frame)");
  }

  // ---------------- CDC (both parameterizations) ----------------
  for (const auto target : {baselines::PredictTarget::kEpsilon,
                            baselines::PredictTarget::kX0}) {
    const bool is_eps = target == baselines::PredictTarget::kEpsilon;
    baselines::CdcConfig config;
    config.vae = preset.glsc.vae;
    config.vae.seed += is_eps ? 200 : 300;
    config.model_channels = 16;
    config.schedule_steps = preset.glsc.schedule_steps;
    config.target = target;
    const std::string tag =
        std::string(is_eps ? "cdc_eps_" : "cdc_x_") + dataset_tag;
    auto cdc = core::GetOrTrain<baselines::CDCCompressor>(
        ArtifactsDir(), tag,
        [&] { return std::make_unique<baselines::CDCCompressor>(config); },
        [&](baselines::CDCCompressor* m) {
          m->Train(dataset, BaselineVaeTrain(preset.budget),
                   /*diffusion_iters=*/400, /*crop=*/32);
        });
    ReconFn fn = [&](const Tensor& w, std::int64_t v, std::int64_t t0) {
      const auto compressed = cdc->Compress(w);
      Rng rng(static_cast<std::uint64_t>(v * 1000 + t0));
      return WindowRecon{w, cdc->Decompress(compressed, options.decode_steps, rng),
                         compressed.frames.TotalBytes() +
                             FrameHeaderBytes(w.dim(0))};
    };
    const auto pca = FitPcaFor(dataset, window, fn, 3);
    const auto curve = SweepBounds(dataset, ReconstructAll(dataset, window, fn),
                                   pca, DefaultTaus());
    PrintCurve(is_eps ? "CDC-eps" : "CDC-X", curve);
  }

  // ---------------- GCD: CDC with 8-frame blocks (Fig. 3a only) ----------
  if (options.include_gcd) {
    baselines::CdcConfig config;
    config.vae = preset.glsc.vae;
    config.vae.seed += 400;
    config.model_channels = 16;
    config.schedule_steps = preset.glsc.schedule_steps;
    config.block = 8;
    config.seed = 61;
    auto gcd = core::GetOrTrain<baselines::CDCCompressor>(
        ArtifactsDir(), std::string("gcd_") + dataset_tag,
        [&] { return std::make_unique<baselines::CDCCompressor>(config); },
        [&](baselines::CDCCompressor* m) {
          m->Train(dataset, BaselineVaeTrain(preset.budget),
                   /*diffusion_iters=*/250, /*crop=*/32);
        });
    ReconFn fn = [&](const Tensor& w, std::int64_t v, std::int64_t t0) {
      // GCD blocks are 8 frames; tile the 16-frame eval window.
      WindowRecon out{w, Tensor(w.shape()), 0};
      Rng rng(static_cast<std::uint64_t>(v * 1000 + t0) + 5);
      const std::int64_t block = gcd->block();
      for (std::int64_t f0 = 0; f0 < w.dim(0); f0 += block) {
        const Tensor chunk = w.Slice0(f0, f0 + block);
        const auto compressed = gcd->Compress(chunk);
        const Tensor rec = gcd->Decompress(compressed, options.decode_steps, rng);
        std::copy_n(rec.data(), rec.numel(),
                    out.recon.data() + f0 * w.dim(1) * w.dim(2));
        out.base_bytes += compressed.frames.TotalBytes();
      }
      out.base_bytes += FrameHeaderBytes(w.dim(0));
      return out;
    };
    const auto pca = FitPcaFor(dataset, window, fn, 2);
    const auto curve = SweepBounds(dataset, ReconstructAll(dataset, window, fn),
                                   pca, DefaultTaus());
    PrintCurve("GCD", curve);
  }

  // ---------------- paper-shape summary ----------------
  PrintNote("elapsed " + std::to_string(timer.Seconds()) + "s");
  const double ref = ours_curve[ours_curve.size() / 2].nrmse;
  const double ours_cr = CrAtNrmse(ours_curve, ref);
  const double vaesr_cr = CrAtNrmse(vaesr_curve, ref);
  if (ours_cr > 0.0 && vaesr_cr > 0.0) {
    std::printf(
        "  summary: at NRMSE=%.3e  CR(ours)=%.1f  CR(VAE-SR)=%.1f  "
        "ours/VAE-SR=%.2fx (paper: 1.2-1.63x)\n",
        ref, ours_cr, vaesr_cr, ours_cr / vaesr_cr);
  }
}

}  // namespace glsc::bench
