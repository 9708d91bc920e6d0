#include "api/adapters.h"

#include <algorithm>
#include <cstring>
#include <iterator>
#include <utility>

#include "compress/vae_trainer.h"
#include "core/container.h"
#include "core/registry.h"
#include "diffusion/trainer.h"
#include "util/check.h"

namespace glsc::api {
namespace {

void CheckBoundSupported(const Compressor& codec, const ErrorBound& bound) {
  GLSC_CHECK_MSG(codec.capabilities().Supports(bound.mode),
                 "codec '" << codec.name() << "' does not support bound mode "
                           << static_cast<int>(bound.mode));
}

// Converts a physical/relative pointwise bound to the normalized frame
// representation the codecs operate in. Relative bounds map 1:1 (normalized
// frames have unit range); absolute bounds divide by the LARGEST per-frame
// range so the guarantee holds on every frame after de-normalization.
double NormalizedPointwiseBound(const ErrorBound& bound,
                                const std::vector<data::FrameNorm>& norms) {
  GLSC_CHECK_MSG(bound.value > 0.0, "error bound must be positive");
  if (bound.mode == ErrorBoundMode::kRelative) return bound.value;
  GLSC_CHECK(bound.mode == ErrorBoundMode::kAbsolute);
  GLSC_CHECK_MSG(!norms.empty(),
                 "absolute bounds need per-frame norms to convert units");
  float max_range = 0.0f;
  for (const auto& n : norms) max_range = std::max(max_range, n.range);
  return bound.value / max_range;
}

// Deterministic per-content noise seed for the stochastic decoders (CDC/GCD
// draw their diffusion noise at decode time only): FNV-1a over the window
// contents, so distinct windows decode with distinct draws while repeated
// decodes of one record are bit-reproducible.
std::uint32_t DeriveSeed(const Tensor& window, std::uint32_t salt) {
  std::uint32_t h = 2166136261u ^ salt;
  const float* p = window.data();
  for (std::int64_t i = 0; i < window.numel(); ++i) {
    std::uint32_t bits;
    std::memcpy(&bits, &p[i], sizeof bits);
    for (int b = 0; b < 4; ++b) {
      h = (h ^ ((bits >> (8 * b)) & 0xFFu)) * 16777619u;
    }
  }
  return h;
}

compress::VaeTrainConfig MakeVaeTrain(const TrainOptions& options) {
  compress::VaeTrainConfig cfg;
  cfg.iterations = options.vae_iterations;
  cfg.batch_size = options.batch_size;
  cfg.crop = options.crop;
  cfg.lambda_double_at = std::max<std::int64_t>(options.vae_iterations / 2, 1);
  cfg.log_every = options.verbose ? 200 : 0;
  return cfg;
}

}  // namespace

// ---------------------------------------------------------------------------
// SZ / ZFP
// ---------------------------------------------------------------------------

Capabilities SzAdapter::capabilities() const {
  Capabilities caps;
  caps.bound_modes = BoundModeBit(ErrorBoundMode::kAbsolute) |
                     BoundModeBit(ErrorBoundMode::kRelative);
  caps.model_free = true;
  return caps;
}

std::vector<std::uint8_t> SzAdapter::CompressWindow(
    const Tensor& window, const ErrorBound& bound,
    const std::vector<data::FrameNorm>& norms) {
  CheckBoundSupported(*this, bound);
  return codec_.Compress(window, NormalizedPointwiseBound(bound, norms));
}

Tensor SzAdapter::DecompressWindow(const std::vector<std::uint8_t>& payload) {
  return codec_.Decompress(payload);
}

Tensor SzAdapter::DecompressWindow(const std::vector<std::uint8_t>& payload,
                                   tensor::Workspace* ws) {
  return codec_.Decompress(payload, ws);
}

Capabilities ZfpAdapter::capabilities() const {
  Capabilities caps;
  caps.bound_modes = BoundModeBit(ErrorBoundMode::kAbsolute) |
                     BoundModeBit(ErrorBoundMode::kRelative);
  caps.model_free = true;
  return caps;
}

std::vector<std::uint8_t> ZfpAdapter::CompressWindow(
    const Tensor& window, const ErrorBound& bound,
    const std::vector<data::FrameNorm>& norms) {
  CheckBoundSupported(*this, bound);
  return codec_.Compress(window, NormalizedPointwiseBound(bound, norms));
}

Tensor ZfpAdapter::DecompressWindow(const std::vector<std::uint8_t>& payload) {
  return codec_.Decompress(payload);
}

// ---------------------------------------------------------------------------
// GLSC
// ---------------------------------------------------------------------------

namespace {

core::GlscConfig MakeGlscConfig(const CodecOptions& options) {
  core::GlscConfig cfg;
  cfg.vae.latent_channels = options.latent_channels;
  cfg.vae.hidden_channels = options.hidden_channels;
  cfg.vae.hyper_channels = options.hyper_channels;
  cfg.vae.seed = options.seed;
  cfg.unet.latent_channels = options.latent_channels;
  cfg.unet.model_channels = options.model_channels;
  cfg.unet.heads = options.heads;
  cfg.schedule_steps = options.schedule_steps;
  cfg.window = options.window;
  cfg.interval = options.interval;
  cfg.sample_steps = options.sample_steps;
  return cfg;
}

}  // namespace

GlscAdapter::GlscAdapter(const CodecOptions& options)
    : GlscAdapter(MakeGlscConfig(options), options.sample_steps) {}

GlscAdapter::GlscAdapter(const core::GlscConfig& config,
                         std::int64_t sample_steps)
    : sample_steps_(sample_steps),
      owned_(std::make_unique<core::GlscCompressor>(config)),
      glsc_(owned_.get()) {}

GlscAdapter::GlscAdapter(core::GlscCompressor* borrowed,
                         std::int64_t sample_steps)
    : sample_steps_(sample_steps), glsc_(borrowed) {
  GLSC_CHECK(borrowed != nullptr);
}

Capabilities GlscAdapter::capabilities() const {
  Capabilities caps;
  caps.bound_modes = BoundModeBit(ErrorBoundMode::kNone) |
                     BoundModeBit(ErrorBoundMode::kPointwiseL2);
  return caps;
}

std::vector<std::uint8_t> GlscAdapter::CompressWindow(
    const Tensor& window, const ErrorBound& bound,
    const std::vector<data::FrameNorm>& norms) {
  return CompressWindow(window, bound, norms, /*ws=*/nullptr);
}

Tensor GlscAdapter::DecompressWindow(const std::vector<std::uint8_t>& payload) {
  return DecompressWindow(payload, /*ws=*/nullptr);
}

std::vector<std::uint8_t> GlscAdapter::CompressWindow(
    const Tensor& window, const ErrorBound& bound,
    const std::vector<data::FrameNorm>& norms, tensor::Workspace* ws) {
  (void)norms;  // the pointwise-L2 bound is already in normalized units
  CheckBoundSupported(*this, bound);
  const double tau =
      bound.mode == ErrorBoundMode::kPointwiseL2 ? bound.value : -1.0;
  const core::CompressedWindow cw =
      glsc_->Compress(window, tau, sample_steps_, /*recon_out=*/nullptr, ws);
  ByteWriter out;
  core::SerializeWindow(cw, &out);
  return out.Release();
}

Tensor GlscAdapter::DecompressWindow(const std::vector<std::uint8_t>& payload,
                                     tensor::Workspace* ws) {
  ByteReader in(payload);
  const core::CompressedWindow cw = core::DeserializeWindow(&in);
  return glsc_->Decompress(cw, sample_steps_, ws);
}

std::vector<Tensor> GlscAdapter::DecompressWindows(
    const std::vector<const std::vector<std::uint8_t>*>& payloads,
    tensor::Workspace* ws) {
  std::vector<core::CompressedWindow> windows(payloads.size());
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    ByteReader in(*payloads[i]);
    windows[i] = core::DeserializeWindow(&in);
  }
  std::vector<const core::CompressedWindow*> views;
  views.reserve(windows.size());
  for (const core::CompressedWindow& cw : windows) views.push_back(&cw);
  return glsc_->DecompressBatch(views, sample_steps_, ws);
}

void GlscAdapter::Train(const data::SequenceDataset& dataset,
                        const TrainOptions& options) {
  compress::TrainVae(&glsc_->vae(), dataset, MakeVaeTrain(options));
  diffusion::DiffusionTrainConfig diff_cfg;
  diff_cfg.iterations = options.model_iterations;
  diff_cfg.crop = options.crop;
  diff_cfg.window = glsc_->config().window;
  diff_cfg.strategy = glsc_->config().strategy;
  diff_cfg.interval = glsc_->config().interval;
  diff_cfg.key_count = glsc_->config().key_count;
  diff_cfg.log_every = options.verbose ? 200 : 0;
  TrainDiffusion(&glsc_->unet(), glsc_->schedule(), &glsc_->vae(), dataset,
                 diff_cfg);
  core::FitPcaFromResiduals(glsc_, dataset, options.pca_fit_windows,
                            options.crop);
}

std::unique_ptr<Compressor> GlscAdapter::Clone() {
  auto copy = std::make_unique<GlscAdapter>(glsc_->config(), sample_steps_);
  ByteWriter weights;
  glsc_->Save(&weights);
  ByteReader in(weights.bytes());
  copy->glsc_->Load(&in);
  return copy;
}

std::unique_ptr<Compressor> WrapGlsc(core::GlscCompressor* compressor,
                                     std::int64_t sample_steps) {
  return std::make_unique<GlscAdapter>(compressor, sample_steps);
}

// ---------------------------------------------------------------------------
// CDC / GCD
// ---------------------------------------------------------------------------

namespace {

// The per-name constants of the pixel-space diffusion baselines.
struct CdcVariant {
  const char* name;
  bool block_is_window;       // false: block 1 (per-frame CDC)
  std::uint64_t seed_offset;  // model seed = options.seed + seed_offset
  std::uint32_t noise_salt;   // DeriveSeed salt of the payload's noise seed
};

constexpr CdcVariant kCdcVariants[] = {
    {"cdc", false, 1, 0xC5C5C5C5u},
    {"gcd", true, 2, 0xD6D6D6D6u},
};

const CdcVariant& FindCdcVariant(const std::string& name) {
  const CdcVariant* v = std::find_if(
      std::begin(kCdcVariants), std::end(kCdcVariants),
      [&](const CdcVariant& candidate) { return name == candidate.name; });
  GLSC_CHECK_MSG(v != std::end(kCdcVariants),
                 "no pixel-space diffusion codec named '" << name << "'");
  return *v;
}

baselines::CdcConfig MakeCdcConfig(const CdcVariant& variant,
                                   const CodecOptions& options) {
  baselines::CdcConfig cfg;
  cfg.vae.latent_channels = options.latent_channels;
  cfg.vae.hidden_channels = options.hidden_channels;
  cfg.vae.hyper_channels = options.hyper_channels;
  cfg.vae.seed = options.seed;
  cfg.model_channels = options.model_channels;
  cfg.heads = options.heads;
  cfg.schedule_steps = options.schedule_steps;
  cfg.block = variant.block_is_window ? options.window : 1;
  cfg.seed = options.seed + variant.seed_offset;
  return cfg;
}

}  // namespace

CdcAdapter::CdcAdapter(std::string name, const CodecOptions& options)
    : name_(std::move(name)),
      options_(options),
      noise_salt_(FindCdcVariant(name_).noise_salt),
      codec_(std::make_unique<baselines::CDCCompressor>(
          MakeCdcConfig(FindCdcVariant(name_), options))) {}

Capabilities CdcAdapter::capabilities() const { return Capabilities{}; }

std::vector<std::uint8_t> CdcAdapter::CompressWindow(
    const Tensor& window, const ErrorBound& bound,
    const std::vector<data::FrameNorm>& norms) {
  (void)norms;
  CheckBoundSupported(*this, bound);
  const auto compressed = codec_->Compress(window);
  ByteWriter out;
  PutDims(compressed.window_shape, &out);
  out.PutU32(DeriveSeed(window, noise_salt_));
  compress::PutVaeBitstream(compressed.frames, &out);
  return out.Release();
}

Tensor CdcAdapter::DecompressWindow(const std::vector<std::uint8_t>& payload) {
  ByteReader in(payload);
  baselines::CDCCompressor::Compressed compressed;
  compressed.window_shape = GetDimsChecked(&in);
  const std::uint32_t seed = in.GetU32();
  compressed.frames = compress::GetVaeBitstream(&in);
  Rng rng(seed);
  return codec_->Decompress(compressed, options_.sample_steps, rng);
}

void CdcAdapter::Train(const data::SequenceDataset& dataset,
                       const TrainOptions& options) {
  codec_->Train(dataset, MakeVaeTrain(options), options.model_iterations,
                options.crop);
}

std::unique_ptr<Compressor> CdcAdapter::Clone() {
  auto copy = std::make_unique<CdcAdapter>(name_, options_);
  ByteWriter weights;
  codec_->Save(&weights);
  ByteReader in(weights.bytes());
  copy->codec_->Load(&in);
  return copy;
}

// ---------------------------------------------------------------------------
// VAE-SR
// ---------------------------------------------------------------------------

namespace {

baselines::VaeSrConfig MakeVaeSrConfig(const CodecOptions& options) {
  baselines::VaeSrConfig cfg;
  cfg.vae.latent_channels = options.latent_channels;
  cfg.vae.hidden_channels = options.hidden_channels;
  cfg.vae.hyper_channels = options.hyper_channels;
  cfg.vae.seed = options.seed;
  cfg.sr_channels = options.sr_channels;
  cfg.seed = options.seed + 3;
  return cfg;
}

}  // namespace

VaeSrAdapter::VaeSrAdapter(const CodecOptions& options)
    : options_(options),
      codec_(std::make_unique<baselines::VAESRCompressor>(
          MakeVaeSrConfig(options))) {}

Capabilities VaeSrAdapter::capabilities() const { return Capabilities{}; }

std::vector<std::uint8_t> VaeSrAdapter::CompressWindow(
    const Tensor& window, const ErrorBound& bound,
    const std::vector<data::FrameNorm>& norms) {
  (void)norms;
  CheckBoundSupported(*this, bound);
  const auto compressed = codec_->Compress(window);
  ByteWriter out;
  PutDims(compressed.window_shape, &out);
  compress::PutVaeBitstream(compressed.frames, &out);
  return out.Release();
}

Tensor VaeSrAdapter::DecompressWindow(
    const std::vector<std::uint8_t>& payload) {
  ByteReader in(payload);
  baselines::VAESRCompressor::Compressed compressed;
  compressed.window_shape = GetDimsChecked(&in);
  compressed.frames = compress::GetVaeBitstream(&in);
  return codec_->Decompress(compressed);
}

void VaeSrAdapter::Train(const data::SequenceDataset& dataset,
                         const TrainOptions& options) {
  // The VAE trains on 2x-downsampled patches of `crop`; its hyperprior needs
  // a latent edge of at least 4 (crop/2/4), so anything below 32 breaks deep
  // inside training with a shape mismatch — reject it up front.
  GLSC_CHECK_MSG(options.crop >= 32,
                 "vae_sr needs crop >= 32 (2x downsampling + stride-4 VAE + "
                 "stride-4 hyperprior), got "
                     << options.crop);
  codec_->Train(dataset, MakeVaeTrain(options), options.model_iterations,
                options.crop);
}

std::unique_ptr<Compressor> VaeSrAdapter::Clone() {
  auto copy = std::make_unique<VaeSrAdapter>(options_);
  ByteWriter weights;
  codec_->Save(&weights);
  ByteReader in(weights.bytes());
  copy->codec_->Load(&in);
  return copy;
}

}  // namespace glsc::api
