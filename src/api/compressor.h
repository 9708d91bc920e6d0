// Unified codec API: one polymorphic interface over the paper's pipeline
// (GLSC) and all five baselines, so examples, benchmarks, tests, and the
// archive container can switch backends with a string instead of hand-wiring
// each codec's ad-hoc Compress/Decompress signature.
//
// The unit of work is one NORMALIZED window [N, H, W] (per-frame zero mean /
// unit range, the representation every model in this repository consumes);
// CompressWindow returns a self-contained payload that DecompressWindow can
// restore without side channels. Streaming over arbitrary-length [V, T, H, W]
// fields — chunking, tail padding, per-frame normalization, thread fan-out —
// lives one layer up, in EncodeSession (api/session.h) for writing and
// serve::DecodeScheduler for reading, which every codec inherits for free.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "tensor/tensor.h"
#include "tensor/workspace.h"
#include "util/bytes.h"

namespace glsc::api {

// How ErrorBound::value is interpreted. Physical units refer to the raw field
// before per-frame normalization; a codec receives the per-frame norms along
// with each window so it can convert.
enum class ErrorBoundMode : std::uint8_t {
  kNone = 0,         // best effort, no guarantee
  kAbsolute = 1,     // pointwise |x - x'| <= value, physical units
  kRelative = 2,     // pointwise |x - x'| <= value * (per-frame range)
  kPointwiseL2 = 3,  // per-frame L2 error norm <= value, normalized units
};

constexpr std::uint32_t BoundModeBit(ErrorBoundMode mode) {
  return 1u << static_cast<std::uint32_t>(mode);
}

struct ErrorBound {
  ErrorBoundMode mode = ErrorBoundMode::kNone;
  double value = 0.0;
};

struct Capabilities {
  // Bitmask of BoundModeBit(mode) values the codec can honor.
  std::uint32_t bound_modes = BoundModeBit(ErrorBoundMode::kNone);
  // True for rule-based codecs that carry no trained model: usable straight
  // from Create() with no Train/LoadModel, and their (trivial) model
  // description is exact — nothing is lost by skipping the artifact.
  bool model_free = false;

  bool Supports(ErrorBoundMode mode) const {
    return (bound_modes & BoundModeBit(mode)) != 0;
  }
};

// Construction-time knobs shared across backends. Codecs read the subset that
// applies to them and ignore the rest, so one options struct can configure any
// of them.
struct CodecOptions {
  std::int64_t window = 16;        // frames per compressed record
  std::int64_t sample_steps = 32;  // reverse-diffusion steps on decode
  // Learned-codec geometry: laptop-scale defaults, so every learned codec
  // trains on a CPU.
  std::int64_t latent_channels = 8;
  std::int64_t hidden_channels = 16;
  std::int64_t hyper_channels = 4;
  std::int64_t model_channels = 16;
  std::int64_t heads = 4;
  std::int64_t schedule_steps = 200;
  std::int64_t interval = 3;      // GLSC keyframe stride
  std::int64_t sr_channels = 16;  // VAE-SR trunk width
  std::uint64_t seed = 17;
};

// Training budget for learned codecs (no-op for model-free ones). The two
// stage budgets map onto each codec's stages: VAE first, then the
// diffusion/SR refinement model where one exists.
struct TrainOptions {
  std::int64_t vae_iterations = 400;
  std::int64_t model_iterations = 400;
  std::int64_t batch_size = 8;
  std::int64_t crop = 32;
  std::int64_t pca_fit_windows = 4;  // GLSC error-bound basis
  bool verbose = false;
};

class Compressor {
 public:
  virtual ~Compressor() = default;

  // Codec name as passed to Create, e.g. "glsc", "sz".
  virtual std::string name() const = 0;
  virtual Capabilities capabilities() const = 0;
  // Frames per record. Sessions cut streams into windows of this length and
  // pad the final partial window up to it.
  virtual std::int64_t window() const = 0;

  // Compresses one normalized window [N, H, W] into a self-contained payload.
  // `norms` carries the per-frame normalization (one entry per frame) so
  // codecs honoring physical-unit bounds can convert; `bound.mode` must be
  // one of capabilities().bound_modes.
  virtual std::vector<std::uint8_t> CompressWindow(
      const Tensor& window, const ErrorBound& bound,
      const std::vector<data::FrameNorm>& norms) = 0;

  // Inverse of CompressWindow: normalized [N, H, W].
  virtual Tensor DecompressWindow(const std::vector<std::uint8_t>& payload) = 0;

  // Workspace-aware variants for serving hot paths: codecs with model-based
  // decode (GLSC) route their per-window tensor traffic through `ws` (one
  // Workspace per worker, owned by sessions/schedulers alongside the codec
  // clones) and are byte-identical to the plain calls; the default ignores
  // `ws`, so rule-based codecs work unchanged. Results are always owned —
  // arena memory never escapes.
  virtual std::vector<std::uint8_t> CompressWindow(
      const Tensor& window, const ErrorBound& bound,
      const std::vector<data::FrameNorm>& norms, tensor::Workspace* ws) {
    (void)ws;
    return CompressWindow(window, bound, norms);
  }
  virtual Tensor DecompressWindow(const std::vector<std::uint8_t>& payload,
                                  tensor::Workspace* ws) {
    (void)ws;
    return DecompressWindow(payload);
  }

  // Batched decode: decompresses several payloads in one call so model-based
  // codecs can run their networks once over the stacked windows (wider GEMMs,
  // one weight pass) instead of once per window. Entries are byte-identical
  // to per-payload DecompressWindow calls — batching is a dispatch choice,
  // never a quality choice. The default loops over DecompressWindow, so
  // codecs without a batched path (and wrappers that intercept per-window
  // decode, e.g. counting or caching shims) work unchanged.
  virtual std::vector<Tensor> DecompressWindows(
      const std::vector<const std::vector<std::uint8_t>*>& payloads,
      tensor::Workspace* ws) {
    std::vector<Tensor> out;
    out.reserve(payloads.size());
    for (const std::vector<std::uint8_t>* p : payloads) {
      out.push_back(DecompressWindow(*p, ws));
    }
    return out;
  }

  // Trains the underlying model(s) in place. Model-free codecs no-op.
  virtual void Train(const data::SequenceDataset& dataset,
                     const TrainOptions& options) {
    (void)dataset;
    (void)options;
  }

  // Model checkpoint (weights only; construction options are the caller's).
  // Model-free codecs write/read nothing.
  virtual void SaveModel(ByteWriter* out) { (void)out; }
  virtual void LoadModel(ByteReader* in) { (void)in; }

  // Deep copy, trained weights included. Sessions clone workers from the
  // primary codec because model instances are not thread-safe (explicit-
  // backward layers cache activations).
  virtual std::unique_ptr<Compressor> Clone() = 0;

  // Factory over the six codecs: "glsc" | "sz" | "zfp" | "cdc" | "gcd" |
  // "vae_sr". Throws on unknown names, listing what is available.
  static std::unique_ptr<Compressor> Create(const std::string& name,
                                            const CodecOptions& options = {});
};

// The six codec names Create accepts, sorted.
std::vector<std::string> RegisteredCompressors();

// Cached train-or-load for the polymorphic API, through the same artifact
// cache as core::GetOrTrain (core::LoadOrTrainArtifact): returns a
// ready-to-use codec, loading `<artifacts_dir>/<tag>.glsc` when present,
// otherwise training and writing it. Model-free codecs skip the artifact
// entirely. Set GLSC_RETRAIN=1 to ignore caches.
std::unique_ptr<Compressor> GetOrTrainCodec(
    const std::string& name, const CodecOptions& options,
    const data::SequenceDataset& dataset, const TrainOptions& train,
    const std::string& artifacts_dir, const std::string& tag);

}  // namespace glsc::api
