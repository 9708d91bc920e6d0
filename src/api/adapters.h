// Adapter implementations of api::Compressor over the GLSC pipeline and the
// five baselines. Normally reached through Compressor::Create(name); the
// concrete types are exposed here for callers that already hold a trained
// model instance and want to lift it into the polymorphic API (WrapGlsc), or
// that need adapter-specific accessors.
#pragma once

#include <memory>

#include "api/compressor.h"
#include "baselines/cdc.h"
#include "baselines/sz_like.h"
#include "baselines/vae_sr.h"
#include "baselines/zfp_like.h"
#include "core/glsc_compressor.h"

namespace glsc::api {

// ---------------------------------------------------------------------------
// Rule-based codecs (model-free): the payload is the codec's own
// self-describing bitstream. Error bounds are converted from physical /
// relative units to the normalized frame representation using the per-frame
// norms, conservatively (min over frames) for the absolute mode.
// ---------------------------------------------------------------------------

class SzAdapter final : public Compressor {
 public:
  explicit SzAdapter(const CodecOptions& options) : options_(options) {}

  std::string name() const override { return "sz"; }
  Capabilities capabilities() const override;
  std::int64_t window() const override { return options_.window; }
  std::vector<std::uint8_t> CompressWindow(
      const Tensor& window, const ErrorBound& bound,
      const std::vector<data::FrameNorm>& norms) override;
  Tensor DecompressWindow(const std::vector<std::uint8_t>& payload) override;
  // Decodes with its scratch in `ws`; byte-identical to the plain call.
  Tensor DecompressWindow(const std::vector<std::uint8_t>& payload,
                          tensor::Workspace* ws) override;
  std::unique_ptr<Compressor> Clone() override {
    return std::make_unique<SzAdapter>(options_);
  }

 private:
  CodecOptions options_;
  baselines::SZLikeCompressor codec_;
};

class ZfpAdapter final : public Compressor {
 public:
  explicit ZfpAdapter(const CodecOptions& options) : options_(options) {}

  std::string name() const override { return "zfp"; }
  Capabilities capabilities() const override;
  std::int64_t window() const override { return options_.window; }
  std::vector<std::uint8_t> CompressWindow(
      const Tensor& window, const ErrorBound& bound,
      const std::vector<data::FrameNorm>& norms) override;
  Tensor DecompressWindow(const std::vector<std::uint8_t>& payload) override;
  std::unique_ptr<Compressor> Clone() override {
    return std::make_unique<ZfpAdapter>(options_);
  }

 private:
  CodecOptions options_;
  baselines::ZFPLikeCompressor codec_;
};

// ---------------------------------------------------------------------------
// GLSC: the paper's pipeline. Payload is the CompressedWindow record body
// (identical to a v1 archive record), so v1 archives migrate byte-for-byte.
// ---------------------------------------------------------------------------

class GlscAdapter final : public Compressor {
 public:
  explicit GlscAdapter(const CodecOptions& options);
  // Full-config construction for callers that need knobs CodecOptions does
  // not surface (keyframe strategy, PCA settings, ...).
  GlscAdapter(const core::GlscConfig& config, std::int64_t sample_steps);
  // Wraps an existing trained compressor WITHOUT taking ownership; the caller
  // keeps the instance alive for the adapter's lifetime. sample_steps <= 0
  // uses the wrapped config's default.
  GlscAdapter(core::GlscCompressor* borrowed, std::int64_t sample_steps);

  std::string name() const override { return "glsc"; }
  Capabilities capabilities() const override;
  std::int64_t window() const override { return glsc_->config().window; }
  std::vector<std::uint8_t> CompressWindow(
      const Tensor& window, const ErrorBound& bound,
      const std::vector<data::FrameNorm>& norms) override;
  Tensor DecompressWindow(const std::vector<std::uint8_t>& payload) override;
  // Workspace-aware hot paths: the diffusion sampler + VAE decode run out of
  // `ws` (byte-identical results, no workspace slab growth in steady state).
  std::vector<std::uint8_t> CompressWindow(
      const Tensor& window, const ErrorBound& bound,
      const std::vector<data::FrameNorm>& norms,
      tensor::Workspace* ws) override;
  Tensor DecompressWindow(const std::vector<std::uint8_t>& payload,
                          tensor::Workspace* ws) override;
  // Batched decode through GlscCompressor::DecompressBatch: one diffusion
  // sampler + VAE pass over all payloads. Byte-identical per payload to
  // DecompressWindow.
  std::vector<Tensor> DecompressWindows(
      const std::vector<const std::vector<std::uint8_t>*>& payloads,
      tensor::Workspace* ws) override;
  void Train(const data::SequenceDataset& dataset,
             const TrainOptions& options) override;
  void SaveModel(ByteWriter* out) override { glsc_->Save(out); }
  void LoadModel(ByteReader* in) override { glsc_->Load(in); }
  std::unique_ptr<Compressor> Clone() override;

 private:
  std::int64_t sample_steps_ = 0;
  std::unique_ptr<core::GlscCompressor> owned_;
  core::GlscCompressor* glsc_ = nullptr;  // owned_.get() unless borrowed
};

// Convenience: lifts a trained GlscCompressor into the polymorphic API
// (non-owning).
std::unique_ptr<Compressor> WrapGlsc(core::GlscCompressor* compressor,
                                     std::int64_t sample_steps = 0);

// ---------------------------------------------------------------------------
// Learned baselines (best effort, no declared bound).
// ---------------------------------------------------------------------------

// One adapter serves both pixel-space diffusion baselines, "cdc" (per-frame
// 2D model, block 1) and "gcd" (3D blocks of options.window frames, so each
// record denoises as one block); the name picks the block length, the model
// seed and the salt of the payload's noise seed.
class CdcAdapter final : public Compressor {
 public:
  CdcAdapter(std::string name, const CodecOptions& options);

  std::string name() const override { return name_; }
  Capabilities capabilities() const override;
  std::int64_t window() const override { return options_.window; }
  std::vector<std::uint8_t> CompressWindow(
      const Tensor& window, const ErrorBound& bound,
      const std::vector<data::FrameNorm>& norms) override;
  Tensor DecompressWindow(const std::vector<std::uint8_t>& payload) override;
  void Train(const data::SequenceDataset& dataset,
             const TrainOptions& options) override;
  void SaveModel(ByteWriter* out) override { codec_->Save(out); }
  void LoadModel(ByteReader* in) override { codec_->Load(in); }
  std::unique_ptr<Compressor> Clone() override;

 private:
  std::string name_;
  CodecOptions options_;
  std::uint32_t noise_salt_;
  std::unique_ptr<baselines::CDCCompressor> codec_;
};

class VaeSrAdapter final : public Compressor {
 public:
  explicit VaeSrAdapter(const CodecOptions& options);

  std::string name() const override { return "vae_sr"; }
  Capabilities capabilities() const override;
  std::int64_t window() const override { return options_.window; }
  std::vector<std::uint8_t> CompressWindow(
      const Tensor& window, const ErrorBound& bound,
      const std::vector<data::FrameNorm>& norms) override;
  Tensor DecompressWindow(const std::vector<std::uint8_t>& payload) override;
  void Train(const data::SequenceDataset& dataset,
             const TrainOptions& options) override;
  void SaveModel(ByteWriter* out) override { codec_->Save(out); }
  void LoadModel(ByteReader* in) override { codec_->Load(in); }
  std::unique_ptr<Compressor> Clone() override;

 private:
  CodecOptions options_;
  std::unique_ptr<baselines::VAESRCompressor> codec_;
};

}  // namespace glsc::api
