// Forwarding api::Compressor decorator: every codec call becomes a span.
//
// Handed to sessions and shards in place of the bare codec, so codec calls the
// serving stack makes on its own threads are recorded without changing what
// it dispatches: name() is the wrapped codec's (schedulers check it against
// the archive), and DecompressWindows is forwarded as one batch.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "api/compressor.h"
#include "trace.h"

namespace perfbench {

class TracedCodec final : public glsc::api::Compressor {
 public:
  // Borrows `inner`, which must outlive the decorator.
  TracedCodec(glsc::api::Compressor* inner, Tracer* tracer);
  // Owns `inner` (used by Clone).
  TracedCodec(std::unique_ptr<glsc::api::Compressor> inner, Tracer* tracer);

  std::string name() const override { return inner_->name(); }
  glsc::api::Capabilities capabilities() const override {
    return inner_->capabilities();
  }
  std::int64_t window() const override { return inner_->window(); }

  std::vector<std::uint8_t> CompressWindow(
      const glsc::Tensor& window, const glsc::api::ErrorBound& bound,
      const std::vector<glsc::data::FrameNorm>& norms) override;
  std::vector<std::uint8_t> CompressWindow(
      const glsc::Tensor& window, const glsc::api::ErrorBound& bound,
      const std::vector<glsc::data::FrameNorm>& norms,
      glsc::tensor::Workspace* ws) override;
  glsc::Tensor DecompressWindow(
      const std::vector<std::uint8_t>& payload) override;
  glsc::Tensor DecompressWindow(const std::vector<std::uint8_t>& payload,
                                glsc::tensor::Workspace* ws) override;
  std::vector<glsc::Tensor> DecompressWindows(
      const std::vector<const std::vector<std::uint8_t>*>& payloads,
      glsc::tensor::Workspace* ws) override;

  void Train(const glsc::data::SequenceDataset& dataset,
             const glsc::api::TrainOptions& options) override {
    inner_->Train(dataset, options);
  }
  void SaveModel(glsc::ByteWriter* out) override { inner_->SaveModel(out); }
  void LoadModel(glsc::ByteReader* in) override { inner_->LoadModel(in); }
  std::unique_ptr<glsc::api::Compressor> Clone() override;

  // One decode call: its span and a copy of its payloads.
  struct DecodeCall {
    std::int32_t span = -1;
    std::vector<std::vector<std::uint8_t>> payloads;
  };
  // Keeps every decode call from now on (off by default). The traced GLSC
  // run decodes them again at a second step count to split decode time into
  // per-step and step-free parts.
  void KeepDecodeCalls(bool keep) { keep_calls_ = keep; }
  const std::vector<DecodeCall>& decode_calls() const { return calls_; }

 private:
  std::unique_ptr<glsc::api::Compressor> owned_;
  glsc::api::Compressor* inner_;
  Tracer* tracer_;
  bool keep_calls_ = false;
  std::vector<DecodeCall> calls_;
};

}  // namespace perfbench
