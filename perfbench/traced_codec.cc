#include "traced_codec.h"

namespace perfbench {

using glsc::Tensor;

TracedCodec::TracedCodec(glsc::api::Compressor* inner, Tracer* tracer)
    : inner_(inner), tracer_(tracer) {}

TracedCodec::TracedCodec(std::unique_ptr<glsc::api::Compressor> inner,
                         Tracer* tracer)
    : owned_(std::move(inner)), inner_(owned_.get()), tracer_(tracer) {}

std::vector<std::uint8_t> TracedCodec::CompressWindow(
    const Tensor& window, const glsc::api::ErrorBound& bound,
    const std::vector<glsc::data::FrameNorm>& norms) {
  ScopedSpan span(tracer_, "codec.encode", 1);
  return inner_->CompressWindow(window, bound, norms);
}

std::vector<std::uint8_t> TracedCodec::CompressWindow(
    const Tensor& window, const glsc::api::ErrorBound& bound,
    const std::vector<glsc::data::FrameNorm>& norms,
    glsc::tensor::Workspace* ws) {
  ScopedSpan span(tracer_, "codec.encode", 1);
  return inner_->CompressWindow(window, bound, norms, ws);
}

Tensor TracedCodec::DecompressWindow(const std::vector<std::uint8_t>& payload) {
  ScopedSpan span(tracer_, "codec.decode", 1);
  if (keep_calls_) calls_.push_back({span.handle(), {payload}});
  return inner_->DecompressWindow(payload);
}

Tensor TracedCodec::DecompressWindow(const std::vector<std::uint8_t>& payload,
                                     glsc::tensor::Workspace* ws) {
  ScopedSpan span(tracer_, "codec.decode", 1);
  if (keep_calls_) calls_.push_back({span.handle(), {payload}});
  return inner_->DecompressWindow(payload, ws);
}

std::vector<Tensor> TracedCodec::DecompressWindows(
    const std::vector<const std::vector<std::uint8_t>*>& payloads,
    glsc::tensor::Workspace* ws) {
  ScopedSpan span(tracer_, "codec.decode",
                  static_cast<std::int32_t>(payloads.size()));
  if (keep_calls_) {
    DecodeCall call{span.handle(), {}};
    for (const auto* p : payloads) call.payloads.push_back(*p);
    calls_.push_back(std::move(call));
  }
  return inner_->DecompressWindows(payloads, ws);
}

std::unique_ptr<glsc::api::Compressor> TracedCodec::Clone() {
  return std::make_unique<TracedCodec>(inner_->Clone(), tracer_);
}

}  // namespace perfbench
