#include "api/compressor.h"

#include "api/adapters.h"
#include "core/registry.h"
#include "util/check.h"

namespace glsc::api {
namespace {

using Factory = std::unique_ptr<Compressor> (*)(const std::string& name,
                                                const CodecOptions& options);

template <typename Adapter>
std::unique_ptr<Compressor> Make(const std::string& name,
                                 const CodecOptions& options) {
  (void)name;
  return std::make_unique<Adapter>(options);
}

std::unique_ptr<Compressor> MakeCdc(const std::string& name,
                                    const CodecOptions& options) {
  return std::make_unique<CdcAdapter>(name, options);
}

// The six codecs, sorted by name. cdc and gcd are one adapter, which takes
// its per-name constants from kCdcVariants (adapters.cc).
constexpr struct {
  const char* name;
  Factory make;
} kCodecs[] = {
    {"cdc", MakeCdc},
    {"gcd", MakeCdc},
    {"glsc", Make<GlscAdapter>},
    {"sz", Make<SzAdapter>},
    {"vae_sr", Make<VaeSrAdapter>},
    {"zfp", Make<ZfpAdapter>},
};

}  // namespace

std::vector<std::string> RegisteredCompressors() {
  std::vector<std::string> names;
  for (const auto& codec : kCodecs) names.emplace_back(codec.name);
  return names;
}

std::unique_ptr<Compressor> Compressor::Create(const std::string& name,
                                               const CodecOptions& options) {
  for (const auto& codec : kCodecs) {
    if (name == codec.name) return codec.make(name, options);
  }
  std::string known;
  for (const auto& n : RegisteredCompressors()) {
    if (!known.empty()) known += ", ";
    known += n;
  }
  GLSC_CHECK_MSG(false, "unknown codec '" << name << "' (registered: "
                                          << known << ")");
  return nullptr;
}

std::unique_ptr<Compressor> GetOrTrainCodec(
    const std::string& name, const CodecOptions& options,
    const data::SequenceDataset& dataset, const TrainOptions& train,
    const std::string& artifacts_dir, const std::string& tag) {
  auto codec = Compressor::Create(name, options);
  if (codec->capabilities().model_free) return codec;
  Compressor* model = codec.get();
  core::LoadOrTrainArtifact(
      artifacts_dir, tag, [model](ByteReader* in) { model->LoadModel(in); },
      [&] { model->Train(dataset, train); },
      [model](ByteWriter* out) { model->SaveModel(out); });
  return codec;
}

}  // namespace glsc::api
