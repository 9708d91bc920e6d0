#include "api/compressor.h"

#include <map>

#include "api/adapters.h"
#include "core/registry.h"
#include "util/mutex.h"
#include "util/check.h"

namespace glsc::api {
namespace {

Mutex& RegistryMutex() {
  static Mutex mu{"api.RegistryMutex"};
  return mu;
}

std::map<std::string, CompressorFactory>& Registry() {
  static std::map<std::string, CompressorFactory> registry;
  return registry;
}

// Built-ins register on first use rather than via static initializers so the
// registry works regardless of link order and cannot be stripped from the
// static library. The thread_local guard lets RegisterBuiltinCodecs call
// RegisterCompressor (which also ensures built-ins) without deadlocking on
// the in-flight call_once.
void EnsureBuiltins() {
  static std::once_flag once;
  thread_local bool registering = false;
  if (registering) return;
  registering = true;
  std::call_once(once, [] { RegisterBuiltinCodecs(); });
  registering = false;
}

}  // namespace

void RegisterCompressor(const std::string& name, CompressorFactory factory) {
  // Built-ins first, so a user registration made before any Create call
  // really does replace the built-in binding instead of being clobbered by
  // the lazy built-in registration later.
  EnsureBuiltins();
  MutexLock lock(RegistryMutex());
  Registry()[name] = std::move(factory);
}

std::vector<std::string> RegisteredCompressors() {
  EnsureBuiltins();
  MutexLock lock(RegistryMutex());
  std::vector<std::string> names;
  names.reserve(Registry().size());
  for (const auto& [name, factory] : Registry()) names.push_back(name);
  return names;
}

std::unique_ptr<Compressor> Compressor::Create(const std::string& name,
                                               const CodecOptions& options) {
  EnsureBuiltins();
  CompressorFactory factory;
  {
    MutexLock lock(RegistryMutex());
    const auto it = Registry().find(name);
    if (it != Registry().end()) factory = it->second;
  }
  if (!factory) {
    std::string known;
    for (const auto& n : RegisteredCompressors()) {
      if (!known.empty()) known += ", ";
      known += n;
    }
    GLSC_CHECK_MSG(false, "unknown codec '" << name << "' (registered: "
                                            << known << ")");
  }
  auto codec = factory(options);
  GLSC_CHECK_MSG(codec != nullptr, "factory for '" << name << "' returned null");
  return codec;
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
