// Prints a 64-bit FNV-1a hash of every byte the write and read paths
// produce for the fields of two benchmark workloads: each shard's archive
// file and its decoded GetAll output at max_batch 1 and 3. Two builds, or two
// dispatch levels of one build, encode and decode identically when their
// outputs match line for line:
//
//   ./decode_dump > native.txt
//   GLSC_ISA=scalar ./decode_dump > scalar.txt
//
// Only public API is used, so the same source also builds against an older
// tree's libglsc_core.a for a before/after comparison. The configurations
// mirror the workloads:
//  - glsc_window_reads: climate and turbulence fields [2, 64, 32, 32] (seeds
//    2026 and 2027), 6 DDIM steps, seeded random-init weights with a
//    PCA-only Train, and a pointwise-L2 bound of 0.1 (lines "shard N ...");
//  - sz_window_reads: climate and combustion fields [2, 256, 64, 64] (seeds
//    2026 and 2027) through the sz codec at a relative bound of 1e-2 (lines
//    "sz shard N ..."), which covers the sz writer, EncodeSession and the sz
//    decoder.
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "api/compressor.h"
#include "api/session.h"
#include "core/archive_reader.h"
#include "core/container.h"
#include "data/dataset.h"
#include "data/field_generators.h"
#include "serve/decode_scheduler.h"

namespace {

using namespace glsc;

std::uint64_t Fnv1a(const void* data, std::size_t bytes) {
  std::uint64_t h = 1469598103934665603ull;
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h = (h ^ p[i]) * 1099511628211ull;
  }
  return h;
}

// Encodes `field` through `codec` into an archive file, then prints the
// hash of the file and of GetAll at max_batch 1 and 3, each line prefixed
// with `label`.
void DumpShard(const std::string& label, api::Compressor* codec,
               const Tensor& field, const api::ErrorBound& bound) {
  namespace fs = std::filesystem;
  api::SessionOptions session_options;
  session_options.bound = bound;
  api::EncodeSession session(codec, field.dim(0), field.dim(2), field.dim(3),
                             session_options);
  session.Push(field);
  const fs::path path =
      fs::temp_directory_path() /
      ("decode_dump_" + std::to_string(::getpid()) + ".glsca");
  fs::remove(path);
  core::DatasetArchive::AppendToFile(path.string(), session.Finish());
  std::ifstream in(path, std::ios::binary);
  const std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                                std::istreambuf_iterator<char>());
  std::printf("%s archive %016llx\n", label.c_str(),
              static_cast<unsigned long long>(
                  Fnv1a(bytes.data(), bytes.size())));

  const auto reader = core::ArchiveReader::FromFile(path.string());
  for (const std::int64_t max_batch : {1, 3}) {
    serve::ScheduleOptions schedule;
    schedule.cache_windows = 0;
    schedule.max_batch = max_batch;
    serve::DecodeScheduler scheduler(&reader, codec, schedule);
    const Tensor all = scheduler.GetAll();
    std::printf("%s getall max_batch=%lld %016llx\n", label.c_str(),
                static_cast<long long>(max_batch),
                static_cast<unsigned long long>(Fnv1a(
                    all.data(),
                    static_cast<std::size_t>(all.numel()) * sizeof(float))));
  }
  fs::remove(path);
}

}  // namespace

int main() {
  const data::DatasetKind glsc_kinds[2] = {data::DatasetKind::kClimate,
                                           data::DatasetKind::kTurbulence};
  for (int shard = 0; shard < 2; ++shard) {
    data::FieldSpec spec{2, 64, 32, 32, 2026u + static_cast<unsigned>(shard)};
    const Tensor field = data::GenerateField(glsc_kinds[shard], spec);
    api::CodecOptions options;
    options.sample_steps = 6;
    auto codec = api::Compressor::Create("glsc", options);
    api::TrainOptions train;
    train.vae_iterations = 0;
    train.model_iterations = 0;
    codec->Train(data::SequenceDataset(field), train);
    DumpShard("shard " + std::to_string(shard), codec.get(), field,
              {api::ErrorBoundMode::kPointwiseL2, 0.1});
  }
  const data::DatasetKind sz_kinds[2] = {data::DatasetKind::kClimate,
                                         data::DatasetKind::kCombustion};
  for (int shard = 0; shard < 2; ++shard) {
    data::FieldSpec spec{2, 256, 64, 64, 2026u + static_cast<unsigned>(shard)};
    const Tensor field = data::GenerateField(sz_kinds[shard], spec);
    auto codec = api::Compressor::Create("sz");
    DumpShard("sz shard " + std::to_string(shard), codec.get(), field,
              {api::ErrorBoundMode::kRelative, 1e-2});
  }
  return 0;
}
