// Prints a 64-bit FNV-1a hash of every byte the GLSC write and read paths
// produce for the fields of the glsc_window_reads benchmark workload: each
// shard's archive file and its decoded GetAll output at max_batch 1 and 3.
// Two builds, or two dispatch levels of one build, encode and decode
// identically when their outputs match line for line:
//
//   ./decode_dump > native.txt
//   GLSC_FORCE_SCALAR=1 ./decode_dump > scalar.txt
//
// Only public API is used, so the same source also builds against an older
// tree's libglsc_core.a for a before/after comparison. The configuration
// mirrors the workload: climate and turbulence fields [2, 64, 32, 32]
// (seeds 2026 and 2027), 6 DDIM steps, seeded random-init weights with a
// PCA-only Train, and a pointwise-L2 bound of 0.1.
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

}  // namespace

int main() {
  namespace fs = std::filesystem;
  const data::DatasetKind kinds[2] = {data::DatasetKind::kClimate,
                                      data::DatasetKind::kTurbulence};
  for (int shard = 0; shard < 2; ++shard) {
    data::FieldSpec spec{2, 64, 32, 32, 2026u + static_cast<unsigned>(shard)};
    const Tensor field = data::GenerateField(kinds[shard], spec);
    api::CodecOptions options;
    options.sample_steps = 6;
    auto codec = api::Compressor::Create("glsc", options);
    api::TrainOptions train;
    train.vae_iterations = 0;
    train.model_iterations = 0;
    codec->Train(data::SequenceDataset(field), train);

    api::SessionOptions session_options;
    session_options.bound = {api::ErrorBoundMode::kPointwiseL2, 0.1};
    api::EncodeSession session(codec.get(), spec.variables, spec.height,
                               spec.width, session_options);
    session.Push(field);
    const fs::path path =
        fs::temp_directory_path() /
        ("decode_dump_" + std::to_string(::getpid()) + ".glsca");
    fs::remove(path);
    core::DatasetArchive::AppendToFile(path.string(), session.Finish());
    std::ifstream in(path, std::ios::binary);
    const std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
    std::printf("shard %d archive %016llx\n", shard,
                static_cast<unsigned long long>(
                    Fnv1a(bytes.data(), bytes.size())));

    const auto reader = core::ArchiveReader::FromFile(path.string());
    for (const std::int64_t max_batch : {1, 3}) {
      serve::ScheduleOptions schedule;
      schedule.cache_windows = 0;
      schedule.max_batch = max_batch;
      serve::DecodeScheduler scheduler(&reader, codec.get(), schedule);
      const Tensor all = scheduler.GetAll();
      std::printf("shard %d getall max_batch=%lld %016llx\n", shard,
                  static_cast<long long>(max_batch),
                  static_cast<unsigned long long>(Fnv1a(
                      all.data(),
                      static_cast<std::size_t>(all.numel()) * sizeof(float))));
    }
    fs::remove(path);
  }
  return 0;
}
