// Filter-pipeline micro-bench: what the v4 container's lossless stage costs
// and buys. Three measurement groups, one JSON blob (BENCH_filters.json):
//
//   kernels  — bitshuffle / delta / glz encode+decode GB/s at every ISA
//              level this host can dispatch (scalar..AVX-512), on a
//              structured f32-shaped buffer
//   archives — per codec: v4 (filtered) vs v3 (raw) archive size on the
//              trajectory config, the ratio check.sh tracks across PRs
//   fetch    — per codec: file-backed Payload MB/s (decoded bytes per
//              second) over the whole archive, v3 vs v4 — the acceptance
//              bar is that filtered fetch is no worse than raw
//
// scripts/check.sh runs this with --codecs=sz (model-free, fast) and greps
// the JSON for required fields and non-finite values; bench_smoke.sh runs
// the full --codecs=glsc,sz trajectory (glsc trains or reuses the cached
// e2e artifact).
//
//   ./bench_filters [--codecs=sz] [--frames=128] [--hw=32] [--variables=2]
//                   [--mb=8] [--reps=5] [--json=BENCH_filters.json]
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "api/session.h"
#include "core/archive_reader.h"
#include "core/container.h"
#include "core/filters.h"
#include "data/field_generators.h"
#include "harness.h"
#include "tensor/simd/dispatch.h"
#include "tensor/workspace.h"
#include "util/flags.h"
#include "util/timer.h"

namespace {

using namespace glsc;

std::vector<std::string> SplitCodecs(const std::string& list) {
  std::vector<std::string> out;
  std::stringstream ss(list);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

// Structured buffer with the byte statistics the filters target: smooth f32
// series (norms-like) interleaved with quantized ramps (residual-like).
std::vector<std::uint8_t> StructuredBuffer(std::size_t bytes) {
  std::vector<std::uint8_t> buf(bytes);
  const std::size_t floats = bytes / sizeof(float);
  for (std::size_t i = 0; i < floats; ++i) {
    const float f = 1.0f + 0.0005f * static_cast<float>(i % 4093);
    std::memcpy(buf.data() + i * sizeof(float), &f, sizeof f);
  }
  for (std::size_t i = floats * sizeof(float); i < bytes; ++i) {
    buf[i] = static_cast<std::uint8_t>(i / 11);
  }
  return buf;
}

double Gbps(std::size_t bytes, int reps, double seconds) {
  return static_cast<double>(bytes) * reps / seconds / 1e9;
}

struct LevelResult {
  std::string level;
  double bitshuffle_enc_gbps = 0.0;
  double bitshuffle_dec_gbps = 0.0;
  double delta_enc_gbps = 0.0;
  double delta_dec_gbps = 0.0;
};

struct CodecResult {
  std::string codec;
  std::size_t v3_bytes = 0;
  std::size_t v4_bytes = 0;
  double v4_over_v3_ratio = 0.0;
  double v3_read_mb_s = 0.0;          // raw payload bytes out of the file
  double v4_read_mb_s = 0.0;
  double v3_window_fetch_mb_s = 0.0;  // decoded field bytes through the codec
  double v4_window_fetch_mb_s = 0.0;
};

// Decoded payload MB/s of a full file-backed sweep over every record,
// repeated `reps` times (first sweep warms the page cache for both arms).
double FetchMbPerS(const std::string& path, int reps) {
  const auto reader = core::ArchiveReader::FromFile(path);
  tensor::Workspace ws;
  std::vector<std::uint8_t> out;
  for (std::size_t i = 0; i < reader.records().size(); ++i) {
    reader.Payload(i, &out, &ws);
  }
  Timer timer;
  for (int r = 0; r < reps; ++r) {
    for (std::size_t i = 0; i < reader.records().size(); ++i) {
      reader.Payload(i, &out, &ws);
    }
  }
  const double seconds = timer.Seconds();
  const double decoded =
      static_cast<double>(reader.decoded_payload_bytes()) * reps /
      (reps + 1.0);  // warm-up sweep included in the counter, not the timer
  return decoded / seconds / double(1 << 20);
}

// The serving-path measurement: every record read AND decompressed through
// the codec, MB/s in decoded field bytes — what a window fetch actually
// costs. The filter stage must not make this worse than the raw layout.
double WindowFetchMbPerS(const std::string& path, api::Compressor* codec,
                         int reps) {
  const auto reader = core::ArchiveReader::FromFile(path);
  tensor::Workspace ws;
  std::vector<std::uint8_t> scratch;
  double decoded_bytes = 0.0;
  // Warm-up sweep: page cache, workspace slabs, codec scratch.
  for (std::size_t i = 0; i < reader.records().size(); ++i) {
    const Tensor w =
        codec->DecompressWindow(reader.Payload(i, &scratch, &ws), &ws);
    decoded_bytes += static_cast<double>(w.numel()) * sizeof(float);
  }
  Timer timer;
  for (int r = 0; r < reps; ++r) {
    for (std::size_t i = 0; i < reader.records().size(); ++i) {
      (void)codec->DecompressWindow(reader.Payload(i, &scratch, &ws), &ws);
    }
  }
  return decoded_bytes * reps / timer.Seconds() / double(1 << 20);
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const std::string json_path = flags.GetString("json", "BENCH_filters.json");
  const auto codecs = SplitCodecs(flags.GetString("codecs", "sz"));
  const std::size_t mb = static_cast<std::size_t>(
      std::max<std::int64_t>(flags.GetInt("mb", 8), 1));
  const int reps =
      static_cast<int>(std::max<std::int64_t>(flags.GetInt("reps", 5), 1));

  // --- Group 1: kernel GB/s per dispatch level. ---
  const std::size_t n = mb << 20;
  const std::vector<std::uint8_t> src = StructuredBuffer(n);
  std::vector<std::uint8_t> dst(n);
  std::vector<simd::IsaLevel> levels{simd::IsaLevel::kScalar};
  if (simd::DetectedIsa() >= simd::IsaLevel::kSSE2)
    levels.push_back(simd::IsaLevel::kSSE2);
  if (simd::DetectedIsa() >= simd::IsaLevel::kAVX2)
    levels.push_back(simd::IsaLevel::kAVX2);
  if (simd::DetectedIsa() >= simd::IsaLevel::kAVX512)
    levels.push_back(simd::IsaLevel::kAVX512);

  std::vector<LevelResult> kernel_results;
  for (const simd::IsaLevel level : levels) {
    simd::ScopedIsaOverride override_level(level);
    LevelResult r;
    r.level = simd::IsaName(level);
    const core::FilterSpec shuffle{core::FilterChain::kBitshuffle, 4,
                                   core::FilterBackend::kNone};
    const core::FilterSpec delta{core::FilterChain::kDelta, 4,
                                 core::FilterBackend::kNone};
    for (const auto* spec : {&shuffle, &delta}) {
      std::vector<std::uint8_t> stored;
      Timer enc;
      for (int i = 0; i < reps; ++i) {
        stored = core::EncodeFiltered(src.data(), n, *spec);
      }
      const double enc_gbps = Gbps(n, reps, enc.Seconds());
      Timer dec;
      for (int i = 0; i < reps; ++i) {
        core::DecodeFiltered(stored.data(), stored.size(), *spec, dst.data(),
                             n, nullptr);
      }
      const double dec_gbps = Gbps(n, reps, dec.Seconds());
      if (spec == &shuffle) {
        r.bitshuffle_enc_gbps = enc_gbps;
        r.bitshuffle_dec_gbps = dec_gbps;
      } else {
        r.delta_enc_gbps = enc_gbps;
        r.delta_dec_gbps = dec_gbps;
      }
    }
    kernel_results.push_back(r);
    std::printf(
        "%-7s bitshuffle %6.2f / %6.2f GB/s   delta %6.2f / %6.2f GB/s "
        "(enc/dec)\n",
        r.level.c_str(), r.bitshuffle_enc_gbps, r.bitshuffle_dec_gbps,
        r.delta_enc_gbps, r.delta_dec_gbps);
  }

  // glz is dispatch-independent (byte LZ, no SIMD kernels): measure once.
  const std::vector<std::uint8_t> glz_stream =
      core::GlzCompress(src.data(), n);
  double glz_comp_gbps;
  {
    Timer t;
    for (int i = 0; i < reps; ++i) (void)core::GlzCompress(src.data(), n);
    glz_comp_gbps = Gbps(n, reps, t.Seconds());
  }
  double glz_decomp_gbps;
  {
    Timer t;
    for (int i = 0; i < reps; ++i) {
      core::GlzDecompress(glz_stream.data(), glz_stream.size(), dst.data(), n);
    }
    glz_decomp_gbps = Gbps(n, reps, t.Seconds());
  }
  std::printf("glz     comp %6.2f GB/s  decomp %6.2f GB/s  (ratio %.3f)\n",
              glz_comp_gbps, glz_decomp_gbps,
              static_cast<double>(glz_stream.size()) / n);

  // --- Groups 2+3: archive ratio and fetch MB/s per codec on the trajectory
  // config (same generator/seed as bench_e2e_decode). ---
  data::FieldSpec spec;
  spec.variables = flags.GetInt("variables", 2);
  spec.frames = flags.GetInt("frames", 128);
  spec.height = flags.GetInt("hw", 32);
  spec.width = spec.height;
  spec.seed = 2026;
  data::SequenceDataset dataset(data::GenerateClimate(spec));

  std::vector<CodecResult> codec_results;
  for (const std::string& codec_name : codecs) {
    api::CodecOptions options;
    options.window = 16;
    options.sample_steps = 6;
    api::TrainOptions train;
    train.vae_iterations = 200;
    train.model_iterations = 200;
    train.crop = 32;
    auto codec = api::GetOrTrainCodec(codec_name, options, dataset, train,
                                      bench::ArtifactsDir(),
                                      "e2e_" + codec_name);
    api::SessionOptions session_options;
    if (codec->capabilities().Supports(api::ErrorBoundMode::kRelative)) {
      session_options.bound = {api::ErrorBoundMode::kRelative, 0.01};
    }
    api::EncodeSession encode(codec.get(), spec.variables, spec.height,
                              spec.width, session_options);
    encode.Push(dataset.raw());
    const core::DatasetArchive archive = encode.Finish();

    CodecResult r;
    r.codec = codec_name;
    const auto v3 = archive.Serialize({.version = 3});
    const auto v4 = archive.Serialize();
    r.v3_bytes = v3.size();
    r.v4_bytes = v4.size();
    r.v4_over_v3_ratio =
        static_cast<double>(v4.size()) / static_cast<double>(v3.size());

    const std::string v3_path = "/tmp/glsc_bench_filters_v3.glsca";
    const std::string v4_path = "/tmp/glsc_bench_filters_v4.glsca";
    WriteFileBytes(v3_path, v3);
    WriteFileBytes(v4_path, v4);
    r.v3_read_mb_s = FetchMbPerS(v3_path, reps);
    r.v4_read_mb_s = FetchMbPerS(v4_path, reps);
    r.v3_window_fetch_mb_s = WindowFetchMbPerS(v3_path, codec.get(), reps);
    r.v4_window_fetch_mb_s = WindowFetchMbPerS(v4_path, codec.get(), reps);
    std::filesystem::remove(v3_path);
    std::filesystem::remove(v4_path);
    codec_results.push_back(r);
    std::printf(
        "%-5s v4/v3 size %zu/%zu = %.4f   payload read v3 %8.1f v4 %8.1f "
        "MB/s   window fetch v3 %8.1f v4 %8.1f MB/s\n",
        r.codec.c_str(), r.v4_bytes, r.v3_bytes, r.v4_over_v3_ratio,
        r.v3_read_mb_s, r.v4_read_mb_s, r.v3_window_fetch_mb_s,
        r.v4_window_fetch_mb_s);
  }

  if (!json_path.empty()) {
    std::FILE* out = std::fopen(json_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "error: cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(out,
                 "{\n"
                 "  \"bench\": \"filters\",\n"
                 "  \"buffer_mb\": %zu,\n"
                 "  \"glz_comp_gbps\": %.6g,\n"
                 "  \"glz_decomp_gbps\": %.6g,\n"
                 "  \"levels\": [\n",
                 mb, glz_comp_gbps, glz_decomp_gbps);
    for (std::size_t i = 0; i < kernel_results.size(); ++i) {
      const auto& r = kernel_results[i];
      std::fprintf(out,
                   "    {\"level\": \"%s\", \"bitshuffle_enc_gbps\": %.6g, "
                   "\"bitshuffle_dec_gbps\": %.6g, \"delta_enc_gbps\": %.6g, "
                   "\"delta_dec_gbps\": %.6g}%s\n",
                   r.level.c_str(), r.bitshuffle_enc_gbps,
                   r.bitshuffle_dec_gbps, r.delta_enc_gbps, r.delta_dec_gbps,
                   i + 1 < kernel_results.size() ? "," : "");
    }
    std::fprintf(out, "  ],\n  \"codecs\": [\n");
    for (std::size_t i = 0; i < codec_results.size(); ++i) {
      const auto& r = codec_results[i];
      std::fprintf(
          out,
          "    {\"codec\": \"%s\", \"v3_bytes\": %zu, \"v4_bytes\": %zu, "
          "\"v4_over_v3_ratio\": %.6g, \"v3_read_mb_s\": %.6g, "
          "\"v4_read_mb_s\": %.6g, \"v3_window_fetch_mb_s\": %.6g, "
          "\"v4_window_fetch_mb_s\": %.6g}%s\n",
          r.codec.c_str(), r.v3_bytes, r.v4_bytes, r.v4_over_v3_ratio,
          r.v3_read_mb_s, r.v4_read_mb_s, r.v3_window_fetch_mb_s,
          r.v4_window_fetch_mb_s, i + 1 < codec_results.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
