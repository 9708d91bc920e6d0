// Random-access serving bench: what the footer index + decode scheduler buy
// over parsing and decoding the whole archive. Three measurements on one
// file-backed archive:
//
//   full      — ArchiveReader::FromFile + GetAll (every record read and
//               decoded)
//   window    — ArchiveReader::FromFile + one cold DecodeScheduler::Get of a
//               single window (one record decoded, one payload read)
//   cached    — the same Get again (served from the LRU, no decode)
//
// Emits a small JSON blob (--json=PATH) with the timings and reconstruction
// metrics; scripts/check.sh greps it for inf/nan, so every value here must be
// finite.
//
//   ./bench_random_access [--codec=sz] [--frames=128] [--hw=32]
//                         [--variables=2] [--workers=2] [--bound=0.01]
//                         [--json=PATH]
#include <cstdio>
#include <filesystem>
#include <string>

#include "api/session.h"
#include "core/archive_reader.h"
#include "core/container.h"
#include "data/field_generators.h"
#include "serve/decode_scheduler.h"
#include "tensor/metrics.h"
#include "util/flags.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace glsc;
  Flags flags(argc, argv);
  const std::string codec_name = flags.GetString("codec", "sz");
  const std::string json_path = flags.GetString("json", "");

  data::FieldSpec spec;
  spec.variables = flags.GetInt("variables", 2);
  spec.frames = flags.GetInt("frames", 128);
  spec.height = flags.GetInt("hw", 32);
  spec.width = spec.height;
  spec.seed = 4242;
  const Tensor field = data::GenerateClimate(spec);

  auto codec = api::Compressor::Create(codec_name);
  api::SessionOptions session_options;
  if (codec->capabilities().Supports(api::ErrorBoundMode::kRelative)) {
    session_options.bound = {api::ErrorBoundMode::kRelative,
                             flags.GetDouble("bound", 0.01)};
  }
  api::EncodeSession encode(codec.get(), field.dim(0), field.dim(2),
                            field.dim(3), session_options);
  encode.Push(field);
  const core::DatasetArchive archive = encode.Finish();
  const std::string path = "/tmp/glsc_bench_random_access.glsca";
  archive.WriteFile(path);
  const double archive_mb =
      static_cast<double>(archive.Serialize().size()) / double(1 << 20);

  std::printf("random access — %s archive: %zu records, %.2f MB on disk\n",
              archive.codec().c_str(), archive.entries().size(), archive_mb);

  // Full decode: the pre-index workflow — every record read and decoded.
  Timer full_timer;
  const auto full_reader = core::ArchiveReader::FromFile(path);
  serve::DecodeScheduler full_scheduler(&full_reader, codec.get());
  const Tensor full = full_scheduler.GetAll();
  const double t_full = full_timer.Seconds();
  const double nrmse = Nrmse(field, full);
  const double psnr = Psnr(field, full);

  // Single-window fetch through the footer index: one record decoded.
  serve::ScheduleOptions serve_options;
  serve_options.workers = flags.GetInt("workers", 2);
  auto reader = core::ArchiveReader::FromFile(path);
  serve::DecodeScheduler scheduler(&reader, codec.get(), serve_options);
  const std::int64_t window = codec->window();
  const std::int64_t t0 = (field.dim(1) / window / 2) * window;

  Timer window_timer;
  const Tensor slice = scheduler.Get(0, t0, t0 + window);
  const double t_window = window_timer.Seconds();

  Timer cached_timer;
  (void)scheduler.Get(0, t0, t0 + window);
  const double t_cached = cached_timer.Seconds();

  std::printf(
      "full decode      %9.4f s   (%zu records)\n"
      "window fetch     %9.4f s   (%lld records decoded, %llu of %llu "
      "archive bytes read)\n"
      "cached re-fetch  %9.4f s   (%lld cache hits)\n"
      "speedup: window %.1fx, cached %.1fx vs full decode\n"
      "fidelity: NRMSE %.4e, PSNR %.1f dB\n",
      t_full, archive.entries().size(), t_window,
      static_cast<long long>(scheduler.decoded_records()),
      static_cast<unsigned long long>(reader.payload_bytes_fetched()),
      static_cast<unsigned long long>(reader.archive_bytes()), t_cached,
      static_cast<long long>(scheduler.cache_hits()),
      t_full / std::max(t_window, 1e-9), t_full / std::max(t_cached, 1e-9),
      nrmse, psnr);

  if (!json_path.empty()) {
    std::FILE* out = std::fopen(json_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "error: cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(out,
                 "{\n"
                 "  \"bench\": \"random_access\",\n"
                 "  \"codec\": \"%s\",\n"
                 "  \"records\": %zu,\n"
                 "  \"archive_mb\": %.6g,\n"
                 "  \"full_decode_s\": %.6g,\n"
                 "  \"window_fetch_s\": %.6g,\n"
                 "  \"cached_fetch_s\": %.6g,\n"
                 "  \"payload_bytes_read\": %llu,\n"
                 "  \"nrmse\": %.6g,\n"
                 "  \"psnr_db\": %.6g\n"
                 "}\n",
                 archive.codec().c_str(), archive.entries().size(), archive_mb,
                 t_full, t_window, t_cached,
                 static_cast<unsigned long long>(
                     reader.payload_bytes_fetched()),
                 nrmse, psnr);
    std::fclose(out);
    std::printf("wrote %s\n", json_path.c_str());
  }
  std::filesystem::remove(path);
  return 0;
}
