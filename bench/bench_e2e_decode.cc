// End-to-end decode throughput for the serving hot path. One file-backed
// archive, two measurements:
//
//   full     — DecodeScheduler::GetAll over every record (cache disabled,
//              max_batch=--batch)
//   fetch    — DecodeScheduler::Get over every window with the cache disabled
//              (every fetch pays a real decode), measured twice over identical
//              spanning queries: once with max_batch=1 (batches of one, a
//              DecompressWindows call per record) and once with
//              max_batch=--batch (misses coalesced into DecompressWindows).
//              The two arms differ ONLY in batch size, and their outputs are
//              asserted byte-identical before any number is reported.
//
// Emits BENCH_e2e.json with windows/s + MB/s for the full decode and the
// serial-vs-batched fetch comparison; scripts/check.sh gates on the file
// existing with the fetch_batched_* fields present and finite, so every
// number here must be finite.
//
//   ./bench_e2e_decode [--codec=glsc] [--frames=48] [--hw=32] [--variables=1]
//                      [--steps=6] [--workers=2] [--batch=8] [--repeat=1]
//                      [--json=PATH]
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "api/session.h"
#include "core/archive_reader.h"
#include "core/container.h"
#include "data/field_generators.h"
#include "harness.h"
#include "serve/decode_scheduler.h"
#include "tensor/metrics.h"
#include "util/flags.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace glsc;
  Flags flags(argc, argv);
  const std::string codec_name = flags.GetString("codec", "glsc");
  const std::string json_path = flags.GetString("json", "BENCH_e2e.json");
  const std::int64_t repeat = std::max<std::int64_t>(flags.GetInt("repeat", 1), 1);

  data::FieldSpec spec;
  spec.variables = flags.GetInt("variables", 1);
  spec.frames = flags.GetInt("frames", 48);
  spec.height = flags.GetInt("hw", 32);
  spec.width = spec.height;
  spec.seed = 2026;
  data::SequenceDataset dataset(data::GenerateClimate(spec));
  const Tensor& field = dataset.raw();
  const double decoded_mb = dataset.OriginalBytes() / double(1 << 20);

  api::CodecOptions options;
  options.window = 16;
  options.sample_steps = flags.GetInt("steps", 6);
  api::TrainOptions train;
  train.vae_iterations = 200;
  train.model_iterations = 200;
  train.crop = 32;
  auto codec = api::GetOrTrainCodec(codec_name, options, dataset, train,
                                    bench::ArtifactsDir(),
                                    "e2e_" + codec_name);

  api::SessionOptions session_options;
  if (codec->capabilities().Supports(api::ErrorBoundMode::kRelative)) {
    session_options.bound = {api::ErrorBoundMode::kRelative,
                             flags.GetDouble("bound", 0.01)};
  }
  api::EncodeSession encode(codec.get(), field.dim(0), field.dim(2),
                            field.dim(3), session_options);
  encode.Push(field);
  const core::DatasetArchive archive = encode.Finish();
  const std::string path = "/tmp/glsc_bench_e2e.glsca";
  archive.WriteFile(path);
  const std::size_t records = archive.entries().size();
  const std::int64_t window = codec->window();

  bench::PrintHeader("e2e decode throughput — " + codec_name);
  std::printf("archive: %zu records of %lld frames (%lldx%lld), %.2f MB "
              "decoded per pass\n",
              records, (long long)window, (long long)spec.height,
              (long long)spec.width, decoded_mb);

  // Every arm reads the file with the cache off, so each pass pays real
  // decodes. max_batch=1 decodes batches of one; max_batch=--batch coalesces
  // a query's misses into DecompressWindows calls so model-based codecs run
  // one network pass over the stacked windows.
  const std::int64_t batch =
      std::max<std::int64_t>(flags.GetInt("batch", 8), 1);
  auto reader = core::ArchiveReader::FromFile(path);
  serve::ScheduleOptions serial_options;
  serial_options.workers = flags.GetInt("workers", 2);
  serial_options.cache_windows = 0;
  serial_options.max_batch = 1;
  serve::ScheduleOptions batched_options = serial_options;
  batched_options.max_batch = batch;

  // -- full archive decode -------------------------------------------------
  serve::DecodeScheduler full_scheduler(&reader, codec.get(), batched_options);
  Timer full_timer;
  Tensor full;
  for (std::int64_t r = 0; r < repeat; ++r) full = full_scheduler.GetAll();
  const double t_full = full_timer.Seconds() / double(repeat);
  const double nrmse = Nrmse(field, full);
  const double psnr = Psnr(field, full);

  // -- window fetches through the scheduler ---------------------------------
  // Two schedulers over the same archive and the same spanning queries,
  // differing ONLY in batch size.
  serve::DecodeScheduler serial_scheduler(&reader, codec.get(),
                                          serial_options);
  serve::DecodeScheduler batched_scheduler(&reader, codec.get(),
                                           batched_options);

  const std::int64_t fetch_windows = field.dim(1) / window;
  std::vector<Tensor> serial_out;
  std::vector<Tensor> batched_out;
  Timer fetch_timer;
  for (std::int64_t r = 0; r < repeat; ++r) {
    serial_out.clear();
    for (std::int64_t w = 0; w < fetch_windows; w += batch) {
      const std::int64_t hi = std::min((w + batch) * window, field.dim(1));
      serial_out.push_back(serial_scheduler.Get(0, w * window, hi));
    }
  }
  const double t_fetch = fetch_timer.Seconds() / double(repeat);
  Timer batched_timer;
  for (std::int64_t r = 0; r < repeat; ++r) {
    batched_out.clear();
    for (std::int64_t w = 0; w < fetch_windows; w += batch) {
      const std::int64_t hi = std::min((w + batch) * window, field.dim(1));
      batched_out.push_back(batched_scheduler.Get(0, w * window, hi));
    }
  }
  const double t_batched = batched_timer.Seconds() / double(repeat);
  for (std::size_t i = 0; i < serial_out.size(); ++i) {
    if (serial_out[i].numel() != batched_out[i].numel() ||
        std::memcmp(serial_out[i].data(), batched_out[i].data(),
                    std::size_t(serial_out[i].numel()) * sizeof(float)) != 0) {
      std::fprintf(stderr,
                   "error: batched fetch differs from serial fetch "
                   "(query %zu) — batching must be byte-identical\n",
                   i);
      return 1;
    }
  }
  const double fetch_mb = double(fetch_windows * window * spec.height *
                                 spec.width * sizeof(float)) / double(1 << 20);

  const double eps = 1e-9;
  const double full_wps = double(records) / std::max(t_full, eps);
  const double full_mbps = decoded_mb / std::max(t_full, eps);
  const double fetch_wps = double(fetch_windows) / std::max(t_fetch, eps);
  const double fetch_mbps = fetch_mb / std::max(t_fetch, eps);
  const double batched_wps = double(fetch_windows) / std::max(t_batched, eps);
  const double batched_speedup = t_fetch / std::max(t_batched, eps);

  std::printf(
      "full decode      %9.4f s   %7.2f windows/s   %7.2f MB/s\n"
      "fetch serial     %9.4f s   %7.2f windows/s   %7.2f MB/s   "
      "(max_batch=1)\n"
      "fetch batched    %9.4f s   %7.2f windows/s   (%.2fx vs serial, "
      "max_batch=%lld, byte-identical)\n"
      "fidelity: NRMSE %.4e, PSNR %.1f dB\n",
      t_full, full_wps, full_mbps, t_fetch, fetch_wps, fetch_mbps, t_batched,
      batched_wps, batched_speedup, (long long)batch, nrmse, psnr);

  if (!json_path.empty()) {
    std::FILE* out = std::fopen(json_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "error: cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(out,
                 "{\n"
                 "  \"bench\": \"e2e_decode\",\n"
                 "  \"codec\": \"%s\",\n"
                 "  \"records\": %zu,\n"
                 "  \"decoded_mb\": %.6g,\n"
                 "  \"full_decode_s\": %.6g,\n"
                 "  \"full_windows_per_s\": %.6g,\n"
                 "  \"full_mb_per_s\": %.6g,\n"
                 "  \"fetch_s\": %.6g,\n"
                 "  \"fetch_windows_per_s\": %.6g,\n"
                 "  \"fetch_mb_per_s\": %.6g,\n"
                 "  \"fetch_serial_windows_per_s\": %.6g,\n"
                 "  \"fetch_batched_windows_per_s\": %.6g,\n"
                 "  \"fetch_batched_speedup\": %.6g,\n"
                 "  \"fetch_batch_size\": %lld,\n"
                 "  \"nrmse\": %.6g,\n"
                 "  \"psnr_db\": %.6g\n"
                 "}\n",
                 codec_name.c_str(), records, decoded_mb, t_full, full_wps,
                 full_mbps, t_fetch, fetch_wps, fetch_mbps, fetch_wps,
                 batched_wps, batched_speedup, (long long)batch, nrmse, psnr);
    std::fclose(out);
    std::printf("wrote %s\n", json_path.c_str());
  }
  std::filesystem::remove(path);
  return 0;
}
