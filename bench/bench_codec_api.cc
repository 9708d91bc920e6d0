// Codec-agnostic throughput smoke over the unified API: streams a synthetic
// [V, T, H, W] field through EncodeSession, decodes the archive with
// DecodeScheduler::GetAll for the chosen backend and reports encode/decode
// MB/s plus the achieved ratio. One --codec= flag switches among all
// registered backends; learned codecs train once (tiny budget) and cache the
// artifact like every other bench.
//
//   ./bench_codec_api --codec=sz [--frames=96] [--hw=32] [--variables=2]
//                     [--bound=0.01] [--workers=1] [--list]
#include <cstdio>

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
  if (flags.Has("list")) {
    std::printf("registered codecs:");
    for (const auto& name : api::RegisteredCompressors()) {
      std::printf(" %s", name.c_str());
    }
    std::printf("\n");
    return 0;
  }
  const std::string codec_name = flags.GetString("codec", "sz");
  const double bound = flags.GetDouble("bound", 0.01);

  data::FieldSpec spec;
  spec.variables = flags.GetInt("variables", 2);
  spec.frames = flags.GetInt("frames", 96);
  spec.height = flags.GetInt("hw", 32);
  spec.width = spec.height;
  spec.seed = 1234;
  data::SequenceDataset dataset(data::GenerateClimate(spec));
  const double mb = dataset.OriginalBytes() / double(1 << 20);

  api::CodecOptions options;
  options.window = 16;
  options.sample_steps = flags.GetInt("steps", 8);
  api::TrainOptions train;
  train.vae_iterations = 200;
  train.model_iterations = 200;
  train.crop = 32;
  auto codec = api::GetOrTrainCodec(codec_name, options, dataset, train,
                                    bench::ArtifactsDir(),
                                    "codec_api_" + codec_name);

  api::SessionOptions session_options;
  if (codec->capabilities().Supports(api::ErrorBoundMode::kPointwiseL2)) {
    session_options.bound = {api::ErrorBoundMode::kPointwiseL2, bound * 10.0};
  } else if (codec->capabilities().Supports(api::ErrorBoundMode::kRelative)) {
    session_options.bound = {api::ErrorBoundMode::kRelative, bound};
  }
  session_options.parallelism = flags.GetInt("workers", 1);

  bench::PrintHeader("codec API throughput — " + codec_name);
  std::printf("stream: %lld x %lld frames of %lldx%lld (%.2f MB), window %lld, "
              "%lld worker(s)\n",
              (long long)spec.variables, (long long)spec.frames,
              (long long)spec.height, (long long)spec.width, mb,
              (long long)codec->window(),
              (long long)session_options.parallelism);

  Timer enc;
  api::EncodeSession session(codec.get(), dataset.variables(),
                             dataset.height(), dataset.width(),
                             session_options);
  session.Push(dataset.raw());
  const core::DatasetArchive archive = session.Finish();
  const double t_enc = enc.Seconds();
  std::vector<std::uint8_t> bytes = archive.Serialize();
  const std::size_t compressed = bytes.size();

  Timer dec;
  const auto reader = core::ArchiveReader::FromBytes(std::move(bytes));
  serve::DecodeScheduler scheduler(&reader, codec.get());
  const Tensor restored = scheduler.GetAll();
  const double t_dec = dec.Seconds();

  std::printf("encode %8.2f MB/s   decode %8.3f MB/s   CR %.1fx   NRMSE %.3e\n",
              mb / t_enc, mb / t_dec,
              dataset.OriginalBytes() / double(compressed),
              Nrmse(dataset.raw(), restored));
  return 0;
}
