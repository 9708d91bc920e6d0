// Self-tests of the benchmark's own machinery: percentiles, span self-time
// arithmetic, the forwarding codec decorator and the bound checker. Run by
// `python3 perfbench/run.py --selftest`, which then smoke-runs every
// workload at tiny sizes. Exits nonzero on the first failed check.
#include <cstdio>
#include <cstring>
#include <limits>
#include <thread>
#include <vector>

#include "api/compressor.h"
#include "data/field_generators.h"
#include "measure.h"
#include "tensor/workspace.h"
#include "trace.h"
#include "traced_codec.h"

namespace {

int failures = 0;

#define EXPECT(cond)                                                   \
  do {                                                                 \
    if (!(cond)) {                                                     \
      std::fprintf(stderr, "%s:%d: check failed: %s\n", __FILE__,      \
                   __LINE__, #cond);                                   \
      ++failures;                                                      \
    }                                                                  \
  } while (0)

using perfbench::Span;

void TestNearestRank() {
  std::vector<double> v;
  for (int i = 10; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  EXPECT(perfbench::NearestRank(v, 50) == 5);
  EXPECT(perfbench::NearestRank(v, 90) == 9);
  EXPECT(perfbench::NearestRank(v, 91) == 10);
  EXPECT(perfbench::NearestRank(v, 100) == 10);
  EXPECT(perfbench::NearestRank(v, 1) == 1);
  EXPECT(perfbench::NearestRank({7.0}, 99) == 7.0);
  EXPECT(perfbench::Median({4.0, 1.0, 3.0, 2.0}) == 2.5);
  bool threw = false;
  try {
    (void)perfbench::NearestRank({}, 50);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  EXPECT(threw);
}

void TestSelfTimes() {
  // op [0,100] > a [10,40] > a1 [20,30]; op > b [50,90].
  const std::vector<Span> nested = {
      {"op", 0, 100, -1, 0, 0},
      {"a", 10, 40, 0, 0, 0},
      {"a1", 20, 30, 1, 0, 0},
      {"b", 50, 90, 0, 0, 0},
  };
  const std::vector<std::int64_t> self = perfbench::SelfTimesNs(nested);
  EXPECT(self[0] == 30);
  EXPECT(self[1] == 20);
  EXPECT(self[2] == 10);
  EXPECT(self[3] == 40);
  EXPECT(self[0] + self[1] + self[2] + self[3] == 100);

  // Overlapping children are merged and a child sticking out is clipped.
  const std::vector<Span> ragged = {
      {"op", 0, 100, -1, 0, 0},
      {"x", 10, 50, 0, 0, 0},
      {"y", 40, 60, 0, 0, 0},
      {"z", 90, 120, 0, 0, 0},
  };
  EXPECT(perfbench::SelfTimesNs(ragged)[0] == 100 - 50 - 10);

  // A span opened on another thread while an op is in flight nests under
  // the op's root.
  perfbench::Tracer tracer;
  tracer.BeginOp(7);
  std::thread worker([&tracer] {
    perfbench::ScopedSpan outer(&tracer, "codec.decode", 3);
    perfbench::ScopedSpan inner(&tracer, "inner");
  });
  worker.join();
  tracer.EndOp();
  const std::vector<Span> spans = tracer.spans();
  EXPECT(spans.size() == 3);
  EXPECT(spans[1].parent == 0 && spans[1].op == 7 && spans[1].batch == 3);
  EXPECT(spans[2].parent == 1);
  const std::vector<std::int64_t> traced = perfbench::SelfTimesNs(spans);
  EXPECT(traced[0] + traced[1] + traced[2] ==
         spans[0].end_ns - spans[0].start_ns);
}

bool SameBytes(const glsc::Tensor& a, const glsc::Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

void TestDecoratorIsByteIdentical(const std::string& name,
                                  const glsc::api::ErrorBound& bound) {
  namespace api = glsc::api;
  api::CodecOptions options;
  options.sample_steps = 2;
  auto bare = api::Compressor::Create(name, options);
  perfbench::Tracer tracer;
  perfbench::TracedCodec traced(bare.get(), &tracer);
  EXPECT(traced.name() == bare->name());
  EXPECT(traced.window() == bare->window());

  const glsc::Tensor field =
      glsc::data::GenerateClimate({1, bare->window(), 32, 32, 3});
  const glsc::Tensor window = field.Reshape({bare->window(), 32, 32});
  const std::vector<glsc::data::FrameNorm> norms(
      static_cast<std::size_t>(bare->window()));
  const auto bare_payload = bare->CompressWindow(window, bound, norms);
  const auto traced_payload = traced.CompressWindow(window, bound, norms);
  EXPECT(bare_payload == traced_payload);

  glsc::tensor::Workspace ws;
  EXPECT(SameBytes(bare->DecompressWindow(bare_payload),
                   traced.DecompressWindow(bare_payload)));
  const std::vector<const std::vector<std::uint8_t>*> batch = {&bare_payload,
                                                               &bare_payload};
  const auto bare_batch = bare->DecompressWindows(batch, &ws);
  traced.KeepDecodeCalls(true);
  const auto traced_batch = traced.DecompressWindows(batch, &ws);
  EXPECT(bare_batch.size() == 2 && traced_batch.size() == 2);
  EXPECT(SameBytes(bare_batch[0], traced_batch[0]));
  EXPECT(SameBytes(bare_batch[1], traced_batch[1]));
  // Forwarded as one batch: one call, one span.
  EXPECT(traced.decode_calls().size() == 1);
  EXPECT(traced.decode_calls()[0].payloads.size() == 2);
  const std::vector<Span> spans = tracer.spans();
  EXPECT(spans.back().name == "codec.decode" && spans.back().batch == 2);

  auto clone = traced.Clone();
  EXPECT(clone->name() == bare->name());
  EXPECT(SameBytes(clone->DecompressWindow(bare_payload),
                   bare->DecompressWindow(bare_payload)));
}

void TestBoundChecker() {
  using perfbench::BoundChecker;
  const std::int64_t frame = 64;
  std::vector<float> source(2 * frame);
  for (std::size_t i = 0; i < source.size(); ++i) {
    source[i] = static_cast<float>(i % frame);  // range 63 in each frame
  }
  for (const BoundChecker::Mode mode : {BoundChecker::Mode::kPointwiseRelative,
                                        BoundChecker::Mode::kFrameL2}) {
    BoundChecker exact(mode, 1e-2);
    exact.Check(source.data(), source.data(), 2, frame, 63.0);
    EXPECT(exact.violations() == 0 && exact.frames_checked() == 2);
    EXPECT(exact.nrmse() == 0.0);

    // Within the bound: 0.5 * bound * range on one point.
    std::vector<float> close = source;
    close[5] += 0.5f * 0.63f;
    BoundChecker ok(mode, 1e-2);
    ok.Check(source.data(), close.data(), 2, frame, 63.0);
    EXPECT(ok.violations() == 0 && ok.nrmse() > 0.0);

    // Twice the bound on one point of the second frame.
    std::vector<float> perturbed = source;
    perturbed[frame + 3] += 2.0f * 0.63f;
    BoundChecker bad(mode, 1e-2);
    bad.Check(source.data(), perturbed.data(), 2, frame, 63.0);
    EXPECT(bad.violations() == 1);
    EXPECT(bad.worst_share() > 1.5);

    // A non-finite output always fails.
    std::vector<float> broken = source;
    broken[7] = std::numeric_limits<float>::quiet_NaN();
    BoundChecker nan(mode, 1e-2);
    nan.Check(source.data(), broken.data(), 2, frame, 63.0);
    EXPECT(nan.violations() == 1);
  }
}

}  // namespace

int main() {
  TestNearestRank();
  TestSelfTimes();
  TestBoundChecker();
  TestDecoratorIsByteIdentical(
      "sz", {glsc::api::ErrorBoundMode::kRelative, 1e-2});
  TestDecoratorIsByteIdentical("glsc", {glsc::api::ErrorBoundMode::kNone, 0.0});
  if (failures > 0) {
    std::fprintf(stderr, "perfbench self-test: %d check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench self-test: all checks passed\n");
  return 0;
}
