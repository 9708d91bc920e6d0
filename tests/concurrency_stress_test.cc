// Multithreaded stress tests for the serving stack, written to give TSan (and
// the annotated lock discipline) real interleavings to chew on:
//
//   - ShardManager under concurrent Get / SetTenantLimits / ReviveShard /
//     Stats churn from many tenant threads, with admission limits tight
//     enough that shedding and tenant-limit rejections actually happen.
//   - DecodeScheduler with a one-window cache under concurrent Get, so
//     eviction and the single-flight table churn constantly.
//   - GEMM from several threads at once, each packing into its own
//     per-thread buffer.
//   - GLSC batch decodes from two threads at once, each fanning its sampler
//     and VAE pieces out over the shared global pool, so one model's
//     inference forwards run on several threads at a time.
//
// Every successful Get (and every product) is compared byte-for-byte against
// a single-threaded reference — concurrency must never change bytes. The suites run
// under the default gate for functional coverage and under the TSan lane
// (scripts/check.sh CHECK_SANITIZE=thread) for race coverage.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/session.h"
#include "core/archive_reader.h"
#include "core/container.h"
#include "core/glsc_compressor.h"
#include "data/field_generators.h"
#include "serve/decode_scheduler.h"
#include "serve/shard_manager.h"
#include "tensor/gemm.h"
#include "tensor/workspace.h"
#include "util/rng.h"

namespace glsc::serve {
namespace {

// [1, 40, 32, 32] with window 16: records at t0 = 0, 16 and a padded 8-frame
// tail at t0 = 32 (the same geometry the other serve fixtures use).
core::DatasetArchive EncodeSzArchive(const Tensor& field) {
  auto codec = api::Compressor::Create("sz");
  api::SessionOptions options;
  options.bound = {api::ErrorBoundMode::kRelative, 0.01};
  api::EncodeSession session(codec.get(), field.dim(0), field.dim(2),
                             field.dim(3), options);
  session.Push(field);
  return session.Finish();
}

Tensor MakeField(std::uint64_t seed) {
  data::FieldSpec spec;
  spec.variables = 1;
  spec.frames = 40;
  spec.height = 32;
  spec.width = 32;
  spec.seed = seed;
  return data::GenerateClimate(spec);
}

bool SameBytes(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

// Query ranges covering single records, record pairs, padded-tail overlap,
// and the full stream; id doubles as the thread-local pick index.
const std::vector<std::pair<std::int64_t, std::int64_t>>& QueryRanges() {
  static const std::vector<std::pair<std::int64_t, std::int64_t>> kRanges = {
      {0, 4}, {12, 20}, {16, 32}, {30, 40}, {0, 40}, {18, 22}};
  return kRanges;
}

TEST(ConcurrencyStress, ShardManagerChurn) {
  const Tensor field = MakeField(901);
  const core::DatasetArchive archive = EncodeSzArchive(field);
  const auto bytes = archive.Serialize();
  const auto reader = core::ArchiveReader::FromBytes(bytes);
  auto codec = api::Compressor::Create("sz");

  // Single-threaded reference decode for every query range.
  std::map<std::pair<std::int64_t, std::int64_t>, Tensor> expected;
  {
    const auto ref_reader = core::ArchiveReader::FromBytes(bytes);
    auto ref_codec = api::Compressor::Create("sz");
    DecodeScheduler reference(&ref_reader, ref_codec.get());
    for (const auto& range : QueryRanges()) {
      expected.emplace(range, reference.Get(0, range.first, range.second));
    }
  }

  ShardSpec spec;
  spec.reader = &reader;
  spec.codec = codec.get();
  spec.schedule.workers = 2;
  spec.schedule.cache_windows = 2;  // small enough to evict under churn
  ManagerOptions options;
  options.queue_capacity = 8;  // small enough to shed under churn
  options.worker_threads = 2;
  options.default_limits.max_in_flight = 4;
  ShardManager manager({spec}, options);

  constexpr int kTenantThreads = 4;
  constexpr int kIterations = 40;
  std::atomic<std::int64_t> ok{0};
  std::atomic<std::int64_t> rejected{0};
  std::atomic<bool> done{0};
  std::atomic<int> mismatches{0};

  std::vector<std::thread> threads;
  threads.reserve(kTenantThreads + 3);
  for (int tid = 0; tid < kTenantThreads; ++tid) {
    threads.emplace_back([&, tid] {
      const auto& ranges = QueryRanges();
      for (int i = 0; i < kIterations; ++i) {
        GetRequest request;
        request.variable = 0;
        const auto& range = ranges[(tid + i) % ranges.size()];
        request.t_begin = range.first;
        request.t_end = range.second;
        request.tenant = "tenant" + std::to_string(tid % 2);
        try {
          const Tensor got = manager.Get(request);
          if (!SameBytes(got, expected.at(range))) mismatches.fetch_add(1);
          ok.fetch_add(1);
        } catch (const StatusError&) {
          // Shed / tenant-limited under churn — expected some of the time.
          rejected.fetch_add(1);
        }
      }
    });
  }
  // Admission-table churn: rewrite both tenants' limits continuously,
  // flipping between tight and unlimited.
  threads.emplace_back([&] {
    for (int i = 0; !done.load(); i = (i + 1) % 5) {
      TenantLimits limits;
      limits.max_in_flight = (i % 2 == 0) ? 2 : -1;
      limits.decoded_byte_budget = (i == 3) ? (64ll << 20) : -1;
      manager.SetTenantLimits("tenant0", limits);
      manager.SetTenantLimits("tenant1", limits);
      std::this_thread::yield();
    }
  });
  // Quarantine-state churn: revive (a no-op while healthy) and poll.
  threads.emplace_back([&] {
    while (!done.load()) {
      manager.ReviveShard(0);
      (void)manager.quarantined(0);
      std::this_thread::yield();
    }
  });
  // Stats reader: aggregates tenant tables and scheduler counters.
  threads.emplace_back([&] {
    while (!done.load()) {
      const ServeStats stats = manager.Stats();
      EXPECT_GE(stats.admitted, stats.completed + stats.failed);
      std::this_thread::yield();
    }
  });

  for (int t = 0; t < kTenantThreads; ++t) threads[t].join();
  done.store(true);
  for (std::size_t t = kTenantThreads; t < threads.size(); ++t) {
    threads[t].join();
  }

  EXPECT_EQ(mismatches.load(), 0);
  // With limits flipping to "tight" mid-run some requests may reject, but the
  // service must keep making progress throughout.
  EXPECT_GT(ok.load(), 0);
  EXPECT_EQ(ok.load() + rejected.load(), kTenantThreads * kIterations);

  const ServeStats stats = manager.Stats();
  EXPECT_EQ(stats.completed, ok.load());
  EXPECT_FALSE(stats.shard_quarantined.at(0));
}

TEST(ConcurrencyStress, SchedulerTinyCacheChurn) {
  const Tensor field = MakeField(902);
  const core::DatasetArchive archive = EncodeSzArchive(field);
  const auto bytes = archive.Serialize();

  // Reference decode, single-threaded.
  std::map<std::pair<std::int64_t, std::int64_t>, Tensor> expected;
  {
    const auto ref_reader = core::ArchiveReader::FromBytes(bytes);
    auto ref_codec = api::Compressor::Create("sz");
    DecodeScheduler reference(&ref_reader, ref_codec.get());
    for (const auto& range : QueryRanges()) {
      expected.emplace(range, reference.Get(0, range.first, range.second));
    }
  }

  const auto reader = core::ArchiveReader::FromBytes(bytes);
  auto codec = api::Compressor::Create("sz");
  ScheduleOptions options;
  options.workers = 2;
  options.cache_windows = 1;  // every multi-record query evicts
  options.max_batch = 2;
  DecodeScheduler scheduler(&reader, codec.get(), options);

  constexpr int kThreads = 4;
  constexpr int kIterations = 30;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int tid = 0; tid < kThreads; ++tid) {
    threads.emplace_back([&, tid] {
      const auto& ranges = QueryRanges();
      for (int i = 0; i < kIterations; ++i) {
        const auto& range = ranges[(tid * 3 + i) % ranges.size()];
        const Tensor got = scheduler.Get(0, range.first, range.second);
        if (!SameBytes(got, expected.at(range))) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(mismatches.load(), 0);
  // The one-window cache forces constant re-decodes: strictly more record
  // decodes than the 3 records the archive holds proves eviction churned.
  EXPECT_GT(scheduler.decoded_records(), 3);
}

// GEMM packs into one grow-only buffer per thread. Four threads run products
// of different shapes in a loop, each thread starting at a different shape so
// the buffers see interleaved sizes. The shapes include m > 132, k > 256 and
// n > 512, so every cache-blocking loop runs more than once and repacks.
// Each result must match the serial product byte for byte; a buffer shared
// across threads would show up as a mismatch here and as a race under TSan.
TEST(ConcurrencyStress, GemmPerThreadPackBuffer) {
  struct Case {
    std::int64_t m, n, k;
    bool trans_a, trans_b;
    Tensor a, b, want;
  };
  std::vector<Case> cases = {{7, 9, 5, false, false, {}, {}, {}},
                             {140, 37, 300, false, true, {}, {}, {}},
                             {33, 530, 70, true, false, {}, {}, {}},
                             {150, 600, 280, false, false, {}, {}, {}},
                             {5, 17, 260, true, true, {}, {}, {}}};
  Rng rng(61);
  for (Case& c : cases) {
    c.a = Tensor::Randn({c.m * c.k}, rng);
    c.b = Tensor::Randn({c.k * c.n}, rng);
    c.want = Tensor::Empty({c.m * c.n});
    Gemm(c.trans_a, c.trans_b, c.m, c.n, c.k, 1.0f, c.a.data(),
         c.trans_a ? c.m : c.k, c.b.data(), c.trans_b ? c.k : c.n, 0.0f,
         c.want.data(), c.n);
  }

  constexpr int kThreads = 4;
  constexpr int kRounds = 4;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int tid = 0; tid < kThreads; ++tid) {
    threads.emplace_back([&, tid] {
      for (int i = 0; i < kRounds * static_cast<int>(cases.size()); ++i) {
        const Case& c = cases[static_cast<std::size_t>(tid + i) % cases.size()];
        Tensor got = Tensor::Empty({c.m * c.n});
        Gemm(c.trans_a, c.trans_b, c.m, c.n, c.k, 1.0f, c.a.data(),
             c.trans_a ? c.m : c.k, c.b.data(), c.trans_b ? c.k : c.n, 0.0f,
             got.data(), c.n);
        if (!SameBytes(got, c.want)) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// Two threads, each with its own GLSC codec (same seeded weights) and
// workspace, decode batches of three windows at the same time. Each decode
// spreads its windows (sampler) and frame chunks (VAE) over the one global
// pool, so pieces of both decodes interleave on the pool threads. Every
// output must match a decode made while nothing else ran.
TEST(ConcurrencyStress, GlscFanOutFromTwoThreads) {
  core::GlscConfig config;
  config.vae.latent_channels = 4;
  config.vae.hidden_channels = 6;
  config.vae.hyper_channels = 2;
  config.unet.latent_channels = 4;
  config.unet.model_channels = 8;
  config.unet.heads = 2;
  config.schedule_steps = 40;
  config.window = 8;
  config.sample_steps = 3;
  core::GlscCompressor codecs[2] = {core::GlscCompressor(config),
                                    core::GlscCompressor(config)};

  data::FieldSpec spec;
  spec.frames = 24;
  spec.height = 16;
  spec.width = 16;
  spec.seed = 903;
  const Tensor field = data::GenerateClimate(spec);  // [1, 24, 16, 16]
  std::vector<core::CompressedWindow> compressed;
  for (std::int64_t w = 0; w < 3; ++w) {
    Tensor window = Tensor::Empty({8, 16, 16});
    std::memcpy(window.data(), field.data() + w * 8 * 16 * 16,
                static_cast<std::size_t>(8 * 16 * 16) * sizeof(float));
    compressed.push_back(codecs[0].Compress(window, /*tau=*/-1.0));
  }
  const std::vector<const core::CompressedWindow*> batch = {
      &compressed[0], &compressed[1], &compressed[2]};
  const std::vector<Tensor> expected = codecs[0].DecompressBatch(batch);

  constexpr int kRounds = 4;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (auto& codec : codecs) {
    threads.emplace_back([&] {
      tensor::Workspace ws;
      for (int round = 0; round < kRounds; ++round) {
        const std::vector<Tensor> got = codec.DecompressBatch(batch, 0, &ws);
        for (std::size_t i = 0; i < got.size(); ++i) {
          if (!SameBytes(got[i], expected[i])) mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace glsc::serve
