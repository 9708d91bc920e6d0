#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <future>
#include <stdexcept>
#include <thread>
#include <vector>

#include "temp_path.h"
#include "util/bytes.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace glsc {
namespace {

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.NextU64() == b.NextU64());
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.Uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntUnbiasedSmallRange) {
  Rng rng(8);
  int counts[5] = {};
  const int draws = 50000;
  for (int i = 0; i < draws; ++i) ++counts[rng.UniformInt(5)];
  for (const int c : counts) {
    EXPECT_NEAR(c, draws / 5.0, 5.0 * std::sqrt(draws / 5.0));
  }
}

TEST(Rng, NormalMoments) {
  Rng rng(9);
  double sum = 0.0, sumsq = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Normal();
    sum += x;
    sumsq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sumsq / n, 1.0, 0.03);
}

TEST(Rng, ForkIndependence) {
  Rng a(10);
  Rng b = a.Fork();
  // The fork should not replay the parent's stream.
  EXPECT_NE(a.NextU64(), b.NextU64());
}

TEST(Bytes, ScalarRoundTrip) {
  ByteWriter w;
  w.PutU8(0xAB);
  w.PutU32(0xDEADBEEF);
  w.PutU64(0x0123456789ABCDEFull);
  w.PutF32(3.14159f);
  w.PutF64(-2.718281828459045);
  w.PutString("glsc");

  ByteReader r(w.bytes());
  EXPECT_EQ(r.GetU8(), 0xAB);
  EXPECT_EQ(r.GetU32(), 0xDEADBEEFu);
  EXPECT_EQ(r.GetU64(), 0x0123456789ABCDEFull);
  EXPECT_FLOAT_EQ(r.GetF32(), 3.14159f);
  EXPECT_DOUBLE_EQ(r.GetF64(), -2.718281828459045);
  EXPECT_EQ(r.GetString(), "glsc");
  EXPECT_TRUE(r.AtEnd());
}

class VarintTest : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(VarintTest, RoundTrip) {
  const std::int64_t v = GetParam();
  ByteWriter w;
  w.PutVarI64(v);
  if (v >= 0) w.PutVarU64(static_cast<std::uint64_t>(v));
  ByteReader r(w.bytes());
  EXPECT_EQ(r.GetVarI64(), v);
  if (v >= 0) {
    EXPECT_EQ(r.GetVarU64(), static_cast<std::uint64_t>(v));
  }
}

INSTANTIATE_TEST_SUITE_P(
    EdgeValues, VarintTest,
    ::testing::Values(0, 1, -1, 127, 128, -128, 300, -300, 1u << 20,
                      -(1 << 20), INT64_MAX, INT64_MIN + 1));

TEST(Bytes, UnderrunThrows) {
  ByteWriter w;
  w.PutU8(1);
  ByteReader r(w.bytes());
  r.GetU8();
  EXPECT_THROW(r.GetU32(), std::runtime_error);
}

TEST(Bytes, FileRoundTrip) {
  const std::string path = ProcessTempPath("glsc_test_bytes.bin");
  std::vector<std::uint8_t> data{1, 2, 3, 250};
  WriteFileBytes(path, data);
  EXPECT_TRUE(FileExists(path));
  std::vector<std::uint8_t> back;
  EXPECT_TRUE(ReadFileBytes(path, &back));
  EXPECT_EQ(back, data);
  std::filesystem::remove(path);
  EXPECT_FALSE(ReadFileBytes(path, &back));
}

TEST(Flags, Parsing) {
  const char* argv[] = {"prog", "--alpha=3", "--beta", "7.5", "--gamma",
                        "--name=x"};
  Flags flags(6, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetInt("alpha", 0), 3);
  EXPECT_DOUBLE_EQ(flags.GetDouble("beta", 0.0), 7.5);
  EXPECT_EQ(flags.GetString("gamma", ""), "true");  // bare flag
  EXPECT_EQ(flags.GetString("name", ""), "x");
  EXPECT_EQ(flags.GetInt("missing", 42), 42);
  EXPECT_FALSE(flags.Has("missing"));
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  pool.ParallelFor(257, [&](std::size_t i) { hits[i]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SubmitReturnsValue) {
  ThreadPool pool(2);
  auto fut = pool.Submit([] { return 21 * 2; });
  EXPECT_EQ(fut.get(), 42);
}

TEST(ThreadPool, NestedParallelForRunsInline) {
  // A ParallelFor issued from inside a pool task must not submit-and-block:
  // with every worker occupied by an outer item, the inner helpers' futures
  // could never resolve (regression: this test deadlocked). The nested call
  // runs inline on the worker instead.
  ThreadPool pool(2);
  std::atomic<int> inner{0};
  pool.ParallelFor(8, [&](std::size_t) {
    pool.ParallelFor(4, [&](std::size_t) { inner++; });
  });
  EXPECT_EQ(inner.load(), 32);

  // Detection is per-pool and per-thread.
  EXPECT_FALSE(pool.InWorkerThread());
  auto fut = pool.Submit([&] { return pool.InWorkerThread(); });
  EXPECT_TRUE(fut.get());
  ThreadPool other(1);
  auto cross = other.Submit([&] { return pool.InWorkerThread(); });
  EXPECT_FALSE(cross.get());
}

TEST(ThreadPool, ParallelForDoesNotWaitForBusyWorkers) {
  // Both workers of a 2-worker pool sit on a gate, so ParallelFor's helper
  // tasks can only queue. The caller claims every index itself and must
  // return then, without waiting for helpers that never started
  // (regression: it blocked until a worker freed up).
  ThreadPool pool(2);
  Mutex mu{"test.gate"};
  CondVar cv;
  int blocked = 0;
  bool open = false;
  auto gate = [&] {
    MutexLock lock(mu);
    ++blocked;
    cv.NotifyAll();
    cv.Wait(mu, [&]() REQUIRES(mu) { return open; });
  };
  std::future<void> busy[2] = {pool.Submit(gate), pool.Submit(gate)};
  {
    MutexLock lock(mu);
    cv.Wait(mu, [&]() REQUIRES(mu) { return blocked == 2; });
  }

  std::vector<std::atomic<int>> hits(4);
  std::atomic<bool> returned{false};
  std::thread caller([&] {
    pool.ParallelFor(4, [&](std::size_t i) { hits[i]++; });
    returned = true;
  });
  // Watchdog: a regression fails here after 2 s instead of hanging, because
  // the gate opens either way.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (!returned.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const bool returned_while_busy = returned.load();
  {
    MutexLock lock(mu);
    open = true;
  }
  cv.NotifyAll();
  caller.join();
  for (auto& f : busy) f.get();
  EXPECT_TRUE(returned_while_busy)
      << "ParallelFor waited for helpers that never started";
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);

  // With the workers free again, a throwing body still reaches the caller
  // only after every body a helper started has finished. Index 0 throws
  // once another participant is inside a slow body (bounded wait).
  std::atomic<int> started{0};
  std::atomic<int> finished{0};
  EXPECT_THROW(pool.ParallelFor(3,
                                [&](std::size_t i) {
                                  if (i == 0) {
                                    for (int spin = 0;
                                         spin < 2000 && started.load() == 0;
                                         ++spin) {
                                      std::this_thread::sleep_for(
                                          std::chrono::milliseconds(1));
                                    }
                                    throw std::runtime_error("body failed");
                                  }
                                  started++;
                                  std::this_thread::sleep_for(
                                      std::chrono::milliseconds(50));
                                  finished++;
                                }),
               std::runtime_error);
  EXPECT_GE(started.load(), 1);
  EXPECT_EQ(finished.load(), started.load());
}

TEST(ThreadPool, ZeroAndOneItems) {
  ThreadPool pool(2);
  pool.ParallelFor(0, [](std::size_t) { FAIL(); });
  int count = 0;
  pool.ParallelFor(1, [&](std::size_t) { ++count; });
  EXPECT_EQ(count, 1);
}

TEST(Timer, MeasuresElapsed) {
  Timer t;
  double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink += std::sqrt(static_cast<double>(i));
  (void)sink;
  EXPECT_GE(t.Seconds(), 0.0);
}

}  // namespace
}  // namespace glsc
