// Tests for random-access archive reading (container v3 footer index,
// core::ArchiveReader) and the parallel decode scheduler (serve/): index
// round-trips, v1/v2 archives served through the same reader, byte-identity
// of scheduler output against a per-entry reference decode for any worker
// count, LRU eviction, truncated-footer rejection, waiters claiming a record
// its owner gave up on, and — via a counting codec — the guarantee that
// fetching one window decodes exactly one record and reads only that
// record's payload bytes.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <thread>

#include "api/session.h"
#include "archive_faults.h"
#include "core/archive_reader.h"
#include "core/container.h"
#include "data/field_generators.h"
#include "legacy_archives.h"
#include "serve/decode_scheduler.h"
#include "temp_path.h"
#include "util/deadline.h"
#include "util/rng.h"
#include "util/status.h"

namespace glsc::serve {
namespace {

// Counts DecompressWindow calls across a codec and all its clones, so tests
// can assert exactly how many records a query decoded. Deliberately does NOT
// override DecompressWindows: the batched dispatch falls back to the base
// per-window loop, so every decoded record is counted under either dispatch.
// An optional per-decode delay widens race windows for concurrency tests.
class CountingCodec final : public api::Compressor {
 public:
  CountingCodec(std::unique_ptr<api::Compressor> inner,
                std::shared_ptr<std::atomic<int>> calls, int delay_ms = 0)
      : inner_(std::move(inner)), calls_(std::move(calls)),
        delay_ms_(delay_ms) {}

  std::string name() const override { return inner_->name(); }
  api::Capabilities capabilities() const override {
    return inner_->capabilities();
  }
  std::int64_t window() const override { return inner_->window(); }
  std::vector<std::uint8_t> CompressWindow(
      const Tensor& window, const api::ErrorBound& bound,
      const std::vector<data::FrameNorm>& norms) override {
    return inner_->CompressWindow(window, bound, norms);
  }
  Tensor DecompressWindow(const std::vector<std::uint8_t>& payload) override {
    calls_->fetch_add(1);
    if (delay_ms_ > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms_));
    }
    return inner_->DecompressWindow(payload);
  }
  std::unique_ptr<api::Compressor> Clone() override {
    return std::make_unique<CountingCodec>(inner_->Clone(), calls_, delay_ms_);
  }

 private:
  std::unique_ptr<api::Compressor> inner_;
  std::shared_ptr<std::atomic<int>> calls_;
  int delay_ms_ = 0;
};

// [2, 40, 32, 32] with window 16: per variable, full records at t0 = 0 and 16
// plus an 8-frame padded tail at t0 = 32.
core::DatasetArchive EncodeSzArchive(const Tensor& field) {
  auto codec = api::Compressor::Create("sz");
  api::SessionOptions options;
  options.bound = {api::ErrorBoundMode::kRelative, 0.01};
  api::EncodeSession session(codec.get(), field.dim(0), field.dim(2),
                             field.dim(3), options);
  session.Push(field);
  return session.Finish();
}

// The reference the scheduler is pinned to, independent of the reader,
// batching, the cache and single-flight: every entry's payload decoded on
// its own through DecompressWindow and denormalized with the archive's
// norms. Frames no entry covers stay zero.
Tensor ReferenceDecode(api::Compressor* codec,
                       const core::DatasetArchive& archive) {
  const Shape& shape = archive.dataset_shape();
  const std::int64_t frames = shape[1];
  const std::int64_t hw = shape[2] * shape[3];
  Tensor out(shape);  // zero-filled
  for (const core::ArchiveEntry& entry : archive.entries()) {
    const Tensor recon = codec->DecompressWindow(entry.payload);
    for (std::int64_t f = 0; f < entry.valid_frames; ++f) {
      const std::int64_t t = entry.t0 + f;
      const data::FrameNorm& fn = archive.norm(entry.variable, t);
      const float* src = recon.data() + f * hw;
      float* dst = out.data() + (entry.variable * frames + t) * hw;
      for (std::int64_t k = 0; k < hw; ++k) {
        dst[k] = src[k] * fn.range + fn.mean;
      }
    }
  }
  return out;
}

Tensor MakeField(std::uint64_t seed = 111, std::int64_t variables = 2) {
  data::FieldSpec spec;
  spec.variables = variables;
  spec.frames = 40;
  spec.height = 32;
  spec.width = 32;
  spec.seed = seed;
  return data::GenerateClimate(spec);
}

// Writes `archive` in the v2 wire format (no index/footer) to exercise the
// scan-built index path. `skip_entry` (an entries() index) drops that record
// from the stream, producing an archive with a coverage hole.
std::vector<std::uint8_t> SerializeAsV2(
    const core::DatasetArchive& archive,
    std::size_t skip_entry = static_cast<std::size_t>(-1)) {
  ByteWriter out;
  out.PutBytes("GLSC", 4);
  out.PutU8(2);
  out.PutString(archive.codec());
  for (const auto d : archive.dataset_shape()) {
    out.PutU64(static_cast<std::uint64_t>(d));
  }
  out.PutU64(static_cast<std::uint64_t>(archive.window()));
  for (std::int64_t v = 0; v < archive.dataset_shape()[0]; ++v) {
    for (std::int64_t t = 0; t < archive.dataset_shape()[1]; ++t) {
      out.PutF32(archive.norm(v, t).mean);
      out.PutF32(archive.norm(v, t).range);
    }
  }
  const bool skipping = skip_entry < archive.entries().size();
  out.PutVarU64(archive.entries().size() - (skipping ? 1 : 0));
  for (std::size_t i = 0; i < archive.entries().size(); ++i) {
    if (i == skip_entry) continue;
    const auto& entry = archive.entries()[i];
    out.PutVarU64(static_cast<std::uint64_t>(entry.variable));
    out.PutVarU64(static_cast<std::uint64_t>(entry.t0));
    out.PutVarU64(static_cast<std::uint64_t>(entry.valid_frames));
    out.PutVarU64(entry.payload.size());
    out.PutBytes(entry.payload.data(), entry.payload.size());
  }
  return out.Release();
}

TEST(ArchiveReader, V3IndexRoundTrip) {
  const Tensor field = MakeField();
  const core::DatasetArchive archive = EncodeSzArchive(field);
  const auto bytes = core::SerializeAsV3(archive);

  const auto reader = core::ArchiveReader::FromBytes(bytes);
  EXPECT_EQ(reader.codec(), "sz");
  EXPECT_EQ(reader.dataset_shape(), archive.dataset_shape());
  EXPECT_EQ(reader.window(), archive.window());
  ASSERT_EQ(reader.records().size(), archive.entries().size());
  std::vector<std::uint8_t> scratch;
  for (std::size_t i = 0; i < reader.records().size(); ++i) {
    const auto& ref = reader.records()[i];
    const auto& entry = archive.entries()[i];
    EXPECT_EQ(ref.variable, entry.variable);
    EXPECT_EQ(ref.t0, entry.t0);
    EXPECT_EQ(ref.valid_frames, entry.valid_frames);
    EXPECT_EQ(ref.length, entry.payload.size());
    EXPECT_EQ(reader.Payload(i, &scratch), entry.payload);
  }
  EXPECT_FLOAT_EQ(reader.norm(1, 17).mean, archive.norm(1, 17).mean);
  EXPECT_FLOAT_EQ(reader.norm(1, 17).range, archive.norm(1, 17).range);

  // Range queries: [18, 20) lies inside the t0=16 record; [8, 20) spans two.
  const auto one = reader.RecordsFor(0, 18, 20);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(reader.records()[one[0]].t0, 16);
  EXPECT_EQ(reader.RecordsFor(0, 8, 20).size(), 2u);
  EXPECT_EQ(reader.RecordsFor(1, 0, 40).size(), 3u);
  EXPECT_THROW(reader.RecordsFor(2, 0, 1), std::runtime_error);
  EXPECT_THROW(reader.RecordsFor(0, 10, 5), std::runtime_error);
  EXPECT_THROW(reader.RecordsFor(0, 0, 41), std::runtime_error);
}

TEST(ArchiveReader, FileBackedV3FetchesOnlyTouchedPayloads) {
  const Tensor field = MakeField(113);
  const core::DatasetArchive archive = EncodeSzArchive(field);
  const std::string path = ProcessTempPath("glsc_serve_test_v3.glsca");
  const auto v3_bytes = core::SerializeAsV3(archive);
  WriteFileBytes(path, v3_bytes);
  const std::uint64_t file_bytes = v3_bytes.size();

  const auto reader = core::ArchiveReader::FromFile(path);
  ASSERT_EQ(reader.records().size(), 6u);
  EXPECT_EQ(reader.archive_bytes(), file_bytes);
  // Opening reads header + footer + index only — no payload bytes.
  EXPECT_EQ(reader.payload_bytes_fetched(), 0u);

  const auto hits = reader.RecordsFor(0, 18, 20);
  ASSERT_EQ(hits.size(), 1u);
  std::vector<std::uint8_t> scratch;
  const auto& payload = reader.Payload(hits[0], &scratch);
  EXPECT_EQ(payload, archive.entries()[hits[0]].payload);
  // Exactly that record's payload bytes crossed the file boundary.
  EXPECT_EQ(reader.payload_bytes_fetched(), payload.size());
  EXPECT_LT(reader.payload_bytes_fetched(), file_bytes);
  std::filesystem::remove(path);
}

TEST(ArchiveReader, BuildsIndexOnTheFlyForV2) {
  const Tensor field = MakeField(127);
  const core::DatasetArchive archive = EncodeSzArchive(field);
  const auto v2_bytes = SerializeAsV2(archive);

  // The v2 wire format still reads in full...
  const core::ArchiveReader reloaded = core::ReadFully(v2_bytes);
  ASSERT_EQ(reloaded.records().size(), archive.entries().size());

  // ...and lazily, with the index rebuilt by scanning.
  const auto reader = core::ArchiveReader::FromBytes(v2_bytes);
  ASSERT_EQ(reader.records().size(), archive.entries().size());
  std::vector<std::uint8_t> scratch;
  for (std::size_t i = 0; i < reader.records().size(); ++i) {
    EXPECT_EQ(reader.Payload(i, &scratch), archive.entries()[i].payload) << i;
    EXPECT_EQ(reader.records()[i].valid_frames,
              archive.entries()[i].valid_frames);
  }

  // Serving a v2 archive end to end matches the v3 path bit for bit.
  auto codec = api::Compressor::Create("sz");
  DecodeScheduler scheduler(&reader, codec.get());
  const auto v3_reader = core::ArchiveReader::FromBytes(archive.Serialize());
  DecodeScheduler v3_scheduler(&v3_reader, codec.get());
  const Tensor from_v2 = scheduler.GetAll();
  const Tensor from_v3 = v3_scheduler.GetAll();
  ASSERT_EQ(from_v2.shape(), from_v3.shape());
  EXPECT_EQ(std::memcmp(from_v2.data(), from_v3.data(),
                        static_cast<std::size_t>(from_v2.numel()) *
                            sizeof(float)),
            0);
}

TEST(ArchiveReader, BuildsIndexOnTheFlyForV1) {
  // Hand-assembled v1 archive (GLSC-only record bodies, no codec id, no
  // valid_frames): the reader must locate each record body as its payload.
  Rng rng(17);
  core::CompressedWindow w0, w1;
  for (core::CompressedWindow* w : {&w0, &w1}) {
    w->keyframes.y_stream.resize(40 + rng.UniformInt(100));
    for (auto& b : w->keyframes.y_stream) {
      b = static_cast<std::uint8_t>(rng.UniformInt(256));
    }
    w->keyframes.z_stream.resize(10 + rng.UniformInt(30));
    for (auto& b : w->keyframes.z_stream) {
      b = static_cast<std::uint8_t>(rng.UniformInt(256));
    }
    w->keyframes.y_shape = {4, 8, 4, 4};
    w->keyframes.z_shape = {4, 4, 1, 1};
    w->window_shape = {8, 16, 16};
    w->sample_seed = static_cast<std::uint32_t>(rng.NextU64());
    w->corrections.resize(4);
    for (auto& c : w->corrections) {
      c.resize(rng.UniformInt(50));
      for (auto& b : c) b = static_cast<std::uint8_t>(rng.UniformInt(256));
    }
  }

  ByteWriter v1;
  v1.PutBytes("GLSC", 4);
  v1.PutU8(1);
  for (const std::uint64_t d : {1ull, 16ull, 16ull, 16ull}) v1.PutU64(d);
  v1.PutU64(8);  // window
  for (int i = 0; i < 16; ++i) {
    v1.PutF32(static_cast<float>(i));
    v1.PutF32(1.0f + static_cast<float>(i));
  }
  v1.PutVarU64(2);
  v1.PutVarU64(0);  // variable
  v1.PutVarU64(0);  // t0
  core::SerializeWindow(w0, &v1);
  v1.PutVarU64(0);
  v1.PutVarU64(8);
  core::SerializeWindow(w1, &v1);

  const auto reader = core::ArchiveReader::FromBytes(v1.bytes());
  EXPECT_EQ(reader.codec(), "glsc");
  EXPECT_EQ(reader.dataset_shape(), (Shape{1, 16, 16, 16}));
  ASSERT_EQ(reader.records().size(), 2u);
  EXPECT_EQ(reader.records()[0].valid_frames, 8);
  EXPECT_EQ(reader.records()[1].t0, 8);
  ByteWriter p0, p1;
  core::SerializeWindow(w0, &p0);
  core::SerializeWindow(w1, &p1);
  std::vector<std::uint8_t> scratch;
  EXPECT_EQ(reader.Payload(0, &scratch), p0.bytes());
  EXPECT_EQ(reader.Payload(1, &scratch), p1.bytes());
  EXPECT_FLOAT_EQ(reader.norm(0, 3).mean, 3.0f);
}

TEST(ArchiveReader, RejectsTruncatedOrCorruptFooter) {
  const Tensor field = MakeField(131, /*variables=*/1);
  const core::DatasetArchive archive = EncodeSzArchive(field);
  auto bytes = archive.Serialize();

  // Truncations landing in the footer, the index block, and the record area
  // must all throw — never misparse or read out of bounds.
  for (const std::size_t len :
       {bytes.size() - 1, bytes.size() - 6, bytes.size() - 13,
        bytes.size() - 40, bytes.size() / 2}) {
    const std::vector<std::uint8_t> cut(
        bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(len));
    SCOPED_TRACE(len);
    core::ExpectFullReadFailsLikeOpen(cut);
  }

  // Corrupt index magic.
  auto bad_magic = bytes;
  bad_magic[bad_magic.size() - 1] = 'Z';
  EXPECT_THROW(core::ArchiveReader::FromBytes(bad_magic), std::runtime_error);
  core::ExpectFullReadFailsLikeOpen(bad_magic);

  // Footer pointing the index out of range.
  auto bad_offset = bytes;
  for (std::size_t i = 0; i < 8; ++i) {
    bad_offset[bad_offset.size() - 12 + i] = 0xFF;
  }
  EXPECT_THROW(core::ArchiveReader::FromBytes(bad_offset),
               std::runtime_error);
  core::ExpectFullReadFailsLikeOpen(bad_offset);
}

TEST(DecodeScheduler, FullRangeMatchesDecodeAllForAnyWorkerCount) {
  const Tensor field = MakeField(137);
  const core::DatasetArchive archive = EncodeSzArchive(field);
  auto codec = api::Compressor::Create("sz");

  const Tensor reference = ReferenceDecode(codec.get(), archive);

  const auto reader = core::ArchiveReader::FromBytes(archive.Serialize());
  for (const std::int64_t workers : {1, 2, 3}) {
    ScheduleOptions options;
    options.workers = workers;
    DecodeScheduler scheduler(&reader, codec.get(), options);
    const Tensor full = scheduler.GetAll();
    ASSERT_EQ(full.shape(), reference.shape()) << workers << " workers";
    EXPECT_EQ(std::memcmp(full.data(), reference.data(),
                          static_cast<std::size_t>(full.numel()) *
                              sizeof(float)),
              0)
        << workers << " workers";

    // Per-variable range queries stitch to the same bytes.
    const std::int64_t frames = field.dim(1);
    const std::int64_t hw = field.dim(2) * field.dim(3);
    for (std::int64_t v = 0; v < field.dim(0); ++v) {
      const Tensor slice = scheduler.Get(v, 0, frames);
      EXPECT_EQ(std::memcmp(slice.data(),
                            reference.data() + v * frames * hw,
                            static_cast<std::size_t>(frames * hw) *
                                sizeof(float)),
                0)
          << "variable " << v << ", " << workers << " workers";
    }
  }
}

TEST(DecodeScheduler, SingleWindowDecodesExactlyOneRecord) {
  const Tensor field = MakeField(139);
  const core::DatasetArchive archive = EncodeSzArchive(field);
  const std::string path = ProcessTempPath("glsc_serve_test_single.glsca");
  archive.WriteFile(path);

  auto calls = std::make_shared<std::atomic<int>>(0);
  CountingCodec codec(api::Compressor::Create("sz"), calls);
  const auto reader = core::ArchiveReader::FromFile(path);
  DecodeScheduler scheduler(&reader, &codec);

  // [18, 20) for variable 0 lives entirely in the t0=16 record: exactly one
  // DecompressWindow call, exactly one record's payload bytes off disk.
  const Tensor slice = scheduler.Get(0, 18, 20);
  EXPECT_EQ(slice.shape(), (Shape{2, 32, 32}));
  EXPECT_EQ(calls->load(), 1);
  EXPECT_EQ(scheduler.decoded_records(), 1);
  const auto hit = reader.RecordsFor(0, 18, 20);
  ASSERT_EQ(hit.size(), 1u);
  EXPECT_EQ(reader.payload_bytes_fetched(), reader.records()[hit[0]].length);

  // The slice matches the full decode of those frames.
  const Tensor all = ReferenceDecode(&codec, archive);
  const std::int64_t hw = field.dim(2) * field.dim(3);
  EXPECT_EQ(std::memcmp(slice.data(), all.data() + (0 * 40 + 18) * hw,
                        static_cast<std::size_t>(2 * hw) * sizeof(float)),
            0);
  std::filesystem::remove(path);
}

TEST(DecodeScheduler, CachesOverlappingQueriesAndEvictsLru) {
  const Tensor field = MakeField(149, /*variables=*/1);
  const core::DatasetArchive archive = EncodeSzArchive(field);
  const auto reader = core::ArchiveReader::FromBytes(archive.Serialize());

  auto calls = std::make_shared<std::atomic<int>>(0);
  CountingCodec codec(api::Compressor::Create("sz"), calls);

  {  // Overlapping queries reuse the cached record.
    DecodeScheduler scheduler(&reader, &codec);
    (void)scheduler.Get(0, 16, 32);
    EXPECT_EQ(calls->load(), 1);
    (void)scheduler.Get(0, 20, 30);
    EXPECT_EQ(calls->load(), 1);  // served from cache
    EXPECT_EQ(scheduler.cache_hits(), 1);
    (void)scheduler.Get(0, 0, 40);  // needs the other two records
    EXPECT_EQ(calls->load(), 3);
    EXPECT_EQ(scheduler.cache_hits(), 2);
  }

  {  // Capacity 1: A, B, A re-decodes A; A again hits.
    calls->store(0);
    ScheduleOptions options;
    options.cache_windows = 1;
    DecodeScheduler scheduler(&reader, &codec, options);
    (void)scheduler.Get(0, 0, 8);    // record A (t0 = 0)
    (void)scheduler.Get(0, 16, 24);  // record B evicts A
    (void)scheduler.Get(0, 0, 8);    // A again: miss
    EXPECT_EQ(calls->load(), 3);
    (void)scheduler.Get(0, 0, 8);  // now cached
    EXPECT_EQ(calls->load(), 3);
  }

  {  // cache_windows = 0 disables caching entirely.
    calls->store(0);
    ScheduleOptions options;
    options.cache_windows = 0;
    DecodeScheduler scheduler(&reader, &codec, options);
    (void)scheduler.Get(0, 0, 8);
    (void)scheduler.Get(0, 0, 8);
    EXPECT_EQ(calls->load(), 2);
  }
}

TEST(DecodeScheduler, ConcurrentGetsAreSafeAndConsistent) {
  // Get is documented thread-safe: concurrent queries interleave on the
  // per-worker locks and must all come back byte-identical to the serial
  // reference decode.
  const Tensor field = MakeField(157);
  const core::DatasetArchive archive = EncodeSzArchive(field);
  auto codec = api::Compressor::Create("sz");
  const Tensor reference = ReferenceDecode(codec.get(), archive);

  const auto reader = core::ArchiveReader::FromBytes(archive.Serialize());
  ScheduleOptions options;
  options.workers = 2;
  options.cache_windows = 2;  // small enough to keep evicting under load
  DecodeScheduler scheduler(&reader, codec.get(), options);

  const std::int64_t frames = field.dim(1);
  const std::int64_t hw = field.dim(2) * field.dim(3);
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int thread_id = 0; thread_id < 4; ++thread_id) {
    threads.emplace_back([&, thread_id] {
      for (int round = 0; round < 8; ++round) {
        const std::int64_t v = (thread_id + round) % field.dim(0);
        const std::int64_t t0 = ((thread_id * 7 + round * 5) % 3) * 13;
        const std::int64_t t1 = std::min<std::int64_t>(frames, t0 + 14);
        const Tensor slice = scheduler.Get(v, t0, t1);
        if (std::memcmp(slice.data(),
                        reference.data() + (v * frames + t0) * hw,
                        static_cast<std::size_t>((t1 - t0) * hw) *
                            sizeof(float)) != 0) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// Every (workers, max_batch) dispatch of `reader` through `codec` — GetAll
// and each variable's full-range Get — must match `reference` byte for byte.
// The cache is off so every query pays real payload fetches and decodes
// through the chosen dispatch.
void ExpectEveryDispatchMatches(const core::ArchiveReader& reader,
                                api::Compressor* codec,
                                const Tensor& reference,
                                const std::string& input) {
  const std::int64_t frames = reference.dim(1);
  const std::int64_t hw = reference.dim(2) * reference.dim(3);
  for (const std::int64_t workers : {1, 4}) {
    for (const std::int64_t max_batch : {1, 2, 5, 8}) {
      ScheduleOptions options;
      options.workers = workers;
      options.cache_windows = 0;
      options.max_batch = max_batch;
      DecodeScheduler scheduler(&reader, codec, options);
      const Tensor full = scheduler.GetAll();
      ASSERT_EQ(full.shape(), reference.shape());
      EXPECT_EQ(std::memcmp(full.data(), reference.data(),
                            static_cast<std::size_t>(full.numel()) *
                                sizeof(float)),
                0)
          << input << ", " << workers << " workers, max_batch " << max_batch;
      for (std::int64_t v = 0; v < reference.dim(0); ++v) {
        const Tensor slice = scheduler.Get(v, 0, frames);
        EXPECT_EQ(std::memcmp(slice.data(),
                              reference.data() + v * frames * hw,
                              static_cast<std::size_t>(frames * hw) *
                                  sizeof(float)),
                  0)
            << "variable " << v << ", " << input << ", " << workers
            << " workers, max_batch " << max_batch;
      }
    }
  }
}

TEST(DecodeScheduler, BatchedDispatchMatchesSerialForAnyWorkerCount) {
  // The coalesced DecompressWindows dispatch must be byte-identical to the
  // per-record dispatch for every (workers, max_batch) combination: for sz
  // over every reader backing of the same filtered v4 archive, and for GLSC,
  // whose batches run one sampler and VAE pass over the stacked windows.
  const Tensor field = MakeField(163);  // 2 variables, 6 records
  const core::DatasetArchive archive = EncodeSzArchive(field);
  auto codec = api::Compressor::Create("sz");
  const Tensor reference = ReferenceDecode(codec.get(), archive);

  const auto bytes = archive.Serialize();
  const std::string path = ProcessTempPath("glsc_serve_backings");
  WriteFileBytes(path, bytes);
  std::vector<std::pair<std::string, core::ArchiveReader>> readers;
  readers.emplace_back("bytes", core::ArchiveReader::FromBytes(bytes));
  readers.emplace_back(
      "mmap", core::ArchiveReader::FromFile(path, core::FileBacking::kMmap));
  readers.emplace_back(
      "pread", core::ArchiveReader::FromFile(path, core::FileBacking::kPread));
  bool filtered = false;
  for (const core::RecordRef& ref : readers[0].second.records()) {
    filtered = filtered || !ref.filter.IsRaw();
  }
  ASSERT_TRUE(filtered) << "no record engaged the v4 filter pipeline";

  for (const auto& [backing, reader] : readers) {
    ExpectEveryDispatchMatches(reader, codec.get(), reference, "sz " + backing);
  }
  // The byte-backed readers ran identical query sequences, so they fetched
  // and unfiltered identical byte counts.
  const core::ArchiveReader& memory = readers[0].second;
  EXPECT_GT(memory.payload_bytes_fetched(), 0u);
  EXPECT_LT(memory.payload_bytes_fetched(), memory.decoded_payload_bytes());
  for (std::size_t k = 1; k < readers.size(); ++k) {
    const core::ArchiveReader& reader = readers[k].second;
    EXPECT_EQ(reader.payload_bytes_fetched(), memory.payload_bytes_fetched())
        << readers[k].first;
    EXPECT_EQ(reader.decoded_payload_bytes(), memory.decoded_payload_bytes())
        << readers[k].first;
  }
  std::filesystem::remove(path);

  // GLSC with seeded random-init weights: Train with no VAE or diffusion
  // iterations fits only the PCA basis, and the pointwise-L2 bound puts PCA
  // corrections in the payloads. Backings do not depend on the codec, so
  // bytes are enough. [2, 20, 16, 16] with window 8: 6 records.
  data::FieldSpec spec;
  spec.variables = 2;
  spec.frames = 20;
  spec.height = 16;
  spec.width = 16;
  spec.seed = 167;
  const Tensor glsc_field = data::GenerateClimate(spec);
  api::CodecOptions glsc_options;
  glsc_options.window = 8;
  glsc_options.latent_channels = 4;
  glsc_options.hidden_channels = 6;
  glsc_options.hyper_channels = 2;
  glsc_options.model_channels = 8;
  glsc_options.heads = 2;
  glsc_options.schedule_steps = 30;
  glsc_options.sample_steps = 4;
  auto glsc = api::Compressor::Create("glsc", glsc_options);
  api::TrainOptions train;
  train.vae_iterations = 0;
  train.model_iterations = 0;
  glsc->Train(data::SequenceDataset(glsc_field), train);
  api::SessionOptions session_options;
  session_options.bound = {api::ErrorBoundMode::kPointwiseL2, 0.1};
  api::EncodeSession session(glsc.get(), spec.variables, spec.height,
                             spec.width, session_options);
  session.Push(glsc_field);
  const core::DatasetArchive glsc_archive = session.Finish();
  const auto glsc_reader =
      core::ArchiveReader::FromBytes(glsc_archive.Serialize());
  ExpectEveryDispatchMatches(glsc_reader, glsc.get(),
                             ReferenceDecode(glsc.get(), glsc_archive),
                             "glsc bytes");
}

TEST(DecodeScheduler, ConcurrentIdenticalQueriesDecodeEachRecordOnce) {
  // Single-flight regression: concurrent queries missing the same records
  // must not decode any record twice. The per-decode delay keeps all four
  // threads inside the decode window, so without the in-flight table each
  // thread would race past the (still empty) cache and run its own decodes.
  const Tensor field = MakeField(173, /*variables=*/1);  // 3 records
  const core::DatasetArchive archive = EncodeSzArchive(field);
  auto plain = api::Compressor::Create("sz");
  const Tensor reference = ReferenceDecode(plain.get(), archive);

  auto calls = std::make_shared<std::atomic<int>>(0);
  CountingCodec codec(api::Compressor::Create("sz"), calls, /*delay_ms=*/25);
  const auto reader = core::ArchiveReader::FromBytes(archive.Serialize());
  DecodeScheduler scheduler(&reader, &codec);

  const std::int64_t frames = field.dim(1);
  const std::int64_t hw = field.dim(2) * field.dim(3);
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&] {
      const Tensor slice = scheduler.Get(0, 0, frames);
      if (std::memcmp(slice.data(), reference.data(),
                      static_cast<std::size_t>(frames * hw) *
                          sizeof(float)) != 0) {
        mismatches.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  // 3 unique misses — every further serve came from a flight or the cache.
  EXPECT_EQ(calls->load(), 3);
  EXPECT_EQ(scheduler.decoded_records(), 3);
  EXPECT_EQ(scheduler.cache_hits(), 4 * 3 - 3);
}

TEST(DecodeScheduler, WaiterDecodesRecordItsOwnerGaveUp) {
  // Request A owns all three records but runs out of time inside its slow
  // first decode, so it skips the other two and aborts their flights without
  // an error. Request B, waiting on A's flight for the second record, must
  // then decode that record itself.
  const Tensor field = MakeField(191, /*variables=*/1);  // 3 records
  const core::DatasetArchive archive = EncodeSzArchive(field);
  auto codec = api::Compressor::Create("sz");
  const Tensor reference = ReferenceDecode(codec.get(), archive);

  FaultInjector injector;
  injector.Arm(FaultInjector::Kind::kSlow, /*count=*/1, /*record=*/-1,
               /*slow_ms=*/150);
  const auto reader = core::ArchiveReader::FromBytes(archive.Serialize());
  ScheduleOptions options;
  options.max_batch = 1;
  options.fault_injector = &injector;
  DecodeScheduler scheduler(&reader, codec.get(), options);

  const std::int64_t frames = field.dim(1);
  std::optional<ErrorCode> a_error;
  std::atomic<bool> a_done{false};
  std::thread a([&] {
    RequestContext ctx;
    ctx.deadline = Deadline::AfterMillis(40);
    try {
      (void)scheduler.Get(0, 0, frames, &ctx);
    } catch (const StatusError& e) {
      a_error = e.code();
    }
    a_done = true;
  });
  // A is inside its slow first decode and holds the flights of the others
  // (a_done only guards against a hang if A never reached its decode).
  while (injector.decode_calls() < 1 && !a_done) std::this_thread::yield();
  const Tensor b = scheduler.Get(0, 16, 32);
  a.join();

  ASSERT_TRUE(a_error.has_value());
  EXPECT_EQ(*a_error, ErrorCode::kDeadlineExceeded);
  const std::int64_t hw = field.dim(2) * field.dim(3);
  ASSERT_EQ(b.shape(), (Shape{16, field.dim(2), field.dim(3)}));
  EXPECT_EQ(std::memcmp(b.data(), reference.data() + 16 * hw,
                        static_cast<std::size_t>(16 * hw) * sizeof(float)),
            0);
  // A decoded the first record, B the second; nobody decoded the third.
  EXPECT_EQ(scheduler.decoded_records(), 2);
}

TEST(DecodeScheduler, TwoWaitersOnAnAbandonedFlightDecodeTheRecordOnce) {
  // As above, but two requests wait on A's abandoned flight for the second
  // record. Each claims it again like any other miss, so one decodes it and
  // the other waits on that decode or hits the cache: the record is decoded
  // once, not once per waiter.
  const Tensor field = MakeField(191, /*variables=*/1);  // 3 records
  const core::DatasetArchive archive = EncodeSzArchive(field);
  auto codec = api::Compressor::Create("sz");
  const Tensor reference = ReferenceDecode(codec.get(), archive);

  FaultInjector injector;
  injector.Arm(FaultInjector::Kind::kSlow, /*count=*/1, /*record=*/-1,
               /*slow_ms=*/150);
  const auto reader = core::ArchiveReader::FromBytes(archive.Serialize());
  ScheduleOptions options;
  options.max_batch = 1;
  options.fault_injector = &injector;
  DecodeScheduler scheduler(&reader, codec.get(), options);

  const std::int64_t frames = field.dim(1);
  std::optional<ErrorCode> a_error;
  std::atomic<bool> a_done{false};
  std::thread a([&] {
    RequestContext ctx;
    ctx.deadline = Deadline::AfterMillis(40);
    try {
      (void)scheduler.Get(0, 0, frames, &ctx);
    } catch (const StatusError& e) {
      a_error = e.code();
    }
    a_done = true;
  });
  while (injector.decode_calls() < 1 && !a_done) std::this_thread::yield();
  Tensor b[2];
  std::thread waiter([&] { b[0] = scheduler.Get(0, 16, 32); });
  b[1] = scheduler.Get(0, 16, 32);
  waiter.join();
  a.join();

  ASSERT_TRUE(a_error.has_value());
  EXPECT_EQ(*a_error, ErrorCode::kDeadlineExceeded);
  const std::int64_t hw = field.dim(2) * field.dim(3);
  for (const Tensor& got : b) {
    ASSERT_EQ(got.shape(), (Shape{16, field.dim(2), field.dim(3)}));
    EXPECT_EQ(std::memcmp(got.data(), reference.data() + 16 * hw,
                          static_cast<std::size_t>(16 * hw) * sizeof(float)),
              0);
  }
  // A decoded the first record and one waiter the second.
  EXPECT_EQ(scheduler.decoded_records(), 2);
}

TEST(DecodeScheduler, BatchLargerThanCacheStillReturnsCorrectBytes) {
  // cache_windows = 1 with a 3-record coalesced batch: the publish pass
  // inserts three records through a capacity-1 LRU, so they evict each other
  // inside one Insert loop. The fetch results must be unaffected — `out[]`
  // holds its own copy of every decoded tensor — and the cache must end up
  // holding exactly the last-published record.
  const Tensor field = MakeField(179, /*variables=*/1);  // 3 records
  const core::DatasetArchive archive = EncodeSzArchive(field);
  auto plain = api::Compressor::Create("sz");
  const Tensor reference = ReferenceDecode(plain.get(), archive);

  auto calls = std::make_shared<std::atomic<int>>(0);
  CountingCodec codec(api::Compressor::Create("sz"), calls);
  const auto reader = core::ArchiveReader::FromBytes(archive.Serialize());
  ScheduleOptions options;
  options.workers = 1;  // deterministic publish order
  options.cache_windows = 1;
  options.max_batch = 8;
  DecodeScheduler scheduler(&reader, &codec, options);

  const std::int64_t frames = field.dim(1);
  const std::int64_t hw = field.dim(2) * field.dim(3);
  const Tensor full = scheduler.Get(0, 0, frames);
  EXPECT_EQ(std::memcmp(full.data(), reference.data(),
                        static_cast<std::size_t>(frames * hw) *
                            sizeof(float)),
            0);
  EXPECT_EQ(calls->load(), 3);

  // The survivor is the last record published (t0 = 32): re-fetching it hits.
  (void)scheduler.Get(0, 32, 40);
  EXPECT_EQ(calls->load(), 3);
  // Any earlier record was evicted during the batch publish: miss.
  (void)scheduler.Get(0, 0, 8);
  EXPECT_EQ(calls->load(), 4);
}

TEST(DecodeScheduler, UncoveredFramesStayExactlyZero) {
  // An archive with a coverage hole (the t0=16 record dropped): Get over a
  // range spanning the hole must return the covered frames bit-exactly and
  // leave every uncovered frame at exactly 0.0f — no denormalization may
  // touch frames no record covers.
  const Tensor field = MakeField(181, /*variables=*/1);
  const core::DatasetArchive archive = EncodeSzArchive(field);
  std::size_t hole = archive.entries().size();
  for (std::size_t i = 0; i < archive.entries().size(); ++i) {
    if (archive.entries()[i].t0 == 16) hole = i;
  }
  ASSERT_LT(hole, archive.entries().size());

  auto codec = api::Compressor::Create("sz");
  const Tensor reference = ReferenceDecode(codec.get(), archive);

  const auto reader =
      core::ArchiveReader::FromBytes(SerializeAsV2(archive, hole));
  ASSERT_EQ(reader.records().size(), archive.entries().size() - 1);
  DecodeScheduler scheduler(&reader, codec.get());

  const std::int64_t hw = field.dim(2) * field.dim(3);
  const Tensor slice = scheduler.Get(0, 8, 36);  // [8,16) + hole + [32,36)
  ASSERT_EQ(slice.shape(), (Shape{28, field.dim(2), field.dim(3)}));
  EXPECT_EQ(std::memcmp(slice.data(), reference.data() + 8 * hw,
                        static_cast<std::size_t>(8 * hw) * sizeof(float)),
            0);
  EXPECT_EQ(std::memcmp(slice.data() + 24 * hw, reference.data() + 32 * hw,
                        static_cast<std::size_t>(4 * hw) * sizeof(float)),
            0);
  for (std::int64_t k = 8 * hw; k < 24 * hw; ++k) {
    ASSERT_EQ(slice.data()[k], 0.0f) << "uncovered frame element " << k;
  }
}

TEST(DecodeScheduler, RejectsCodecMismatch) {
  const Tensor field = MakeField(151, /*variables=*/1);
  const core::DatasetArchive archive = EncodeSzArchive(field);
  const auto reader = core::ArchiveReader::FromBytes(archive.Serialize());
  auto zfp = api::Compressor::Create("zfp");
  EXPECT_THROW(DecodeScheduler(&reader, zfp.get()), std::runtime_error);
}

}  // namespace
}  // namespace glsc::serve
