// Tests for the v4 container: filtered serialization round-trips at every
// dispatch level (byte-identical archives native vs forced scalar), v1/v2/v3
// back-compat, AppendToFile equivalence with one-shot serialization, hostile
// filtered archives failing typed, mmap/pread file backings, and the stored
// vs decoded byte accounting.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "archive_faults.h"
#include "core/archive_reader.h"
#include "core/container.h"
#include "temp_path.h"
#include "tensor/simd/dispatch.h"
#include "tensor/workspace.h"
#include "util/rng.h"

namespace glsc::core {
namespace {

std::vector<simd::IsaLevel> TestableLevels() {
  std::vector<simd::IsaLevel> levels{simd::IsaLevel::kScalar};
  const simd::IsaLevel max = simd::DetectedIsa();
  if (max >= simd::IsaLevel::kSSE2) levels.push_back(simd::IsaLevel::kSSE2);
  if (max >= simd::IsaLevel::kAVX2) levels.push_back(simd::IsaLevel::kAVX2);
  if (max >= simd::IsaLevel::kAVX512) {
    levels.push_back(simd::IsaLevel::kAVX512);
  }
  return levels;
}

// Codec-opaque payload with enough structure for the filter selection to
// choose a compressed representation (a noisy ramp, byte-periodic like
// quantized residual streams).
std::vector<std::uint8_t> StructuredPayload(Rng* rng, std::size_t n) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::uint8_t>((i / 7) + (rng->UniformInt(3)));
  }
  return v;
}

std::vector<std::uint8_t> NoisePayload(Rng* rng, std::size_t n) {
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng->UniformInt(256));
  return v;
}

std::vector<std::uint8_t> FileBytes(const std::string& path) {
  std::vector<std::uint8_t> bytes;
  EXPECT_TRUE(ReadFileBytes(path, &bytes)) << path;
  return bytes;
}

std::vector<data::FrameNorm> MakeNorms(std::int64_t vars, std::int64_t t) {
  std::vector<data::FrameNorm> norms(static_cast<std::size_t>(vars * t));
  for (std::size_t i = 0; i < norms.size(); ++i) {
    norms[i].mean = 0.01f * static_cast<float>(i);
    norms[i].range = 1.0f + 0.001f * static_cast<float>(i % 64);
  }
  return norms;
}

// A small two-variable archive with both compressible and incompressible
// records (the selection must handle a mix within one archive).
DatasetArchive MakeArchive(std::uint64_t seed, std::int64_t t = 16) {
  Rng rng(seed);
  DatasetArchive archive("sz", {2, t, 8, 8}, 8, MakeNorms(2, t));
  for (std::int64_t v = 0; v < 2; ++v) {
    for (std::int64_t t0 = 0; t0 < t; t0 += 8) {
      auto payload = (v + t0) % 3 == 0 ? NoisePayload(&rng, 700 + t0)
                                       : StructuredPayload(&rng, 900 + t0);
      archive.Add(v, t0, 8, std::move(payload));
    }
  }
  return archive;
}

bool EntriesEqual(const DatasetArchive& a, const DatasetArchive& b) {
  if (a.entries().size() != b.entries().size()) return false;
  for (std::size_t i = 0; i < a.entries().size(); ++i) {
    const auto& x = a.entries()[i];
    const auto& y = b.entries()[i];
    if (x.variable != y.variable || x.t0 != y.t0 ||
        x.valid_frames != y.valid_frames || x.payload != y.payload) {
      return false;
    }
  }
  return true;
}

TEST(ContainerV4, RoundTripsAtEveryLevelWithByteIdenticalArchives) {
  const DatasetArchive archive = MakeArchive(11);
  std::vector<std::uint8_t> scalar_bytes;
  {
    simd::ScopedIsaOverride force(simd::IsaLevel::kScalar);
    scalar_bytes = archive.Serialize();
  }
  // v4 actually engages the pipeline on this data.
  EXPECT_LT(scalar_bytes.size(), archive.Serialize({.version = 3}).size());
  for (const simd::IsaLevel level : TestableLevels()) {
    simd::ScopedIsaOverride override_level(level);
    const auto bytes = archive.Serialize();
    // The archive a host writes never depends on its ISA.
    EXPECT_EQ(bytes, scalar_bytes) << "level=" << static_cast<int>(level);
    const DatasetArchive back = DatasetArchive::Deserialize(bytes);
    EXPECT_EQ(back.codec(), archive.codec());
    EXPECT_EQ(back.window(), archive.window());
    EXPECT_TRUE(EntriesEqual(archive, back));
    for (std::int64_t t = 0; t < 16; ++t) {
      EXPECT_EQ(back.norm(1, t).mean, archive.norm(1, t).mean);
      EXPECT_EQ(back.norm(1, t).range, archive.norm(1, t).range);
    }
  }
}

TEST(ContainerV4, ForcedFilterHookAppliesToEveryRecord) {
  const DatasetArchive archive = MakeArchive(12);
  const ArchiveWriteOptions forced{
      .version = 4,
      .forced_filter =
          FilterSpec{FilterChain::kDelta, 1, FilterBackend::kGlz}};
  const auto bytes = archive.Serialize(forced);
  EXPECT_TRUE(EntriesEqual(archive, DatasetArchive::Deserialize(bytes)));
  const ArchiveReader reader = ArchiveReader::FromBytes(bytes);
  for (const RecordRef& ref : reader.records()) {
    EXPECT_EQ(ref.filter.chain, FilterChain::kDelta);
    EXPECT_EQ(ref.filter.backend, FilterBackend::kGlz);
  }
}

TEST(ContainerV4, LegacyV2AndV3ArchivesStillLoad) {
  const DatasetArchive archive = MakeArchive(13);
  // v3 comes straight from the writer's compatibility path.
  const DatasetArchive v3 =
      DatasetArchive::Deserialize(archive.Serialize({.version = 3}));
  EXPECT_TRUE(EntriesEqual(archive, v3));
  // v2 (no index, no footer, inline norms) is hand-assembled.
  ByteWriter v2;
  v2.PutBytes("GLSC", 4);
  v2.PutU8(2);
  v2.PutString(archive.codec());
  for (const std::uint64_t d : {2ull, 16ull, 8ull, 8ull}) v2.PutU64(d);
  v2.PutU64(8);  // window
  for (std::int64_t v = 0; v < 2; ++v) {
    for (std::int64_t t = 0; t < 16; ++t) {
      v2.PutF32(archive.norm(v, t).mean);
      v2.PutF32(archive.norm(v, t).range);
    }
  }
  v2.PutVarU64(archive.entries().size());
  for (const ArchiveEntry& e : archive.entries()) {
    v2.PutVarU64(static_cast<std::uint64_t>(e.variable));
    v2.PutVarU64(static_cast<std::uint64_t>(e.t0));
    v2.PutVarU64(static_cast<std::uint64_t>(e.valid_frames));
    v2.PutVarU64(e.payload.size());
    v2.PutBytes(e.payload.data(), e.payload.size());
  }
  const DatasetArchive back = DatasetArchive::Deserialize(v2.bytes());
  EXPECT_TRUE(EntriesEqual(archive, back));
  EXPECT_EQ(back.codec(), archive.codec());
  // The readers agree on the version they loaded.
  EXPECT_EQ(ArchiveReader::FromBytes(v2.bytes()).version(), 2);
  EXPECT_EQ(ArchiveReader::FromBytes(archive.Serialize()).version(), 4);
}

TEST(ContainerV4, AppendMatchesOneShotSerializationByteForByte) {
  const std::string path = ProcessTempPath("glsc_container_v4_append");
  std::filesystem::remove(path);

  const DatasetArchive first = MakeArchive(14, 16);
  const DatasetArchive more = MakeArchive(15, 8);

  // One-shot reference: the combined record set in a single [2, 24, 8, 8]
  // archive, more's records shifted by first's frame count and the norms
  // merged V-major.
  std::vector<data::FrameNorm> norms;
  for (std::int64_t v = 0; v < 2; ++v) {
    for (std::int64_t t = 0; t < 16; ++t) norms.push_back(first.norm(v, t));
    for (std::int64_t t = 0; t < 8; ++t) norms.push_back(more.norm(v, t));
  }
  DatasetArchive combined("sz", {2, 24, 8, 8}, 8, std::move(norms));
  for (const ArchiveEntry& e : first.entries()) {
    combined.Add(e.variable, e.t0, e.valid_frames, e.payload);
  }
  for (const ArchiveEntry& e : more.entries()) {
    combined.Add(e.variable, e.t0 + 16, e.valid_frames, e.payload);
  }

  // Append to a missing file creates it.
  DatasetArchive::AppendToFile(path, first);
  EXPECT_EQ(FileBytes(path), first.Serialize());
  // Appending the second batch grows it in place...
  DatasetArchive::AppendToFile(path, more);
  const auto bytes = FileBytes(path);
  // ...to exactly the bytes one-shot serialization would have produced.
  EXPECT_EQ(bytes, combined.Serialize());
  EXPECT_TRUE(EntriesEqual(combined, DatasetArchive::Deserialize(bytes)));

  // Legacy layouts cannot grow in place.
  WriteFileBytes(path, first.Serialize({.version = 3}));
  EXPECT_THROW(DatasetArchive::AppendToFile(path, more), std::runtime_error);
  std::filesystem::remove(path);
}

TEST(ContainerV4, HostileIndexFilterByteFailsTyped) {
  // Single small record: every index varint before the filter byte (count,
  // variable, t0, valid_frames) encodes in one byte, so the filter byte sits
  // at a deterministic offset.
  DatasetArchive archive("sz", {1, 8, 8, 8}, 8, MakeNorms(1, 8));
  Rng rng(16);
  archive.Add(0, 0, 8, StructuredPayload(&rng, 600));
  auto bytes = archive.Serialize();
  std::uint64_t index_offset = 0;
  std::memcpy(&index_offset, bytes.data() + bytes.size() - 12, 8);
  bytes[index_offset + 4] = 0xFF;  // reserved filter bits set
  EXPECT_EQ(FaultOf([&] { ArchiveReader::FromBytes(bytes); }),
            ArchiveFault::kCorruptRecord);
  ExpectDeserializeFailsLikeReader(bytes);
}

TEST(ContainerV4, CorruptCompressedPayloadFailsTypedWithoutOverread) {
  DatasetArchive archive("sz", {1, 8, 8, 8}, 8, MakeNorms(1, 8));
  Rng rng(17);
  archive.Add(0, 0, 8, StructuredPayload(&rng, 2000));
  const auto clean = archive.Serialize();
  const ArchiveReader probe = ArchiveReader::FromBytes(clean);
  ASSERT_EQ(probe.records().size(), 1u);
  const RecordRef ref = probe.records()[0];
  ASSERT_EQ(ref.filter.backend, FilterBackend::kGlz)
      << "payload unexpectedly stored raw; corruption test needs glz";
  ASSERT_LT(ref.length, ref.raw_size);

  // Stomp the stored stream (record header and index stay intact): 0xFF
  // tokens declare extended literal runs that blow past the declared raw
  // size, which the bounds-checked decoder must refuse.
  auto bytes = clean;
  for (std::uint64_t i = 0; i < ref.length; ++i) bytes[ref.offset + i] = 0xFF;
  const ArchiveReader reader = ArchiveReader::FromBytes(bytes);
  std::vector<std::uint8_t> scratch;
  EXPECT_EQ(FaultOf([&] { reader.Payload(0, &scratch); }),
            ArchiveFault::kCorruptRecord);
  // Deserialize fetches every payload through the same call.
  EXPECT_EQ(FaultOf([&] { DatasetArchive::Deserialize(bytes); }),
            ArchiveFault::kCorruptRecord);
}

TEST(ContainerV4, RecordHeaderDisagreeingWithIndexFailsDeserialize) {
  auto bytes = MakeArchive(24).Serialize();
  const std::uint64_t first = ArchiveReader::FromBytes(bytes).records_begin();
  ASSERT_EQ(bytes[first], 0u);  // record 0's variable varint
  bytes[first] = 1;
  // Lazy opens never read record headers; the walk Deserialize runs does.
  EXPECT_EQ(FaultOf([&] { ArchiveReader::FromBytes(bytes); }), std::nullopt);
  EXPECT_EQ(FaultOf([&] { DatasetArchive::Deserialize(bytes); }),
            ArchiveFault::kCorruptRecord);
}

TEST(ContainerV4, HostileFooterOffsetsFailWithoutOom) {
  const auto clean = MakeArchive(18).Serialize();
  {
    // norms-offset beyond index-offset.
    auto bytes = clean;
    const std::uint64_t lie = bytes.size();
    std::memcpy(bytes.data() + bytes.size() - 20, &lie, 8);
    ExpectDeserializeFailsLikeReader(bytes);
  }
  {
    // Truncation anywhere in the tail: typed failure, never a crash.
    for (const std::size_t cut : {1ul, 7ul, 19ul, 20ul, 45ul}) {
      auto bytes = clean;
      bytes.resize(bytes.size() - cut);
      SCOPED_TRACE(cut);
      ExpectDeserializeFailsLikeReader(bytes);
    }
  }
}

TEST(ContainerV4, MmapAndPreadBackingsAreByteIdentical) {
  const std::string path = ProcessTempPath("glsc_container_v4_backing");
  const DatasetArchive archive = MakeArchive(19);
  archive.WriteFile(path);
  const ArchiveReader mm = ArchiveReader::FromFile(path, FileBacking::kMmap);
  const ArchiveReader pr = ArchiveReader::FromFile(path, FileBacking::kPread);
  ASSERT_EQ(mm.records().size(), archive.entries().size());
  ASSERT_EQ(pr.records().size(), mm.records().size());
  std::vector<std::uint8_t> mm_scratch;
  std::vector<std::uint8_t> pr_scratch;
  for (std::size_t i = 0; i < mm.records().size(); ++i) {
    const auto& payload = mm.Payload(i, &mm_scratch);
    EXPECT_EQ(payload, pr.Payload(i, &pr_scratch));
    EXPECT_EQ(payload, archive.entries()[i].payload);
  }
  EXPECT_EQ(mm.payload_bytes_fetched(), pr.payload_bytes_fetched());
  EXPECT_EQ(mm.decoded_payload_bytes(), pr.decoded_payload_bytes());
  std::filesystem::remove(path);
}

TEST(ContainerV4, ByteAccountingSeparatesStoredFromDecoded) {
  const DatasetArchive archive = MakeArchive(20);
  const ArchiveReader reader =
      ArchiveReader::FromBytes(archive.Serialize());
  EXPECT_EQ(reader.payload_bytes_fetched(), 0u);
  EXPECT_EQ(reader.decoded_payload_bytes(), 0u);
  std::uint64_t stored = 0;
  std::uint64_t raw = 0;
  std::vector<std::uint8_t> scratch;
  for (std::size_t i = 0; i < reader.records().size(); ++i) {
    const auto& payload = reader.Payload(i, &scratch);
    EXPECT_EQ(payload.size(), reader.records()[i].raw_size);
    stored += reader.records()[i].length;
    raw += reader.records()[i].raw_size;
  }
  // fetched() counts on-disk bytes, decoded() counts raw bytes handed out;
  // on a filtered archive the former is strictly smaller.
  EXPECT_EQ(reader.payload_bytes_fetched(), stored);
  EXPECT_EQ(reader.decoded_payload_bytes(), raw);
  EXPECT_LT(stored, raw);
}

TEST(ContainerV4, FilteredDecodeIsAllocationFreeAtSteadyState) {
  const std::string path = ProcessTempPath("glsc_container_v4_ws");
  MakeArchive(21).WriteFile(path);
  const ArchiveReader reader = ArchiveReader::FromFile(path);
  tensor::Workspace ws;
  std::vector<std::uint8_t> out;
  std::vector<std::uint8_t> heap;
  // Warm-up pass sizes the workspace slab and the output vector.
  for (std::size_t i = 0; i < reader.records().size(); ++i) {
    reader.Payload(i, &out, &ws);
  }
  const auto slabs = ws.stats().slab_allocations;
  for (int pass = 0; pass < 8; ++pass) {
    for (std::size_t i = 0; i < reader.records().size(); ++i) {
      reader.Payload(i, &out, &ws);
      EXPECT_EQ(out, reader.Payload(i, &heap));
    }
  }
  EXPECT_EQ(ws.stats().slab_allocations, slabs)
      << "steady-state filtered decode allocated a new workspace slab";
  std::filesystem::remove(path);
}

TEST(ContainerV4, PayloadBorrowsFromArchiveAndFillsScratchOtherwise) {
  const DatasetArchive archive = MakeArchive(22);
  const ArchiveReader borrowed = ArchiveReader::FromArchive(archive);
  const ArchiveReader bytes = ArchiveReader::FromBytes(archive.Serialize());
  std::vector<std::uint8_t> scratch;
  for (std::size_t i = 0; i < archive.entries().size(); ++i) {
    // FromArchive hands out the archive's own vector: no copy, no counting.
    EXPECT_EQ(&borrowed.Payload(i, &scratch), &archive.entries()[i].payload);
    EXPECT_TRUE(scratch.empty());
    // Byte-backed readers fill (and return) the caller's scratch.
    EXPECT_EQ(&bytes.Payload(i, &scratch), &scratch);
    EXPECT_EQ(scratch, archive.entries()[i].payload);
    scratch.clear();
  }
  EXPECT_EQ(borrowed.payload_bytes_fetched(), 0u);
  EXPECT_GT(bytes.payload_bytes_fetched(), 0u);
}

TEST(ContainerV4, AppendRejectsArchiveTheReaderRejectsWithoutWriting) {
  // A v4 archive whose index places its record at variable 5 of a V=1
  // dataset: the reader refuses it, so append must throw the reader's error
  // before touching the file, instead of carrying the entry into a grown
  // archive nothing can open.
  const std::string path = ProcessTempPath("glsc_append_hostile");
  DatasetArchive archive("sz", {1, 8, 8, 8}, 8, MakeNorms(1, 8));
  Rng rng(23);
  archive.Add(0, 0, 8, StructuredPayload(&rng, 600));
  auto bytes = archive.Serialize();
  std::uint64_t index_offset = 0;
  std::memcpy(&index_offset, bytes.data() + bytes.size() - 12, 8);
  ASSERT_EQ(bytes[index_offset + 1], 0u);  // after the one-byte count
  bytes[index_offset + 1] = 5;
  WriteFileBytes(path, bytes);

  const std::optional<ArchiveFault> open_fault =
      FaultOf([&] { ArchiveReader::FromFile(path); });
  ASSERT_EQ(open_fault, ArchiveFault::kCorruptIndex);
  DatasetArchive more("sz", {1, 8, 8, 8}, 8, MakeNorms(1, 8));
  more.Add(0, 0, 8, StructuredPayload(&rng, 600));
  EXPECT_EQ(FaultOf([&] { DatasetArchive::AppendToFile(path, more); }),
            open_fault);
  EXPECT_EQ(FileBytes(path), bytes);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace glsc::core
