// Tests for the on-disk archive format: serialization round-trips, format
// validation (corrupt/truncated/hostile input), v1 back-compat, and
// end-to-end file compress -> write -> read -> decompress.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>

#include "api/adapters.h"
#include "api/session.h"
#include "archive_faults.h"
#include "core/archive_reader.h"
#include "core/container.h"
#include "core/registry.h"
#include "legacy_archives.h"
#include "serve/decode_scheduler.h"
#include "temp_path.h"
#include "tensor/metrics.h"

namespace glsc::core {
namespace {

CompressedWindow MakeFakeWindow(Rng& rng) {
  CompressedWindow w;
  w.keyframes.y_stream.resize(40 + rng.UniformInt(100));
  for (auto& b : w.keyframes.y_stream) {
    b = static_cast<std::uint8_t>(rng.UniformInt(256));
  }
  w.keyframes.z_stream.resize(10 + rng.UniformInt(30));
  for (auto& b : w.keyframes.z_stream) {
    b = static_cast<std::uint8_t>(rng.UniformInt(256));
  }
  w.keyframes.y_shape = {4, 8, 4, 4};
  w.keyframes.z_shape = {4, 4, 1, 1};
  w.window_shape = {8, 16, 16};
  w.sample_seed = static_cast<std::uint32_t>(rng.NextU64());
  w.corrections.resize(8);
  for (auto& c : w.corrections) {
    c.resize(rng.UniformInt(50));
    for (auto& b : c) b = static_cast<std::uint8_t>(rng.UniformInt(256));
  }
  return w;
}

std::vector<std::uint8_t> Payload(const CompressedWindow& window) {
  ByteWriter out;
  SerializeWindow(window, &out);
  return out.Release();
}

// A complete v4 archive of dims [vars, frames, 1, 1] with no records and an
// empty norms block.
std::vector<std::uint8_t> EmptyV4(std::uint64_t vars, std::uint64_t frames) {
  ByteWriter out;
  out.PutBytes("GLSC", 4);
  out.PutU8(4);
  out.PutString("glsc");
  out.PutU64(vars);
  out.PutU64(frames);
  out.PutU64(1);  // H
  out.PutU64(1);  // W
  out.PutU64(8);  // window
  const std::uint64_t norms_offset = out.size();
  out.PutU8(0);      // no filter
  out.PutU8(0);      // no backend
  out.PutVarU64(0);  // raw size
  out.PutVarU64(0);  // stored size
  const std::uint64_t index_offset = out.size();
  out.PutVarU64(0);  // no records
  out.PutU64(norms_offset);
  out.PutU64(index_offset);
  out.PutBytes("GIDX", 4);
  return out.Release();
}

bool WindowsEqual(const CompressedWindow& a, const CompressedWindow& b) {
  return a.keyframes.y_stream == b.keyframes.y_stream &&
         a.keyframes.z_stream == b.keyframes.z_stream &&
         a.keyframes.y_shape == b.keyframes.y_shape &&
         a.keyframes.z_shape == b.keyframes.z_shape &&
         a.window_shape == b.window_shape && a.sample_seed == b.sample_seed &&
         a.corrections == b.corrections;
}

TEST(Container, WindowRoundTrip) {
  Rng rng(3);
  for (int i = 0; i < 10; ++i) {
    const CompressedWindow original = MakeFakeWindow(rng);
    ByteWriter out;
    SerializeWindow(original, &out);
    ByteReader in(out.bytes());
    const CompressedWindow back = DeserializeWindow(&in);
    EXPECT_TRUE(WindowsEqual(original, back)) << "iteration " << i;
    EXPECT_TRUE(in.AtEnd());
  }
}

TEST(Container, ArchiveRoundTrip) {
  Rng rng(5);
  std::vector<data::FrameNorm> norms(2 * 16);
  for (auto& n : norms) {
    n.mean = rng.NormalF();
    n.range = 1.0f + rng.UniformF();
  }
  DatasetArchive archive("glsc", {2, 16, 16, 16}, 8, norms);
  archive.Add(0, 0, 8, Payload(MakeFakeWindow(rng)));
  archive.Add(0, 8, 8, Payload(MakeFakeWindow(rng)));
  archive.Add(1, 0, 3, Payload(MakeFakeWindow(rng)));  // padded tail record

  const ArchiveReader back = ReadFully(archive.Serialize());
  EXPECT_EQ(back.codec(), "glsc");
  EXPECT_EQ(back.dataset_shape(), archive.dataset_shape());
  EXPECT_EQ(back.window(), 8);
  ASSERT_EQ(back.records().size(), 3u);
  std::vector<std::uint8_t> scratch;
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(back.records()[i].variable, archive.entries()[i].variable);
    EXPECT_EQ(back.records()[i].t0, archive.entries()[i].t0);
    EXPECT_EQ(back.records()[i].valid_frames,
              archive.entries()[i].valid_frames);
    EXPECT_EQ(back.Payload(i, &scratch), archive.entries()[i].payload);
  }
  EXPECT_FLOAT_EQ(back.norm(1, 3).mean, archive.norm(1, 3).mean);
}

TEST(Container, V1ArchiveStillLoads) {
  // Hand-assemble a version-1 archive (GLSC-only records, no codec id, no
  // valid_frames) and check it reads back as equivalent records.
  Rng rng(17);
  const CompressedWindow w0 = MakeFakeWindow(rng);
  const CompressedWindow w1 = MakeFakeWindow(rng);

  ByteWriter v1;
  v1.PutBytes("GLSC", 4);
  v1.PutU8(1);  // legacy version
  for (const std::uint64_t d : {1ull, 16ull, 16ull, 16ull}) v1.PutU64(d);
  v1.PutU64(8);  // window
  for (int i = 0; i < 16; ++i) {
    v1.PutF32(static_cast<float>(i));
    v1.PutF32(1.0f + static_cast<float>(i));
  }
  v1.PutVarU64(2);
  v1.PutVarU64(0);  // variable
  v1.PutVarU64(0);  // t0
  SerializeWindow(w0, &v1);
  v1.PutVarU64(0);
  v1.PutVarU64(8);
  SerializeWindow(w1, &v1);

  const ArchiveReader archive = ReadFully(v1.bytes());
  EXPECT_EQ(archive.codec(), "glsc");
  EXPECT_EQ(archive.dataset_shape(), (Shape{1, 16, 16, 16}));
  ASSERT_EQ(archive.records().size(), 2u);
  // v1 records are full windows; the record body is the "glsc" payload.
  std::vector<std::uint8_t> scratch;
  EXPECT_EQ(archive.records()[0].valid_frames, 8);
  EXPECT_EQ(archive.Payload(0, &scratch), Payload(w0));
  EXPECT_EQ(archive.records()[1].t0, 8);
  EXPECT_EQ(archive.Payload(1, &scratch), Payload(w1));
  EXPECT_FLOAT_EQ(archive.norm(0, 3).mean, 3.0f);
}

TEST(Container, RejectsCorruptMagic) {
  DatasetArchive archive("glsc", {1, 8, 16, 16}, 8,
                         std::vector<data::FrameNorm>(8));
  auto bytes = archive.Serialize();
  bytes[0] = 'X';
  ExpectFullReadFailsLikeOpen(bytes);
  EXPECT_EQ(FaultOf([&] { ReadFully(bytes); }),
            ArchiveFault::kNotAnArchive);
}

TEST(Container, RejectsUnknownVersion) {
  DatasetArchive archive("glsc", {1, 8, 16, 16}, 8,
                         std::vector<data::FrameNorm>(8));
  auto bytes = archive.Serialize();
  bytes[4] = 99;  // version byte
  ExpectFullReadFailsLikeOpen(bytes);
  EXPECT_EQ(FaultOf([&] { ReadFully(bytes); }),
            ArchiveFault::kNotAnArchive);
}

TEST(Container, TruncatedArchiveThrowsInsteadOfCrashing) {
  Rng rng(23);
  DatasetArchive archive("glsc", {1, 8, 16, 16}, 8,
                         std::vector<data::FrameNorm>(8));
  archive.Add(0, 0, 8, Payload(MakeFakeWindow(rng)));
  const auto bytes = archive.Serialize();
  // Every truncation point must raise, never OOM or read out of bounds.
  for (std::size_t len : {bytes.size() - 1, bytes.size() / 2,
                          bytes.size() / 4, std::size_t{6}}) {
    const std::vector<std::uint8_t> cut(bytes.begin(),
                                        bytes.begin() + static_cast<std::ptrdiff_t>(len));
    SCOPED_TRACE(len);
    ExpectFullReadFailsLikeOpen(cut);
  }
}

TEST(Container, EmptyAndTinyInputsThrowTyped) {
  // Fuzzer-found (UBSan): a zero-byte input used to reach MemorySource with
  // a null backing pointer and hand memcpy null arguments. Empty and
  // sub-magic-sized inputs must raise a typed ArchiveError through both
  // entry points, never touch memory.
  for (std::size_t len : {std::size_t{0}, std::size_t{1}, std::size_t{3},
                          std::size_t{4}, std::size_t{5}}) {
    const std::vector<std::uint8_t> bytes(len, 'G');
    SCOPED_TRACE(len);
    const std::optional<ArchiveFault> fault =
        FaultOf([&] { ArchiveReader::FromBytes(bytes); });
    EXPECT_TRUE(fault == ArchiveFault::kNotAnArchive ||
                fault == ArchiveFault::kTruncated);
    ExpectFullReadFailsLikeOpen(bytes);
  }
}

TEST(Container, HostileLengthsThrowInsteadOfAllocating) {
  // A v1-style record whose y-stream length claims ~2^60 bytes: the varint
  // validation must reject it before any resize happens.
  ByteWriter hostile;
  hostile.PutBytes("GLSC", 4);
  hostile.PutU8(1);
  for (const std::uint64_t d : {1ull, 8ull, 16ull, 16ull}) hostile.PutU64(d);
  hostile.PutU64(8);
  for (int i = 0; i < 8; ++i) {
    hostile.PutF32(0.0f);
    hostile.PutF32(1.0f);
  }
  hostile.PutVarU64(1);
  hostile.PutVarU64(0);
  hostile.PutVarU64(0);
  hostile.PutVarU64(1ull << 60);  // y-stream "length"
  hostile.PutU8(0);
  ExpectFullReadFailsLikeOpen(hostile.bytes());

  // Hostile header: dataset dims whose norm count could never fit the input.
  ByteWriter huge;
  huge.PutBytes("GLSC", 4);
  huge.PutU8(2);
  huge.PutString("glsc");
  huge.PutU64(1ull << 40);  // V
  huge.PutU64(1ull << 40);  // T
  huge.PutU64(16);
  huge.PutU64(16);
  huge.PutU64(8);
  ExpectFullReadFailsLikeOpen(huge.bytes());

  // V = T = 2^32 would wrap V*T to zero and sneak past a naive norm-count
  // guard; the per-dimension cap must reject it first.
  ByteWriter wrap;
  wrap.PutBytes("GLSC", 4);
  wrap.PutU8(2);
  wrap.PutString("glsc");
  wrap.PutU64(1ull << 32);  // V
  wrap.PutU64(1ull << 32);  // T
  wrap.PutU64(16);
  wrap.PutU64(16);
  wrap.PutU64(8);
  ExpectFullReadFailsLikeOpen(wrap.bytes());

  // Dims [2, 2, 2^31, 2^31] each pass the per-dimension cap, but the
  // [V, T, H, W] element count (2^64) would wrap ShapeNumel to 0, so a full
  // decode would hand back an empty tensor. A complete v2 archive with no
  // records (fuzz/corpus-regressions/dims-overflow-header.bin) must be
  // rejected at the header.
  ByteWriter overflow;
  overflow.PutBytes("GLSC", 4);
  overflow.PutU8(2);
  overflow.PutString("glsc");
  for (const std::uint64_t d : {2ull, 2ull, 1ull << 31, 1ull << 31}) {
    overflow.PutU64(d);
  }
  overflow.PutU64(8);
  for (int i = 0; i < 4; ++i) {
    overflow.PutF32(0.0f);
    overflow.PutF32(1.0f);
  }
  overflow.PutVarU64(0);  // no records
  EXPECT_EQ(FaultOf([&] { ArchiveReader::FromBytes(overflow.bytes()); }),
            ArchiveFault::kCorruptRecord);
  ExpectFullReadFailsLikeOpen(overflow.bytes());

  // V = 2^31 with T = 0 (fuzz/corpus-regressions/wide-empty-header.bin) is a
  // valid archive with no norms and no records. Nothing may be sized by the
  // header's V alone: a per-variable table here would be ~48 GiB.
  const std::vector<std::uint8_t> wide = EmptyV4(1ull << 31, 0);
  EXPECT_TRUE(ArchiveReader::FromBytes(wide).records().empty());
  EXPECT_TRUE(ReadFully(wide).records().empty());

  // V = 2^31, T = 2^30 (norms-size-wrap-header.bin): 2^61 norms of 8 bytes
  // each wrap a multiplied byte count to 0, which the empty norms block
  // would then match. The block must be rejected for its size.
  const std::vector<std::uint8_t> wrapped = EmptyV4(1ull << 31, 1ull << 30);
  EXPECT_EQ(FaultOf([&] { ArchiveReader::FromBytes(wrapped); }),
            ArchiveFault::kCorruptIndex);
  ExpectFullReadFailsLikeOpen(wrapped);
}

TEST(Container, RejectsRecordOutsideDatasetBounds) {
  Rng rng(29);
  DatasetArchive archive("glsc", {1, 8, 16, 16}, 8,
                         std::vector<data::FrameNorm>(8));
  archive.Add(0, 0, 8, Payload(MakeFakeWindow(rng)));
  // The byte surgery below assumes the v3 layout (inline norms + leading
  // record count); v4 hostile-index coverage lives in container_v4_test.cc.
  auto bytes = SerializeAsV3(archive);
  // Read-but-corrupt path: patch the record's variable varint (first byte
  // after the record count) to 7, outside V=1.
  const ArchiveReader ok = ReadFully(bytes);
  ASSERT_EQ(ok.records().size(), 1u);
  // Locate the record area: header is magic(4)+version(1)+codec(1+4)+
  // dims(32)+window(8)+norms(64)+count(1) -> variable byte follows.
  const std::size_t var_at = 4 + 1 + 5 + 32 + 8 + 64 + 1;
  ASSERT_EQ(bytes[var_at], 0u);
  auto record_lies = bytes;
  record_lies[var_at] = 7;
  // A lazy open reads only the index, which is intact; the record-area walk
  // of a full read catches the record header disagreeing with it.
  EXPECT_EQ(FaultOf([&] { ArchiveReader::FromBytes(record_lies); }),
            std::nullopt);
  EXPECT_EQ(FaultOf([&] { ReadFully(record_lies); }),
            ArchiveFault::kCorruptRecord);

  // The index's copy of the variable (first byte after the index count)
  // pushed out of bounds: both entry points reject it at the index.
  std::uint64_t index_offset = 0;
  std::memcpy(&index_offset, bytes.data() + bytes.size() - 12, 8);
  ASSERT_EQ(bytes[index_offset + 1], 0u);
  bytes[index_offset + 1] = 7;
  ExpectFullReadFailsLikeOpen(bytes);
  EXPECT_EQ(FaultOf([&] { ReadFully(bytes); }),
            ArchiveFault::kCorruptIndex);
}

TEST(Container, EndToEndFileRoundTrip) {
  // Train a tiny pipeline, archive a dataset to disk, read it back with a
  // fresh compressor instance (same artifact), decompress and compare. The
  // artifacts dir is deliberately nested-and-missing: GetOrTrainGlsc must
  // create it rather than silently dropping the cache (regression).
  data::FieldSpec spec;
  spec.frames = 16;
  spec.height = 16;
  spec.width = 16;
  spec.seed = 31;
  data::SequenceDataset dataset(data::GenerateClimate(spec));

  GlscConfig config;
  config.vae.latent_channels = 4;
  config.vae.hidden_channels = 6;
  config.vae.hyper_channels = 2;
  config.unet.latent_channels = 4;
  config.unet.model_channels = 8;
  config.unet.heads = 2;
  config.schedule_steps = 30;
  config.window = 8;
  config.interval = 3;
  config.sample_steps = 4;
  TrainBudget budget;
  budget.vae.iterations = 60;
  budget.vae.crop = 16;
  budget.vae.log_every = 0;
  budget.diffusion.iterations = 40;
  budget.diffusion.crop = 16;
  budget.diffusion.log_every = 0;
  budget.pca_fit_windows = 2;
  const std::string root = ProcessTempPath("glsc_container_artifacts");
  const std::string artifacts = root + "/nested/deeper";
  std::filesystem::remove_all(root);
  auto compressor =
      GetOrTrainGlsc(dataset, config, budget, artifacts, "container_e2e");
  EXPECT_TRUE(FileExists(ArtifactPath(artifacts, "container_e2e")));

  const auto codec = api::WrapGlsc(compressor.get());
  api::SessionOptions options;
  options.bound = {api::ErrorBoundMode::kPointwiseL2, 0.2};
  api::EncodeSession session(codec.get(), dataset.variables(),
                             dataset.height(), dataset.width(), options);
  session.Push(dataset.raw());
  const DatasetArchive archive = session.Finish();
  EXPECT_EQ(archive.codec(), "glsc");
  const std::string path = ProcessTempPath("glsc_container_test.glsca");
  archive.WriteFile(path);

  // Fresh compressor from the same artifact; fresh archive from disk.
  auto other = GetOrTrainGlsc(dataset, config, budget, artifacts,
                              "container_e2e");
  const auto other_codec = api::WrapGlsc(other.get());
  const ArchiveReader reader = ArchiveReader::FromFile(path);
  reader.VerifyRecordArea();
  serve::DecodeScheduler scheduler(&reader, other_codec.get());
  const Tensor decompressed = scheduler.GetAll();
  ASSERT_EQ(decompressed.shape(), dataset.raw().shape());

  // Same bound guarantee transfers through the file: per-frame normalized L2
  // <= tau means physical error <= tau * range.
  const std::int64_t hw = 16 * 16;
  for (std::int64_t v = 0; v < dataset.variables(); ++v) {
    for (std::int64_t t = 0; t < dataset.frames(); ++t) {
      double l2 = 0.0;
      for (std::int64_t i = 0; i < hw; ++i) {
        const double d =
            dataset.raw()[(v * 16 + t) * hw + i] -
            decompressed[(v * 16 + t) * hw + i];
        l2 += d * d;
      }
      EXPECT_LE(std::sqrt(l2),
                0.2 * dataset.norm(v, t).range * (1.0 + 1e-3) + 1e-9)
          << "v=" << v << " t=" << t;
    }
  }
  std::filesystem::remove(path);
  std::filesystem::remove_all(root);
}

TEST(Container, ArchiveSizeMatchesAccountedBytes) {
  Rng rng(11);
  DatasetArchive archive("glsc", {1, 8, 16, 16}, 8,
                         std::vector<data::FrameNorm>(8));
  CompressedWindow w = MakeFakeWindow(rng);
  const std::size_t accounted = w.TotalBytes();
  archive.Add(0, 0, 8, Payload(w));
  const auto bytes = archive.Serialize();
  // On-disk size should be close to the accounted size (within the small
  // container framing: magic, version, codec id, dataset dims, record
  // shapes).
  EXPECT_LT(bytes.size(), accounted + 160);
}

}  // namespace
}  // namespace glsc::core
