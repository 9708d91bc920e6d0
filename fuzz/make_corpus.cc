// Seed-corpus generator for the fuzz/ harnesses.
//
//   glsc_make_corpus OUT_DIR
//
// writes OUT_DIR/archive/*.bin (container bytes in v4, v3 and v2 wire formats,
// from the model-free test codecs, plus truncated/corrupted variants so even
// a coverage-blind replay run reaches the error paths) and
// OUT_DIR/range_coder/*.bin (structured inputs for the round-trip
// differential) and OUT_DIR/codec/*.bin (sz and zfp window payloads and bare
// Huffman streams for the codec decoders). Everything is deterministic:
// fixed seeds, fixed shapes.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "api/session.h"
#include "codec/huffman.h"
#include "codec/range_coder.h"
#include "core/archive_reader.h"
#include "core/container.h"
#include "data/field_generators.h"
#include "legacy_archives.h"

namespace {

using glsc::ByteWriter;
using glsc::Tensor;

void WriteBlob(const std::filesystem::path& path,
               const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  std::printf("  %s (%zu bytes)\n", path.c_str(), bytes.size());
}

// A small archive: [1, 20, 16, 16] climate field through `codec_name`. With
// window 16 that is one full record plus a padded 4-frame tail.
glsc::core::DatasetArchive SmallArchive(const std::string& codec_name,
                                        std::uint64_t seed) {
  glsc::data::FieldSpec spec;
  spec.variables = 1;
  spec.frames = 20;
  spec.height = 16;
  spec.width = 16;
  spec.seed = seed;
  const Tensor field = glsc::data::GenerateClimate(spec);

  auto codec = glsc::api::Compressor::Create(codec_name);
  glsc::api::SessionOptions options;
  options.bound = {glsc::api::ErrorBoundMode::kRelative, 0.05};
  glsc::api::EncodeSession session(codec.get(), spec.variables, spec.height,
                                   spec.width, options);
  session.Push(field);
  return session.Finish();
}

// The v2 wire format (no index/footer), mirroring container.h's layout doc —
// seeds the scan-built index path in ArchiveReader.
std::vector<std::uint8_t> SerializeAsV2(
    const glsc::core::DatasetArchive& archive) {
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
  out.PutVarU64(archive.entries().size());
  for (const auto& entry : archive.entries()) {
    out.PutVarU64(static_cast<std::uint64_t>(entry.variable));
    out.PutVarU64(static_cast<std::uint64_t>(entry.t0));
    out.PutVarU64(static_cast<std::uint64_t>(entry.valid_frames));
    out.PutVarU64(entry.payload.size());
    out.PutBytes(entry.payload.data(), entry.payload.size());
  }
  return out.Release();
}

// A minimal synthetic v4 archive (no codec session, compressible payloads)
// so the forced-filter / corrupted seeds stay small on disk.
glsc::core::DatasetArchive TinyArchive() {
  std::vector<glsc::data::FrameNorm> norms(8);
  for (std::size_t i = 0; i < norms.size(); ++i) {
    norms[i].mean = 0.25f * static_cast<float>(i);
    norms[i].range = 1.0f;
  }
  glsc::core::DatasetArchive archive("sz", {1, 8, 8, 8}, 8, norms);
  std::vector<std::uint8_t> payload(512);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i / 5);
  }
  archive.Add(0, 0, 8, std::move(payload));
  return archive;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s OUT_DIR\n", argv[0]);
    return 2;
  }
  const std::filesystem::path out_dir(argv[1]);
  const auto archive_dir = out_dir / "archive";
  const auto coder_dir = out_dir / "range_coder";
  const auto codec_dir = out_dir / "codec";
  std::filesystem::create_directories(archive_dir);
  std::filesystem::create_directories(coder_dir);
  std::filesystem::create_directories(codec_dir);

  // --- Archive seeds: v3 from each model-free codec, plus the v2 format.
  // (cdc/gcd/vae_sr need trained artifacts; the fuzzers only care about
  // container structure, which is codec-independent.) ---
  for (const std::string codec : {"sz", "zfp"}) {
    const auto archive = SmallArchive(codec, 7 + codec.size());
    WriteBlob(archive_dir / ("v3_" + codec + ".bin"),
              glsc::core::SerializeAsV3(archive));
  }
  {
    const auto archive = SmallArchive("sz", 23);
    const auto v3 = glsc::core::SerializeAsV3(archive);
    WriteBlob(archive_dir / "v2_sz.bin", SerializeAsV2(archive));

    // Damaged variants reach the rejection paths without coverage feedback:
    // a truncated stream, a severed footer, and a corrupted index byte.
    std::vector<std::uint8_t> truncated(v3.begin(),
                                        v3.begin() + v3.size() / 2);
    WriteBlob(archive_dir / "v3_truncated.bin", truncated);

    std::vector<std::uint8_t> no_footer(v3.begin(), v3.end() - 12);
    WriteBlob(archive_dir / "v3_no_footer.bin", no_footer);

    std::vector<std::uint8_t> bad_index = v3;
    bad_index[bad_index.size() - 20] ^= 0xFF;
    WriteBlob(archive_dir / "v3_bad_index.bin", bad_index);
  }

  // --- v4 seeds: the filtered/appendable layout. Selection-driven archives
  // from real codecs, every forced chain with the LZ backend on and off, and
  // damaged variants aimed at the new decode paths (a lying filter id in the
  // index, a stomped glz stream under an intact index, a severed 20-byte
  // footer). ---
  for (const std::string codec : {"sz", "zfp"}) {
    const auto archive = SmallArchive(codec, 7 + codec.size());
    WriteBlob(archive_dir / ("v4_" + codec + ".bin"), archive.Serialize());
  }
  {
    using glsc::core::FilterBackend;
    using glsc::core::FilterChain;
    using glsc::core::FilterSpec;
    const auto tiny = TinyArchive();
    const struct {
      const char* name;
      FilterSpec spec;
    } forced[] = {
        {"none_glz", {FilterChain::kNone, 1, FilterBackend::kGlz}},
        {"delta", {FilterChain::kDelta, 1, FilterBackend::kNone}},
        {"delta_glz", {FilterChain::kDelta, 1, FilterBackend::kGlz}},
        {"bitshuffle", {FilterChain::kBitshuffle, 4, FilterBackend::kNone}},
        {"bitshuffle_glz", {FilterChain::kBitshuffle, 4, FilterBackend::kGlz}},
        {"delta_bitshuffle_glz",
         {FilterChain::kDeltaBitshuffle, 2, FilterBackend::kGlz}},
    };
    for (const auto& f : forced) {
      WriteBlob(archive_dir / ("v4_forced_" + std::string(f.name) + ".bin"),
                tiny.Serialize({.forced_filter = f.spec}));
    }

    const auto clean = tiny.Serialize();
    // Lying filter id: reserved bits set on the index's first entry (count
    // and the leading varints are all single-byte here, so the filter byte
    // sits 4 bytes past the index offset).
    std::vector<std::uint8_t> lying = clean;
    std::uint64_t index_offset = 0;
    std::memcpy(&index_offset, lying.data() + lying.size() - 12, 8);
    lying[index_offset + 4] = 0xFF;
    WriteBlob(archive_dir / "v4_lying_filter_id.bin", lying);

    // Corrupt glz stream: record header and index intact, stored bytes
    // stomped with 0xFF extended-literal tokens.
    const auto reader = glsc::core::ArchiveReader::FromBytes(clean);
    std::vector<std::uint8_t> corrupt = clean;
    const auto& ref = reader.records().at(0);
    for (std::uint64_t i = 0; i < ref.length; ++i) {
      corrupt[ref.offset + i] = 0xFF;
    }
    WriteBlob(archive_dir / "v4_corrupt_glz.bin", corrupt);

    std::vector<std::uint8_t> no_footer(clean.begin(), clean.end() - 20);
    WriteBlob(archive_dir / "v4_no_footer.bin", no_footer);
  }

  // --- Range-coder seeds: [header | symbols] in the harness's input shape
  // (byte 0 picks the symbol count, bytes 1-3 shape the table, the rest is
  // the symbol stream). Spread over degenerate and wide tables.
  {
    const std::vector<std::vector<std::uint8_t>> shapes = {
        {0, 0, 0, 0},                      // 2 symbols, minimal freqs
        {62, 250, 1, 7},                   // 64 symbols, skewed
        {14, 100, 100, 100},               // 16 symbols, flat
    };
    int index = 0;
    for (const auto& header : shapes) {
      std::vector<std::uint8_t> blob = header;
      for (int i = 0; i < 96; ++i) {
        blob.push_back(static_cast<std::uint8_t>((i * 37 + index * 11) & 0xFF));
      }
      WriteBlob(coder_dir / ("seed_" + std::to_string(index++) + ".bin"),
                blob);
    }
  }
  // --- Codec seeds: inputs every decoder accepts, so mutations start deep
  // in the Huffman table, the payload and the dims checks. A 16-frame window
  // through sz and zfp, a skewed stream whose ten singleton symbols get its
  // longest codes, and a one-symbol stream. ---
  {
    glsc::data::FieldSpec spec;
    spec.variables = 1;
    spec.frames = 16;
    spec.height = 16;
    spec.width = 16;
    spec.seed = 31;
    const Tensor window =
        glsc::data::GenerateCombustion(spec).Reshape({16, 16, 16});
    const std::vector<glsc::data::FrameNorm> norms(16, {0.0f, 1.0f});
    for (const std::string codec_name : {"sz", "zfp"}) {
      const auto codec = glsc::api::Compressor::Create(codec_name);
      WriteBlob(codec_dir / (codec_name + "_window.bin"),
                codec->CompressWindow(
                    window, {glsc::api::ErrorBoundMode::kRelative, 0.01},
                    norms));
    }
    std::vector<std::int32_t> skewed;
    for (std::int32_t i = 0; i < 3000; ++i) {
      skewed.push_back(i % 300 == 7 ? 1000 + i : i % 5 != 0 ? 0 : i % 7 - 3);
    }
    WriteBlob(codec_dir / "huffman_skewed.bin",
              glsc::codec::HuffmanEncode(skewed));
    WriteBlob(codec_dir / "huffman_one_symbol.bin",
              glsc::codec::HuffmanEncode(std::vector<std::int32_t>(40, -3)));
  }
  std::printf("corpus written under %s\n", out_dir.c_str());
  return 0;
}
