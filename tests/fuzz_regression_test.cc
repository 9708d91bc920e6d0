// Replays fuzz/corpus-regressions/* through every fuzz harness entry point
// in the normal ctest run. The harness TUs are compiled into this binary
// with GLSC_FUZZ_REGRESSION_TU, which strips their conflicting extern "C"
// LLVMFuzzerTestOneInput wrappers (fuzz/fuzz_entry_points.h). A harness that
// crashes or aborts on any corpus file fails the suite — past fuzzer catches
// stay fixed without needing clang or libFuzzer in the container.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "../fuzz/fuzz_entry_points.h"
#include "api/compressor.h"
#include "codec/huffman.h"

namespace glsc {
namespace {

namespace fs = std::filesystem;

std::vector<fs::path> CorpusFiles() {
  const fs::path dir = fs::path(GLSC_REPO_ROOT) / "fuzz" / "corpus-regressions";
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file() && entry.path().extension() == ".bin") {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::vector<std::uint8_t> ReadBytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

using FuzzEntry = int (*)(const std::uint8_t*, std::size_t);

struct Harness {
  const char* name;
  FuzzEntry entry;
};

constexpr Harness kHarnesses[] = {
    {"archive_reader", &fuzz::FuzzArchiveReader},
    {"range_coder", &fuzz::FuzzRangeCoder},
    {"codec_decode", &fuzz::FuzzCodecDecode},
};

TEST(FuzzRegression, CorpusIsNonEmpty) {
  // An empty corpus would make the replay below pass vacuously.
  EXPECT_GE(CorpusFiles().size(), 5u);
}

TEST(FuzzRegression, EveryHarnessSurvivesEveryCorpusFile) {
  for (const fs::path& file : CorpusFiles()) {
    const std::vector<std::uint8_t> bytes = ReadBytes(file);
    for (const Harness& harness : kHarnesses) {
      SCOPED_TRACE(std::string(harness.name) + " <- " +
                   file.filename().string());
      // data() of an empty vector may be null; the harnesses must take it.
      EXPECT_EQ(0, harness.entry(bytes.data(), bytes.size()));
    }
  }
}

// The hostile codec streams must not merely survive the harnesses: each is
// rejected with a typed error.
TEST(FuzzRegression, HostileCodecStreamsAreRejected) {
  const fs::path dir = fs::path(GLSC_REPO_ROOT) / "fuzz" / "corpus-regressions";
  for (const char* name :
       {"huffman-count-beyond-payload.bin", "huffman-code-length-33.bin",
        "huffman-over-subscribed.bin"}) {
    SCOPED_TRACE(name);
    EXPECT_THROW(codec::HuffmanDecode(ReadBytes(dir / name)),
                 std::runtime_error);
  }
  const auto sz = api::Compressor::Create("sz");
  EXPECT_THROW(sz->DecompressWindow(ReadBytes(dir / "sz-dims-beyond-codes.bin")),
               std::runtime_error);
  const auto glsc = api::Compressor::Create("glsc");
  EXPECT_THROW(
      glsc->DecompressWindow(ReadBytes(dir / "hyperprior-zero-batch.bin")),
      std::runtime_error);
  const auto vae_sr = api::Compressor::Create("vae_sr");
  EXPECT_THROW(
      vae_sr->DecompressWindow(ReadBytes(dir / "hyperprior-extra-channels.bin")),
      std::runtime_error);
}

TEST(FuzzRegression, HarnessesAcceptNullEmptyInput) {
  for (const Harness& harness : kHarnesses) {
    SCOPED_TRACE(harness.name);
    EXPECT_EQ(0, harness.entry(nullptr, 0));
  }
}

}  // namespace
}  // namespace glsc
