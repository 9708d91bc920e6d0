// Fuzz target: the codec decoders over arbitrary bytes.
//
// The whole input goes to HuffmanDecode, and as a window payload to the sz
// and zfp codecs' DecompressWindow, both plain and with a Workspace. The
// contract under fire: each call returns a result or throws
// std::exception — never a crash, an OOM or a hang. Declared counts and
// dims are checked against the bytes that back them before anything is
// sized by them, so no input of n bytes allocates more than O(n).
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <vector>

#include "api/compressor.h"
#include "codec/huffman.h"
#include "fuzz_entry_points.h"
#include "tensor/workspace.h"

namespace glsc::fuzz {

int FuzzCodecDecode(const std::uint8_t* data, std::size_t size) {
  const std::vector<std::uint8_t> bytes(data, data + size);
  try {
    (void)codec::HuffmanDecode(bytes);
  } catch (const std::exception&) {
    // Hostile stream rejected with a typed error — the expected path.
  }
  // One arena for every input, as a serving worker keeps one: a rejected
  // decode must still rewind it.
  static tensor::Workspace ws;
  static const std::unique_ptr<api::Compressor> codecs[] = {
      api::Compressor::Create("sz"), api::Compressor::Create("zfp")};
  for (const auto& codec : codecs) {
    try {
      (void)codec->DecompressWindow(bytes);
    } catch (const std::exception&) {
    }
    try {
      (void)codec->DecompressWindow(bytes, &ws);
    } catch (const std::exception&) {
    }
    if (ws.bytes_in_use() != 0) {
      std::fprintf(stderr, "fuzz_codec_decode: %s decode left its arena "
                           "scope open\n", codec->name().c_str());
      std::abort();
    }
  }
  return 0;
}

}  // namespace glsc::fuzz

#ifndef GLSC_FUZZ_REGRESSION_TU
extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  return glsc::fuzz::FuzzCodecDecode(data, size);
}
#endif
