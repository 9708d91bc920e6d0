// Fuzz target: ArchiveReader::FromBytes + full record fetch over arbitrary
// bytes.
//
// Exercises the v3/v4 footer/index path, the v1/v2 scan-built index path, and
// Payload's offset/length arithmetic and filter inversion. The contract under
// fire: any input either opens (and then every indexed record is fetchable or
// fails typed) or raises ArchiveError / std::exception — never a crash, hang,
// or wild read.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <vector>

#include "core/archive_reader.h"
#include "fuzz_entry_points.h"

namespace glsc::fuzz {

int FuzzArchiveReader(const std::uint8_t* data, std::size_t size) {
  std::vector<std::uint8_t> bytes(data, data + size);
  try {
    const auto reader = glsc::core::ArchiveReader::FromBytes(std::move(bytes));
    // Fetch every record the index claims to exist (bounded: a hostile index
    // cannot inflate the record count past what validation admitted, but cap
    // the walk anyway so the harness stays fast on large accepted inputs).
    // One scratch vector serves every fetch, as in the serving paths.
    const std::size_t n = std::min<std::size_t>(reader.records().size(), 256);
    std::vector<std::uint8_t> scratch;
    for (std::size_t i = 0; i < n; ++i) {
      (void)reader.Payload(i, &scratch);
    }
    // Range queries walk the sorted record index.
    const auto& shape = reader.dataset_shape();
    if (shape.size() == 4 && shape[0] > 0 && shape[1] > 0) {
      (void)reader.RecordsFor(0, 0, shape[1]);
      (void)reader.norm(0, 0);
    }
  } catch (const std::exception&) {
    // Hostile input rejected with a typed error — the expected path.
  }
  return 0;
}

}  // namespace glsc::fuzz

#ifndef GLSC_FUZZ_REGRESSION_TU
extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  return glsc::fuzz::FuzzArchiveReader(data, size);
}
#endif
