// Fuzz target: DatasetArchive::Deserialize over arbitrary bytes.
//
// Deserialize is ArchiveReader::FromBytes (the one archive parser) plus the
// reader's record-area walk (VerifyRecordArea) plus a fetch of every payload,
// so this target drives the same parser as fuzz_archive_reader and adds the
// walk. The container format promises that every length/count field is
// validated against the remaining input before any allocation (container.h),
// so the only acceptable outcomes here are a parsed archive or a typed
// exception. Crashes, sanitizer reports, and OOM-sized allocations are
// findings.
#include <cstddef>
#include <cstdint>
#include <exception>
#include <vector>

#include "core/container.h"
#include "fuzz_entry_points.h"

namespace glsc::fuzz {

int FuzzArchiveDeserialize(const std::uint8_t* data, std::size_t size) {
  std::vector<std::uint8_t> bytes(data, data + size);
  try {
    const auto archive = glsc::core::DatasetArchive::Deserialize(bytes);
    // Walk the parsed state so lazily-touched fields are exercised too.
    std::size_t payload_bytes = 0;
    for (const auto& entry : archive.entries()) {
      payload_bytes += entry.payload.size();
    }
    (void)payload_bytes;
    if (!archive.entries().empty() && archive.dataset_shape().size() == 4 &&
        archive.dataset_shape()[0] > 0 && archive.dataset_shape()[1] > 0) {
      // norm() indexes the V*T table; a parse that accepted inconsistent
      // shape/norm counts would fault here rather than in a caller.
      (void)archive.norm(0, 0);
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
  return glsc::fuzz::FuzzArchiveDeserialize(data, size);
}
#endif
