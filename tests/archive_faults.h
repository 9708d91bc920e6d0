// Typed-failure assertions shared by the hostile-archive tests.
//
// DatasetArchive::Deserialize and ArchiveReader::FromBytes run the same
// parser, so on any bytes the reader rejects, Deserialize must throw an
// ArchiveError with the very same fault.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "core/archive_reader.h"
#include "core/container.h"

namespace glsc::core {

// The fault of the ArchiveError `fn` throws, or nullopt when it returns.
// Any other exception propagates and fails the test.
template <typename Fn>
std::optional<ArchiveFault> FaultOf(Fn&& fn) {
  try {
    fn();
  } catch (const ArchiveError& e) {
    return e.fault();
  }
  return std::nullopt;
}

inline void ExpectDeserializeFailsLikeReader(
    const std::vector<std::uint8_t>& bytes) {
  const std::optional<ArchiveFault> reader =
      FaultOf([&] { ArchiveReader::FromBytes(bytes); });
  ASSERT_TRUE(reader.has_value()) << "FromBytes accepted the bytes";
  EXPECT_EQ(FaultOf([&] { DatasetArchive::Deserialize(bytes); }), reader);
}

}  // namespace glsc::core
