// Typed-failure assertions shared by the hostile-archive tests.
//
// A lazy open (ArchiveReader::FromBytes) reads only the header and tail. A
// full read also walks the record area against the index and fetches every
// payload, so it sees every fault an open sees plus the ones in the record
// area; on bytes the open rejects it must fail with the very same fault.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "core/archive_reader.h"

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

// Reads all of `bytes`: FromBytes, then VerifyRecordArea, then Payload on
// every record. Returns the reader.
inline ArchiveReader ReadFully(std::vector<std::uint8_t> bytes) {
  ArchiveReader reader = ArchiveReader::FromBytes(std::move(bytes));
  reader.VerifyRecordArea();
  std::vector<std::uint8_t> scratch;
  for (std::size_t i = 0; i < reader.records().size(); ++i) {
    reader.Payload(i, &scratch);
  }
  return reader;
}

inline void ExpectFullReadFailsLikeOpen(
    const std::vector<std::uint8_t>& bytes) {
  const std::optional<ArchiveFault> open =
      FaultOf([&] { ArchiveReader::FromBytes(bytes); });
  ASSERT_TRUE(open.has_value()) << "FromBytes accepted the bytes";
  EXPECT_EQ(FaultOf([&] { ReadFully(bytes); }), open);
}

}  // namespace glsc::core
