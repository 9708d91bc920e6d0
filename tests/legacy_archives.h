// Writers for retired archive layouts, so the tests and the fuzz seed corpus
// keep reading real legacy bytes after the program stopped writing them.
// ContainerV4.SerializeAsV3MatchesTheRetiredWriter pins SerializeAsV3 to the
// bytes the v3 writer produced.
#pragma once

#include <cstdint>
#include <vector>

#include "core/container.h"
#include "util/bytes.h"

namespace glsc::core {

// `archive` in the v3 layout: the v4 header with version 3, the V*T norms
// inline, a leading record count, raw records, then the footer index (each
// record's metadata and payload span) and a 12-byte footer.
inline std::vector<std::uint8_t> SerializeAsV3(const DatasetArchive& archive) {
  ByteWriter out;
  out.PutBytes("GLSC", 4);
  out.PutU8(3);
  out.PutString(archive.codec());
  for (const std::int64_t d : archive.dataset_shape()) {
    out.PutU64(static_cast<std::uint64_t>(d));
  }
  out.PutU64(static_cast<std::uint64_t>(archive.window()));
  for (std::int64_t v = 0; v < archive.dataset_shape()[0]; ++v) {
    for (std::int64_t t = 0; t < archive.dataset_shape()[1]; ++t) {
      out.PutF32(archive.norm(v, t).mean);
      out.PutF32(archive.norm(v, t).range);
    }
  }
  const std::vector<ArchiveEntry>& entries = archive.entries();
  out.PutVarU64(entries.size());
  std::vector<std::uint64_t> payload_offsets;
  for (const ArchiveEntry& entry : entries) {
    out.PutVarU64(static_cast<std::uint64_t>(entry.variable));
    out.PutVarU64(static_cast<std::uint64_t>(entry.t0));
    out.PutVarU64(static_cast<std::uint64_t>(entry.valid_frames));
    out.PutVarU64(entry.payload.size());
    payload_offsets.push_back(out.size());
    out.PutBytes(entry.payload.data(), entry.payload.size());
  }
  const std::uint64_t index_offset = out.size();
  out.PutVarU64(entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    out.PutVarU64(static_cast<std::uint64_t>(entries[i].variable));
    out.PutVarU64(static_cast<std::uint64_t>(entries[i].t0));
    out.PutVarU64(static_cast<std::uint64_t>(entries[i].valid_frames));
    out.PutVarU64(payload_offsets[i]);
    out.PutVarU64(entries[i].payload.size());
  }
  out.PutU64(index_offset);
  out.PutBytes("GIDX", 4);
  return out.Release();
}

}  // namespace glsc::core
