// On-disk container format for compressed data.
//
// Version 4 adds a lossless filter pipeline and in-place appendability to the
// v3 random-access archive: every record (and the norms block) declares a
// filter chain + lossless backend (core/filters.h) applied over its opaque
// per-codec payload at serialize time and inverted transparently on read. A
// `DatasetArchive` packs the records for a whole [V, T, H, W] dataset —
// per-frame normalization parameters included — so decompression needs only
// the archive file plus the model artifact. Layout (little-endian):
//
//   archive  := magic "GLSC" u8 version=4 | string codec
//               | u64 V,T,H,W | u64 window
//               | records | norms-block | index | footer
//   record   := varint variable | varint t0 | varint valid_frames
//               | u8 filter | u8 backend | varint raw-size
//               | varint stored-size | stored-bytes
//   norms    := u8 filter | u8 backend | varint raw-size
//               | varint stored-size | stored-bytes     (raw = V*T x
//               (f32 mean, f32 range))
//   index    := varint count | count x (varint variable | varint t0
//               | varint valid_frames | u8 filter | u8 backend
//               | varint raw-size | varint offset | varint stored-size)
//   footer   := u64 norms-offset | u64 index-offset | magic "GIDX"
//
// The index mirrors each record's metadata and stores the ABSOLUTE byte
// offset of its stored payload, so core::ArchiveReader (archive_reader.h)
// serves a record by reading the header from the front, the fixed 20-byte
// footer from the back, the index block the footer points at, and then only
// the stored bytes a query actually touches — the c-blosc2 super-chunk trick
// applied to codec-opaque diffusion records.
//
// v4 design notes:
//  - The record area carries no leading count and the norms moved out of the
//    header into the rewritten tail, so AppendToFile can extend an archive by
//    overwriting from norms-offset with the new records + rebuilt
//    norms/index/footer — old record bytes are never rewritten (cf.
//    blosc2_schunk_append_file). The header's fixed-width u64 T is updated
//    in place.
//  - Filter selection is per record by trial on a sampled prefix (see
//    core/filters.h); incompressible payloads honestly store raw
//    (filter = backend = none), so decode cost is only paid where bytes were
//    actually saved.
//  - In-memory ArchiveEntry payloads are ALWAYS raw: filtering exists only
//    on the serialized boundary, and codecs never see stored bytes.
//
// `valid_frames` <= window: streams whose T is not a multiple of the window
// pad the final record up to the window length; only the first valid_frames
// decoded frames are real (api::EncodeSession writes such tails).
//
// Version 1-3 archives still load unchanged: v3 has inline norms, raw records
// and a 12-byte footer, v2 lacks the index/footer, and v1 record bodies are
// bit-identical to the "glsc" codec payload. Only v4 is written.
//
// This file holds the writer and the "glsc" payload body codec. A
// DatasetArchive is built in memory and written; it never reads archive
// bytes. Every read — v1 to v4, from bytes or a file — goes through
// core::ArchiveReader, the one parser; AppendToFile opens with it to take the
// old header, norms and index. All length/count/size fields are validated
// against the remaining input before any allocation, so a truncated or
// hostile archive raises a typed core::ArchiveError instead of OOMing or
// crashing. Decoding records back into frames is serve::DecodeScheduler's
// job, over an ArchiveReader (GetAll for the whole archive).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/filters.h"
#include "core/glsc_compressor.h"
#include "data/dataset.h"

namespace glsc::core {

// The "glsc" codec payload body (also the v1 archive record body).
void SerializeWindow(const CompressedWindow& window, ByteWriter* out);
CompressedWindow DeserializeWindow(ByteReader* in);

struct ArchiveEntry {
  std::int64_t variable = 0;
  std::int64_t t0 = 0;
  std::int64_t valid_frames = 0;       // true (un-padded) frames in the record
  std::vector<std::uint8_t> payload;   // codec-specific bytes (always RAW)
};

struct ArchiveWriteOptions {
  // Test/fuzz hook: bypass trial selection and force this spec on every
  // record and the norms block (FilterSpec{} stores everything raw).
  std::optional<FilterSpec> forced_filter;
};

// Builds an archive in memory and writes it as v4. Reading one back is
// ArchiveReader's job.
class DatasetArchive {
 public:
  DatasetArchive() = default;
  DatasetArchive(std::string codec, Shape dataset_shape, std::int64_t window,
                 std::vector<data::FrameNorm> norms)
      : codec_(std::move(codec)),
        dataset_shape_(std::move(dataset_shape)),
        window_(window),
        norms_(std::move(norms)) {}

  // Throws unless the record lies inside the dataset (variable < V, t0 < T,
  // t0 + valid_frames <= T) and 0 < valid_frames <= window: the writer
  // refuses what the reader refuses.
  void Add(std::int64_t variable, std::int64_t t0, std::int64_t valid_frames,
           std::vector<std::uint8_t> payload);

  // Registry name of the codec whose payloads the records hold.
  const std::string& codec() const { return codec_; }
  const Shape& dataset_shape() const { return dataset_shape_; }
  std::int64_t window() const { return window_; }
  const std::vector<ArchiveEntry>& entries() const { return entries_; }
  const data::FrameNorm& norm(std::int64_t variable, std::int64_t t) const;

  std::vector<std::uint8_t> Serialize(
      const ArchiveWriteOptions& options = {}) const;
  void WriteFile(const std::string& path) const;

  // Extends the v4 archive at `path` with `more`'s records WITHOUT rewriting
  // the existing record bytes: overwrites from the old norms-offset with
  // more's (filtered) records, the merged norms block, the rebuilt index and
  // a fresh footer, then patches the header's u64 T in place. more's t0s are
  // shifted by the existing archive's frame count, so `more` is authored as
  // its own [V, T_more, H, W] archive. codec, V, H, W and window must match.
  // The result is byte-identical to one-shot serialization of the combined
  // record set (filter selection is deterministic in the payload bytes).
  // The existing archive is opened with ArchiveReader::FromFile, which reads
  // only its header and tail and validates them: an archive the reader
  // rejects throws that ArchiveError before anything is written.
  // Creates the file when it does not exist. v1-v3 archives are rejected —
  // their layout cannot grow in place; such an archive must first be
  // rewritten as v4 (read it with ArchiveReader, Add its records to a
  // DatasetArchive and write that).
  // Not crash-atomic: a failure mid-append leaves the tail unreadable (the
  // footer is written last), like any in-place container mutation.
  static void AppendToFile(const std::string& path, const DatasetArchive& more,
                           const ArchiveWriteOptions& options = {});

 private:
  std::string codec_ = "glsc";
  Shape dataset_shape_;  // [V, T, H, W]
  std::int64_t window_ = 0;
  std::vector<data::FrameNorm> norms_;  // V*T entries
  std::vector<ArchiveEntry> entries_;
};

}  // namespace glsc::core
