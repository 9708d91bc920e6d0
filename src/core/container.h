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
// decoded frames are real (see api/session.h).
//
// Version 1-3 archives still load unchanged: v3 has inline norms, raw records
// and a 12-byte footer, v2 lacks the index/footer, and v1 record bodies are
// bit-identical to the "glsc" codec payload. Serialize can still WRITE the v3
// layout (ArchiveWriteOptions::version = 3) for compatibility tests and
// raw-vs-filtered benchmarks.
//
// This file holds the writers and the "glsc" payload body codec. Every read
// of archive bytes — v1 to v4 — goes through core::ArchiveReader, the one
// parser: Deserialize and ReadFile open with it, run its record-area walk
// (ArchiveReader::VerifyRecordArea) and materialize every payload;
// AppendToFile opens with it to take the old header, norms and index. All length/count/size fields are validated against
// the remaining input before any allocation, so a truncated or hostile
// archive raises a typed core::ArchiveError instead of OOMing or crashing.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/filters.h"
#include "core/glsc_compressor.h"
#include "data/dataset.h"

namespace glsc::api {
class Compressor;
}  // namespace glsc::api

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
  // 4 = filtered, appendable (default); 3 = the raw pre-filter layout, kept
  // for compatibility tests and raw-vs-filtered benchmarks.
  int version = 4;
  // Test/fuzz hook (v4 only): bypass trial selection and force this spec on
  // every record and the norms block.
  std::optional<FilterSpec> forced_filter;
};

class DatasetArchive {
 public:
  DatasetArchive() = default;
  DatasetArchive(std::string codec, Shape dataset_shape, std::int64_t window,
                 std::vector<data::FrameNorm> norms)
      : codec_(std::move(codec)),
        dataset_shape_(std::move(dataset_shape)),
        window_(window),
        norms_(std::move(norms)) {}

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
  // ArchiveReader over `bytes` (borrowed, not copied), then VerifyRecordArea,
  // then a copy of every record's raw payload. Throws ArchiveError on hostile
  // or damaged bytes, with the fault ArchiveReader::FromBytes reports for
  // them.
  static DatasetArchive Deserialize(const std::vector<std::uint8_t>& bytes);

  void WriteFile(const std::string& path) const;
  // Same as Deserialize over ArchiveReader::FromFile with the pread backing:
  // the header and tail first, then one header read (the walk) and one
  // payload read per record. No whole-file buffer is held, so peak memory is
  // the payloads alone, and a file truncated underneath fails typed instead
  // of faulting through a mapping.
  static DatasetArchive ReadFile(const std::string& path);

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
  // their layout cannot grow in place; rewrite them through Serialize.
  // Not crash-atomic: a failure mid-append leaves the tail unreadable (the
  // footer is written last), like any in-place container mutation.
  static void AppendToFile(const std::string& path, const DatasetArchive& more,
                           const ArchiveWriteOptions& options = {});

  // Decompresses every record back into a full [V, T, H, W] tensor in
  // physical units (frames the archive does not cover stay zero). `codec`
  // must match codec() — typically Compressor::Create(archive.codec(), ...)
  // loaded with the right artifact.
  Tensor DecompressAll(api::Compressor* codec) const;
  // Legacy convenience for callers holding a bare GLSC pipeline.
  Tensor DecompressAll(GlscCompressor* compressor) const;

 private:
  std::string codec_ = "glsc";
  Shape dataset_shape_;  // [V, T, H, W]
  std::int64_t window_ = 0;
  std::vector<data::FrameNorm> norms_;  // V*T entries
  std::vector<ArchiveEntry> entries_;
};

// Convenience: compresses every window of `dataset` at per-frame L2 bound tau
// through the GLSC pipeline (streams the dataset through an EncodeSession, so
// trailing frames that do not fill a window are covered via padded records —
// v1 behavior dropped them).
DatasetArchive CompressDataset(GlscCompressor* compressor,
                               const data::SequenceDataset& dataset,
                               double tau);

// Shared-memory parallel variant. GlscCompressor instances are NOT
// thread-safe (explicit-backward layers cache activations), so the caller
// provides one instance per worker — typically clones loaded from the same
// artifact — and windows are distributed over them via the global thread
// pool. Output is byte-identical to the serial version.
DatasetArchive CompressDatasetParallel(
    const std::vector<GlscCompressor*>& workers,
    const data::SequenceDataset& dataset, double tau);

}  // namespace glsc::core
