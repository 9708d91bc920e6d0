// Random-access archive reading — the one parser of archive bytes.
//
// `ArchiveReader` opens an archive (container.h, v1-v4) from a file or a byte
// buffer and serves any record's payload without touching the others:
//
//   auto reader = core::ArchiveReader::FromFile("run.glsca");
//   std::vector<std::uint8_t> scratch;
//   for (std::size_t i : reader.RecordsFor(variable, t_begin, t_end)) {
//     // Reads only these records' bytes; the raw codec payload.
//     const std::vector<std::uint8_t>& payload = reader.Payload(i, &scratch);
//   }
//
// serve::DecodeScheduler is the one decoder over it (Get for a frame range,
// GetAll for the whole archive).
//
// It is the only code that parses archive bytes, and so the only way to read
// an archive: `DatasetArchive` only builds and writes them, and
// `DatasetArchive::AppendToFile` opens through the reader to take the old
// header, norms and index. Post-hoc analysis (the paper's visualization /
// region-of-interest workloads) reads small time slices of single variables
// far more often than whole datasets, which is what the lazy open serves.
//
// For a v3/v4 archive the reader fetches the header from the front, the fixed
// footer from the back, and the index block the footer points at — payload
// bytes are read lazily, one record at a time. v4 records may be filtered
// (core/filters.h); Payload inverts the declared chain transparently, so
// callers always receive the raw codec payload. v1/v2 archives carry no
// index, so the reader scans the record area once to build one; random access
// still works, it just costs a full read up front.
//
// File-backed readers default to a read-only mmap of the archive (page-cache
// backed random access, no syscall per record) and fall back to positioned
// pread when mapping is unavailable; both are byte-identical and lock-free,
// so Payload is safe to call from multiple threads concurrently (each with
// its own scratch vector) — what serve::DecodeScheduler's worker fan-out
// relies on. The mmap backing assumes the file is not truncated while open
// (standard mmap caveat).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/container.h"
#include "util/status.h"

namespace glsc::tensor {
class Workspace;
}  // namespace glsc::tensor

namespace glsc::core {

// What exactly went wrong with the archive bytes. Serving layers mostly care
// about the StatusError code this maps to (kDataLoss = quarantine-worthy,
// kUnavailable = retryable IO), but tests and logs want the precise fault.
enum class ArchiveFault : std::uint8_t {
  kNotAnArchive = 0,   // bad magic / unsupported version
  kTruncated = 1,      // stream ends before a declared structure
  kCorruptIndex = 2,   // footer/index fails validation
  kCorruptRecord = 3,  // record metadata lies about the stream
  kIo = 4,             // backing read failed (possibly transient)
};

// Typed failure for hostile or damaged archives. Derives StatusError (and
// therefore std::runtime_error), so existing catch sites keep working while
// the shard manager can classify: every fault is kDataLoss except kIo, which
// maps to kUnavailable and is eligible for retry.
class ArchiveError : public StatusError {
 public:
  ArchiveError(ArchiveFault fault, const std::string& message)
      : StatusError(fault == ArchiveFault::kIo ? ErrorCode::kUnavailable
                                               : ErrorCode::kDataLoss,
                    message),
        fault_(fault) {}

  ArchiveFault fault() const { return fault_; }

 private:
  ArchiveFault fault_;
};

// One record's metadata plus the byte span of its STORED payload inside the
// archive. For v1-v3 records (and raw v4 records) stored == raw, filter is
// the identity and raw_size == length.
struct RecordRef {
  std::int64_t variable = 0;
  std::int64_t t0 = 0;
  std::int64_t valid_frames = 0;
  std::uint64_t offset = 0;    // absolute stored-payload offset (see backing)
  std::uint64_t length = 0;    // stored (on-disk) byte count
  FilterSpec filter;           // how the stored bytes were filtered (v4)
  std::uint64_t raw_size = 0;  // unfiltered payload byte count
};

// How FromFile backs positioned reads.
enum class FileBacking : std::uint8_t {
  kAuto = 0,   // mmap, falling back to pread when mapping fails
  kMmap = 1,   // read-only mmap only; throws ArchiveError(kIo) if unavailable
  kPread = 2,  // positioned pread per record (no mapping)
};

class ArchiveReader {
 public:
  // Opens an archive file. v3/v4 archives are indexed without reading the
  // record area; v1/v2 archives are scanned once.
  static ArchiveReader FromFile(const std::string& path,
                                FileBacking backing = FileBacking::kAuto);
  // Same over an in-memory byte buffer (takes ownership of the copy).
  static ArchiveReader FromBytes(std::vector<std::uint8_t> bytes);

  // Move operations are defined out of line (with the destructor): Source is
  // incomplete here, and defaulting them in-class would force callers that
  // aggregate readers (vectors of shards) to instantiate its deleter.
  ArchiveReader(ArchiveReader&&) noexcept;
  ArchiveReader& operator=(ArchiveReader&&) noexcept;
  ArchiveReader(const ArchiveReader&) = delete;
  ArchiveReader& operator=(const ArchiveReader&) = delete;
  ~ArchiveReader();

  const std::string& codec() const { return codec_; }
  const Shape& dataset_shape() const { return shape_; }
  std::int64_t window() const { return window_; }
  // Container version of the archive (1-4).
  int version() const { return version_; }
  const data::FrameNorm& norm(std::int64_t variable, std::int64_t t) const;
  const std::vector<RecordRef>& records() const { return records_; }

  // One record's RAW payload, with any v4 filter chain inverted. Reads
  // exactly that record's stored byte span, fills `*scratch` (reusing its
  // capacity) and returns it; filter/LZ scratch comes from `ws` when non-null
  // (the reader opens its own Workspace::Scope), heap otherwise — with a warm
  // Workspace, steady-state filtered decode is allocation-free. Thread-safe
  // as long as concurrent callers pass distinct scratch vectors.
  const std::vector<std::uint8_t>& Payload(
      std::size_t record, std::vector<std::uint8_t>* scratch,
      tensor::Workspace* ws = nullptr) const;

  // Walks the record area and checks it against the index: each record
  // header mirrors its index entry (v3/v4), the records tile the area in
  // index order with nothing left over, and a v3 archive's leading record
  // count equals the index count. Throws ArchiveError(kCorruptRecord).
  // Opens do not run it, because they never read the record area; a caller
  // about to read every record runs it first to validate the whole input.
  // A no-op for v1/v2 (the open already scanned every record).
  void VerifyRecordArea() const;

  // Indices (into records()) of `variable`'s records overlapping
  // [t_begin, t_end), sorted by t0.
  std::vector<std::size_t> RecordsFor(std::int64_t variable,
                                      std::int64_t t_begin,
                                      std::int64_t t_end) const;

  // STORED (on-disk, possibly compressed) payload bytes fetched through
  // Payload so far — lets tests and benches verify that a window query
  // does not drag the whole archive through I/O, and that filtered archives
  // actually fetch fewer bytes than raw ones.
  std::uint64_t payload_bytes_fetched() const;
  // RAW payload bytes handed to callers after unfiltering. Equal to
  // payload_bytes_fetched() for unfiltered archives.
  std::uint64_t decoded_payload_bytes() const;
  // Total size of the backing stream.
  std::uint64_t archive_bytes() const;
  // Byte span [records_begin, records_end) of the record area: v4 from the
  // header's end to the norms block (where AppendToFile starts rewriting),
  // v1-v3 from the leading record count to the index (v3) or the end of the
  // stream (v1/v2).
  std::uint64_t records_begin() const { return records_begin_; }
  std::uint64_t records_end() const { return records_end_; }

  class Source;  // internal byte source (file or memory)

 private:
  ArchiveReader();
  static ArchiveReader Open(std::unique_ptr<Source> source);
  void ParseSource();
  // v3/v4: footer -> (v4) filtered norms block -> index; the record area is
  // never read.
  void ParseTail();
  // v1/v2: no index on disk — scan the record area once to build one.
  void ScanRecords();
  // Dataset-bounds and valid_frames checks shared by every record source.
  void CheckPlacement(const RecordRef& ref, ArchiveFault fault) const;
  void BuildVariableIndex();

  std::string codec_ = "glsc";
  Shape shape_;
  int version_ = 0;
  std::int64_t window_ = 0;
  std::vector<data::FrameNorm> norms_;
  std::uint64_t records_begin_ = 0;
  std::uint64_t records_end_ = 0;
  std::vector<RecordRef> records_;
  // Record indices sorted by (variable, t0), for range queries. Sized by the
  // record count, never by the header's V.
  std::vector<std::size_t> sorted_;

  std::unique_ptr<Source> source_;  // file/bytes backing
  std::unique_ptr<std::atomic<std::uint64_t>> fetched_;
  std::unique_ptr<std::atomic<std::uint64_t>> decoded_;
};

}  // namespace glsc::core
