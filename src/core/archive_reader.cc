#include "core/archive_reader.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <numeric>
#include <tuple>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

#include "tensor/workspace.h"
#include "util/check.h"
#include "util/mutex.h"

// Typed variant of GLSC_CHECK_MSG for archive validation: a failed condition
// means hostile or damaged bytes, so it throws core::ArchiveError with the
// given fault instead of a bare runtime_error — the serving layers classify
// the failure (kDataLoss vs retryable kIo) from the type.
#define GLSC_ARCHIVE_CHECK(cond, fault, msg)                            \
  do {                                                                  \
    if (!(cond)) {                                                      \
      std::ostringstream glsc_os_;                                      \
      glsc_os_ << msg;                                                  \
      throw ::glsc::core::ArchiveError((fault), glsc_os_.str());        \
    }                                                                   \
  } while (0)

namespace glsc::core {

// Positioned reads over the archive bytes. ReadAt validates the range against
// the stream size, so a hostile index cannot point a read out of bounds.
class ArchiveReader::Source {
 public:
  virtual ~Source() = default;
  virtual std::uint64_t size() const = 0;
  virtual void ReadAt(std::uint64_t offset, std::uint64_t length,
                      std::uint8_t* dst) = 0;

  std::vector<std::uint8_t> Read(std::uint64_t offset, std::uint64_t length) {
    std::vector<std::uint8_t> buf(static_cast<std::size_t>(length));
    ReadAt(offset, length, buf.data());
    return buf;
  }

 protected:
  void CheckRange(std::uint64_t offset, std::uint64_t length) const {
    GLSC_ARCHIVE_CHECK(offset <= size() && length <= size() - offset,
                       ArchiveFault::kTruncated,
                       "archive read [" << offset << ", +" << length
                                        << ") out of range of " << size()
                                        << " bytes");
  }
};

namespace {

constexpr char kArchiveMagic[4] = {'G', 'L', 'S', 'C'};
constexpr char kIndexMagic[4] = {'G', 'I', 'D', 'X'};
constexpr std::uint64_t kFooterBytes = 12;    // u64 index-offset + "GIDX"
constexpr std::uint64_t kFooterBytesV4 = 20;  // u64 norms/index offs + "GIDX"

class MemorySource final : public ArchiveReader::Source {
 public:
  // Owns `bytes`.
  explicit MemorySource(std::vector<std::uint8_t> bytes)
      : owned_(std::move(bytes)), bytes_(&owned_) {}
  // Borrows `*bytes`, which must outlive the source.
  explicit MemorySource(const std::vector<std::uint8_t>* bytes)
      : bytes_(bytes) {}
  std::uint64_t size() const override { return bytes_->size(); }
  void ReadAt(std::uint64_t offset, std::uint64_t length,
              std::uint8_t* dst) override {
    CheckRange(offset, length);
    // Zero-length reads of an empty backing hand memcpy null pointers, which
    // is UB even for n = 0 (fuzzer-found via UBSan).
    if (length == 0) return;
    std::memcpy(dst, bytes_->data() + offset,
                static_cast<std::size_t>(length));
  }

 private:
  std::vector<std::uint8_t> owned_;
  const std::vector<std::uint8_t>* bytes_;
};

#if defined(__unix__) || defined(__APPLE__)

// Read-only mapping of the whole archive: payload fetches become plain
// memcpys out of the page cache, with no syscall and no shared stream state —
// concurrent decode workers never contend. c-blosc2's mmap frame trick.
class MmapSource final : public ArchiveReader::Source {
 public:
  explicit MmapSource(const std::string& path) {
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    GLSC_ARCHIVE_CHECK(fd >= 0, ArchiveFault::kIo,
                       "cannot open archive " << path);
    struct stat st = {};
    if (::fstat(fd, &st) != 0) {
      ::close(fd);
      GLSC_ARCHIVE_CHECK(false, ArchiveFault::kIo, "cannot stat " << path);
    }
    size_ = static_cast<std::uint64_t>(st.st_size);
    if (size_ > 0) {
      void* map = ::mmap(nullptr, static_cast<std::size_t>(size_), PROT_READ,
                         MAP_PRIVATE, fd, 0);
      if (map == MAP_FAILED) {
        ::close(fd);
        GLSC_ARCHIVE_CHECK(false, ArchiveFault::kIo, "cannot mmap " << path);
      }
      data_ = static_cast<const std::uint8_t*>(map);
    }
    // The mapping keeps the bytes alive on its own.
    ::close(fd);
  }
  ~MmapSource() override {
    if (data_ != nullptr) {
      ::munmap(const_cast<std::uint8_t*>(data_),
               static_cast<std::size_t>(size_));
    }
  }
  std::uint64_t size() const override { return size_; }
  void ReadAt(std::uint64_t offset, std::uint64_t length,
              std::uint8_t* dst) override {
    CheckRange(offset, length);
    if (length == 0) return;
    std::memcpy(dst, data_ + offset, static_cast<std::size_t>(length));
  }

 private:
  const std::uint8_t* data_ = nullptr;
  std::uint64_t size_ = 0;
};

// Positioned pread per fetch: no mapping, no seek position to share, so reads
// are lock-free too. The fallback when mmap is unavailable (some filesystems,
// exotic mounts) and the pick for one-pass streaming reads that should not
// pollute the address space.
class PreadSource final : public ArchiveReader::Source {
 public:
  explicit PreadSource(const std::string& path)
      : fd_(::open(path.c_str(), O_RDONLY | O_CLOEXEC)) {
    GLSC_ARCHIVE_CHECK(fd_ >= 0, ArchiveFault::kIo,
                       "cannot open archive " << path);
    struct stat st = {};
    GLSC_ARCHIVE_CHECK(::fstat(fd_, &st) == 0, ArchiveFault::kIo,
                       "cannot stat " << path);
    size_ = static_cast<std::uint64_t>(st.st_size);
  }
  ~PreadSource() override {
    if (fd_ >= 0) ::close(fd_);
  }
  std::uint64_t size() const override { return size_; }
  void ReadAt(std::uint64_t offset, std::uint64_t length,
              std::uint8_t* dst) override {
    CheckRange(offset, length);
    std::uint64_t done = 0;
    while (done < length) {
      const ::ssize_t n =
          ::pread(fd_, dst + done, static_cast<std::size_t>(length - done),
                  static_cast<::off_t>(offset + done));
      if (n < 0 && errno == EINTR) continue;
      GLSC_ARCHIVE_CHECK(n > 0, ArchiveFault::kIo, "short read from archive");
      done += static_cast<std::uint64_t>(n);
    }
  }

 private:
  int fd_ = -1;
  std::uint64_t size_ = 0;
};

std::unique_ptr<ArchiveReader::Source> OpenFileSource(const std::string& path,
                                                      FileBacking backing) {
  if (backing == FileBacking::kPread) {
    return std::make_unique<PreadSource>(path);
  }
  if (backing == FileBacking::kMmap) {
    return std::make_unique<MmapSource>(path);
  }
  try {
    return std::make_unique<MmapSource>(path);
  } catch (const ArchiveError&) {
    return std::make_unique<PreadSource>(path);
  }
}

#else  // no POSIX mmap/pread: shared-stream fallback

class FileSource final : public ArchiveReader::Source {
 public:
  explicit FileSource(const std::string& path)
      : stream_(path, std::ios::binary) {
    GLSC_ARCHIVE_CHECK(stream_.good(), ArchiveFault::kIo,
                       "cannot open archive " << path);
    stream_.seekg(0, std::ios::end);
    size_ = static_cast<std::uint64_t>(stream_.tellg());
  }
  std::uint64_t size() const override { return size_; }
  void ReadAt(std::uint64_t offset, std::uint64_t length,
              std::uint8_t* dst) override {
    CheckRange(offset, length);
    // One shared stream: serialize seek+read so concurrent decode workers can
    // fetch payloads without interleaving positions.
    MutexLock lock(mu_);
    stream_.clear();
    stream_.seekg(static_cast<std::streamoff>(offset));
    stream_.read(reinterpret_cast<char*>(dst),
                 static_cast<std::streamsize>(length));
    GLSC_ARCHIVE_CHECK(static_cast<std::uint64_t>(stream_.gcount()) == length,
                       ArchiveFault::kIo, "short read from archive");
  }

 private:
  Mutex mu_{"ArchiveReader.FileSource.mu"};
  // The shared seek position makes the stream the contended state; size_ is
  // written once in the constructor and read-only afterwards.
  std::ifstream stream_ GUARDED_BY(mu_);
  std::uint64_t size_ = 0;
};

std::unique_ptr<ArchiveReader::Source> OpenFileSource(const std::string& path,
                                                      FileBacking backing) {
  GLSC_ARCHIVE_CHECK(backing != FileBacking::kMmap, ArchiveFault::kIo,
                     "mmap backing unavailable on this platform");
  return std::make_unique<FileSource>(path);
}

#endif

// Unpacks V*T (f32 mean, f32 range) pairs, V-major.
std::vector<data::FrameNorm> ParseNorms(const std::vector<std::uint8_t>& raw) {
  ByteReader in(raw);
  std::vector<data::FrameNorm> norms(raw.size() / (2 * sizeof(float)));
  for (auto& n : norms) {
    n.mean = in.GetF32();
    n.range = in.GetF32();
  }
  return norms;
}

// Runs `fn`, re-branding the untyped runtime_errors that ByteReader underruns
// (and DeserializeWindow's checks) raise as ArchiveError(fault), so every
// failure leaving a parse is typed for the serving layers.
template <typename Fn>
void RethrowTyped(ArchiveFault fault, Fn&& fn) {
  try {
    fn();
  } catch (const ArchiveError&) {
    throw;
  } catch (const std::exception& e) {
    throw ArchiveError(fault, e.what());
  }
}

}  // namespace

ArchiveReader::ArchiveReader()
    : fetched_(std::make_unique<std::atomic<std::uint64_t>>(0)),
      decoded_(std::make_unique<std::atomic<std::uint64_t>>(0)) {}

ArchiveReader::~ArchiveReader() = default;
ArchiveReader::ArchiveReader(ArchiveReader&&) noexcept = default;
ArchiveReader& ArchiveReader::operator=(ArchiveReader&&) noexcept = default;

ArchiveReader ArchiveReader::FromFile(const std::string& path,
                                      FileBacking backing) {
  return Open(OpenFileSource(path, backing));
}

ArchiveReader ArchiveReader::FromBytes(std::vector<std::uint8_t> bytes) {
  return Open(std::make_unique<MemorySource>(std::move(bytes)));
}

ArchiveReader ArchiveReader::BorrowBytes(
    const std::vector<std::uint8_t>& bytes) {
  return Open(std::make_unique<MemorySource>(&bytes));
}

ArchiveReader ArchiveReader::Open(std::unique_ptr<Source> source) {
  ArchiveReader reader;
  reader.source_ = std::move(source);
  RethrowTyped(ArchiveFault::kTruncated, [&reader] { reader.ParseSource(); });
  return reader;
}

ArchiveReader ArchiveReader::FromArchive(const DatasetArchive& archive) {
  ArchiveReader reader;
  reader.archive_ = &archive;
  reader.codec_ = archive.codec();
  reader.shape_ = archive.dataset_shape();
  reader.window_ = archive.window();
  reader.records_.reserve(archive.entries().size());
  for (std::size_t i = 0; i < archive.entries().size(); ++i) {
    const ArchiveEntry& entry = archive.entries()[i];
    // offset doubles as the entry index; length is still the payload size.
    reader.records_.push_back({entry.variable, entry.t0, entry.valid_frames,
                               static_cast<std::uint64_t>(i),
                               entry.payload.size(), FilterSpec{},
                               entry.payload.size()});
  }
  reader.BuildVariableIndex();
  return reader;
}

void ArchiveReader::ParseSource() {
  const std::uint64_t size = source_->size();

  // Fixed-layout header prefix: magic, version, codec id (name <= 64 bytes),
  // four u64 dims, u64 window. 128 bytes always covers it.
  const std::vector<std::uint8_t> prefix =
      source_->Read(0, std::min<std::uint64_t>(size, 128));
  ByteReader in(prefix);
  char magic[4];
  in.GetBytes(magic, 4);
  GLSC_ARCHIVE_CHECK(std::equal(magic, magic + 4, kArchiveMagic),
                     ArchiveFault::kNotAnArchive, "not a GLSC archive");
  const std::uint8_t version = in.GetU8();
  GLSC_ARCHIVE_CHECK(version >= 1 && version <= 4,
                     ArchiveFault::kNotAnArchive,
                     "unsupported archive version "
                         << static_cast<int>(version));
  version_ = version;
  if (version >= 2) {
    const std::uint64_t codec_len = in.GetVarU64();
    GLSC_ARCHIVE_CHECK(codec_len <= 64, ArchiveFault::kCorruptRecord,
                       "corrupt archive: codec name length");
    codec_.resize(static_cast<std::size_t>(codec_len));
    in.GetBytes(codec_.data(), codec_len);
  }
  shape_.resize(4);
  for (auto& d : shape_) {
    const std::uint64_t raw = in.GetU64();
    // Per-dimension cap keeps every product below (V*T norms, V*T*H*W decode
    // allocation) overflow-free, so the byte-count guards cannot be wrapped
    // around by giant dimensions.
    GLSC_ARCHIVE_CHECK(raw <= (1ull << 31), ArchiveFault::kCorruptRecord,
                       "corrupt archive: dataset dimension " << raw);
    d = static_cast<std::int64_t>(raw);
  }
  window_ = static_cast<std::int64_t>(in.GetU64());
  GLSC_ARCHIVE_CHECK(window_ > 0, ArchiveFault::kCorruptRecord,
                     "corrupt archive: non-positive window");
  // The decode-time [V, T, H, W] element count must stay representable, so
  // a full decode's allocation (ShapeNumel) cannot overflow.
  const std::uint64_t norm_count = static_cast<std::uint64_t>(shape_[0]) *
                                   static_cast<std::uint64_t>(shape_[1]);
  const std::uint64_t frame_elems = static_cast<std::uint64_t>(shape_[2]) *
                                    static_cast<std::uint64_t>(shape_[3]);
  GLSC_ARCHIVE_CHECK(
      frame_elems == 0 || norm_count <= (1ull << 62) / frame_elems,
      ArchiveFault::kCorruptRecord,
      "corrupt archive: dataset element count overflows");
  records_begin_ = in.pos();

  if (version < 4) {
    // v1-v3 carry the V*T norms inline, right after the header.
    GLSC_ARCHIVE_CHECK(
        norm_count <= (size - records_begin_) / (2 * sizeof(float)),
        ArchiveFault::kTruncated,
        "corrupt archive: " << norm_count << " frame norms in "
                            << size - records_begin_ << " remaining bytes");
    const std::vector<std::uint8_t> norm_bytes =
        source_->Read(records_begin_, norm_count * 2 * sizeof(float));
    norms_ = ParseNorms(norm_bytes);
    records_begin_ += norm_bytes.size();
  }
  if (version >= 3) {
    ParseTail();
  } else {
    ScanRecords();
  }
  BuildVariableIndex();
}

void ArchiveReader::ParseTail() {
  const bool v4 = version_ == 4;
  const std::uint64_t size = source_->size();
  const std::uint64_t footer_bytes = v4 ? kFooterBytesV4 : kFooterBytes;
  GLSC_ARCHIVE_CHECK(size >= records_begin_ + footer_bytes,
                     ArchiveFault::kTruncated,
                     "truncated archive: missing footer");
  const std::vector<std::uint8_t> footer =
      source_->Read(size - footer_bytes, footer_bytes);
  ByteReader footer_in(footer);
  // v4 footer := u64 norms-offset | u64 index-offset | magic; v3 drops the
  // norms offset (its norms are inline and its index follows the records).
  const std::uint64_t norms_offset = v4 ? footer_in.GetU64() : 0;
  const std::uint64_t index_offset = footer_in.GetU64();
  records_end_ = v4 ? norms_offset : index_offset;
  char index_magic[4];
  footer_in.GetBytes(index_magic, 4);
  GLSC_ARCHIVE_CHECK(std::equal(index_magic, index_magic + 4, kIndexMagic),
                     ArchiveFault::kCorruptIndex,
                     "truncated archive: bad index magic");
  GLSC_ARCHIVE_CHECK(records_begin_ <= records_end_ &&
                         records_end_ <= index_offset &&
                         index_offset <= size - footer_bytes,
                     ArchiveFault::kCorruptIndex,
                     "corrupt archive: footer offsets out of order");

  if (v4) {
    // Filtered norms block between the record area and the index.
    const std::vector<std::uint8_t> norms_block =
        source_->Read(norms_offset, index_offset - norms_offset);
    ByteReader nb(norms_block);
    const std::uint8_t norms_filter_byte = nb.GetU8();
    const std::uint8_t norms_backend_byte = nb.GetU8();
    const FilterSpec norms_spec =
        FilterSpec::FromWire(norms_filter_byte, norms_backend_byte);
    const std::uint64_t norms_raw_size = nb.GetVarU64();
    const std::uint64_t norms_stored_size = nb.GetVarU64();
    const std::uint64_t norm_count = static_cast<std::uint64_t>(shape_[0]) *
                                     static_cast<std::uint64_t>(shape_[1]);
    GLSC_ARCHIVE_CHECK(norms_stored_size == nb.remaining(),
                       ArchiveFault::kCorruptIndex,
                       "corrupt archive: norms block stored size "
                           << norms_stored_size << " for " << nb.remaining()
                           << " bytes");
    // Divide rather than multiply: norm_count * 8 can wrap for giant dims.
    GLSC_ARCHIVE_CHECK(norms_raw_size % (2 * sizeof(float)) == 0 &&
                           norms_raw_size / (2 * sizeof(float)) == norm_count,
                       ArchiveFault::kCorruptIndex,
                       "corrupt archive: norms block raw size "
                           << norms_raw_size << " for " << norm_count
                           << " norms");
    ValidateFilteredSizes(norms_spec, norms_stored_size, norms_raw_size);
    std::vector<std::uint8_t> norms_raw(
        static_cast<std::size_t>(norms_raw_size));
    DecodeFiltered(norms_block.data() + nb.pos(), norms_stored_size,
                   norms_spec, norms_raw.data(), norms_raw.size(), nullptr);
    norms_ = ParseNorms(norms_raw);
  }

  const std::vector<std::uint8_t> index_bytes =
      source_->Read(index_offset, size - footer_bytes - index_offset);
  ByteReader index_in(index_bytes);
  const std::uint64_t count = index_in.GetVarU64();
  // Every index entry costs at least one byte per field (five varints, plus
  // two u8s and a third varint in v4), so a hostile count is bounded by the
  // block size — checked before the reserve.
  GLSC_ARCHIVE_CHECK(count <= index_in.remaining() / (v4 ? 8 : 5),
                     ArchiveFault::kCorruptIndex,
                     "corrupt archive index: " << count << " entries in "
                                               << index_in.remaining()
                                               << " bytes");
  records_.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    RecordRef ref;
    ref.variable = static_cast<std::int64_t>(index_in.GetVarU64());
    ref.t0 = static_cast<std::int64_t>(index_in.GetVarU64());
    ref.valid_frames = static_cast<std::int64_t>(index_in.GetVarU64());
    if (v4) {
      const std::uint8_t filter_byte = index_in.GetU8();
      const std::uint8_t backend_byte = index_in.GetU8();
      ref.filter = FilterSpec::FromWire(filter_byte, backend_byte);
      ref.raw_size = index_in.GetVarU64();
    }
    ref.offset = index_in.GetVarU64();
    ref.length = index_in.GetVarU64();
    CheckPlacement(ref, ArchiveFault::kCorruptIndex);
    if (v4) {
      ValidateFilteredSizes(ref.filter, ref.length, ref.raw_size);
    } else {
      ref.raw_size = ref.length;  // v3 records are stored raw
    }
    GLSC_ARCHIVE_CHECK(ref.offset >= records_begin_ &&
                           ref.length <= records_end_ - records_begin_ &&
                           ref.offset <= records_end_ - ref.length,
                       ArchiveFault::kCorruptIndex,
                       "corrupt archive index: payload span ["
                           << ref.offset << ", +" << ref.length << ")");
    records_.push_back(ref);
  }
  GLSC_ARCHIVE_CHECK(index_in.AtEnd(), ArchiveFault::kCorruptIndex,
                     "corrupt archive index: trailing bytes");
}

void ArchiveReader::ScanRecords() {
  records_end_ = source_->size();
  const std::vector<std::uint8_t> tail =
      source_->Read(records_begin_, records_end_ - records_begin_);
  ByteReader tail_in(tail);
  const std::uint64_t count = tail_in.GetVarU64();
  GLSC_ARCHIVE_CHECK(count <= tail_in.remaining(),
                     ArchiveFault::kCorruptRecord,
                     "corrupt archive: " << count << " records in "
                                         << tail_in.remaining()
                                         << " remaining bytes");
  records_.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    RecordRef ref;
    ref.variable = static_cast<std::int64_t>(tail_in.GetVarU64());
    ref.t0 = static_cast<std::int64_t>(tail_in.GetVarU64());
    if (version_ == 2) {
      ref.valid_frames = static_cast<std::int64_t>(tail_in.GetVarU64());
      ref.length = tail_in.GetVarU64();
      GLSC_ARCHIVE_CHECK(ref.length <= tail_in.remaining(),
                         ArchiveFault::kCorruptRecord,
                         "corrupt record: payload length " << ref.length);
      ref.offset = records_begin_ + tail_in.pos();
      tail_in.Skip(static_cast<std::size_t>(ref.length));
    } else {
      // v1: the record body IS the "glsc" payload, bit for bit. Parse it to
      // find its extent (and the true frame count from the window shape).
      const std::uint64_t body_start = tail_in.pos();
      const CompressedWindow window = DeserializeWindow(&tail_in);
      ref.valid_frames =
          window.window_shape.empty() ? window_ : window.window_shape[0];
      ref.offset = records_begin_ + body_start;
      ref.length = tail_in.pos() - body_start;
    }
    ref.raw_size = ref.length;  // v1/v2 records are stored raw
    CheckPlacement(ref, ArchiveFault::kCorruptRecord);
    records_.push_back(ref);
  }
}

void ArchiveReader::CheckPlacement(const RecordRef& ref,
                                   ArchiveFault fault) const {
  GLSC_ARCHIVE_CHECK(ref.variable >= 0 && ref.variable < shape_[0] &&
                         ref.t0 >= 0 && ref.t0 < shape_[1],
                     fault, "corrupt archive: record outside dataset bounds");
  GLSC_ARCHIVE_CHECK(ref.valid_frames > 0 && ref.valid_frames <= window_,
                     fault,
                     "corrupt archive: record valid_frames "
                         << ref.valid_frames);
}

void ArchiveReader::VerifyRecordArea() const {
  if (source_ == nullptr || version_ < 3) return;
  // Longest record header: five varints (<= 10 bytes each) + two filter
  // bytes (v4); v3 headers are four varints.
  constexpr std::uint64_t kMaxRecordHeader = 5 * 10 + 2;
  RethrowTyped(ArchiveFault::kCorruptRecord, [this] {
    std::uint64_t pos = records_begin_;
    if (version_ == 3) {
      // v3 leads with a record count, which must match the index.
      const std::vector<std::uint8_t> head =
          source_->Read(pos, std::min<std::uint64_t>(10, records_end_ - pos));
      ByteReader in(head);
      const std::uint64_t count = in.GetVarU64();
      GLSC_ARCHIVE_CHECK(count == records_.size(),
                         ArchiveFault::kCorruptRecord,
                         "corrupt archive index: " << records_.size()
                                                   << " index entries for "
                                                   << count << " records");
      pos += in.pos();
    }
    for (std::size_t i = 0; i < records_.size(); ++i) {
      // Record i's header fills [pos, offset) exactly: records tile the area
      // in index order, and the header mirrors the index entry.
      const RecordRef& ref = records_[i];
      GLSC_ARCHIVE_CHECK(
          ref.offset >= pos && ref.offset - pos <= kMaxRecordHeader,
          ArchiveFault::kCorruptRecord,
          "corrupt archive index: entry " << i << " payload offset");
      const std::vector<std::uint8_t> head =
          source_->Read(pos, ref.offset - pos);
      ByteReader in(head);
      bool ok = in.GetVarU64() == static_cast<std::uint64_t>(ref.variable) &&
                in.GetVarU64() == static_cast<std::uint64_t>(ref.t0) &&
                in.GetVarU64() == static_cast<std::uint64_t>(ref.valid_frames);
      if (ok && version_ == 4) {
        ok = in.GetU8() == ref.filter.WireFilter() &&
             in.GetU8() == ref.filter.WireBackend() &&
             in.GetVarU64() == ref.raw_size;
      }
      ok = ok && in.GetVarU64() == ref.length && in.AtEnd();
      GLSC_ARCHIVE_CHECK(ok, ArchiveFault::kCorruptRecord,
                         "corrupt archive index: entry "
                             << i << " disagrees with its record");
      pos = ref.offset + ref.length;
    }
    GLSC_ARCHIVE_CHECK(pos == records_end_, ArchiveFault::kCorruptRecord,
                       "corrupt archive: record area not covered by index");
  });
}

void ArchiveReader::BuildVariableIndex() {
  sorted_.resize(records_.size());
  std::iota(sorted_.begin(), sorted_.end(), std::size_t{0});
  std::stable_sort(sorted_.begin(), sorted_.end(),
                   [this](std::size_t a, std::size_t b) {
                     return std::tie(records_[a].variable, records_[a].t0) <
                            std::tie(records_[b].variable, records_[b].t0);
                   });
}

const data::FrameNorm& ArchiveReader::norm(std::int64_t variable,
                                           std::int64_t t) const {
  if (archive_ != nullptr) return archive_->norm(variable, t);
  GLSC_CHECK(variable >= 0 && variable < shape_[0] && t >= 0 && t < shape_[1]);
  return norms_[static_cast<std::size_t>(variable * shape_[1] + t)];
}

const std::vector<std::uint8_t>& ArchiveReader::Payload(
    std::size_t record, std::vector<std::uint8_t>* scratch,
    tensor::Workspace* ws) const {
  GLSC_CHECK_MSG(record < records_.size(), "record index out of range");
  const RecordRef& ref = records_[record];
  if (archive_ != nullptr) {
    return archive_->entries()[static_cast<std::size_t>(ref.offset)].payload;
  }
  fetched_->fetch_add(ref.length, std::memory_order_relaxed);
  if (ref.filter.IsRaw()) {
    // v1-v3 and honestly-raw v4 records: the stored bytes ARE the payload.
    scratch->resize(static_cast<std::size_t>(ref.length));
    source_->ReadAt(ref.offset, ref.length, scratch->data());
    decoded_->fetch_add(ref.length, std::memory_order_relaxed);
    return *scratch;
  }
  // Filtered record: fetch the stored bytes into workspace scratch (heap when
  // no workspace is wired through) and invert the declared chain. The sizes
  // were validated against the spec at parse time.
  scratch->resize(static_cast<std::size_t>(ref.raw_size));
  if (ws != nullptr) {
    tensor::Workspace::Scope scope(ws);
    auto* stored = reinterpret_cast<std::uint8_t*>(
        ws->Allocate(static_cast<std::int64_t>((ref.length + 3) / 4)));
    source_->ReadAt(ref.offset, ref.length, stored);
    DecodeFiltered(stored, static_cast<std::size_t>(ref.length), ref.filter,
                   scratch->data(), scratch->size(), ws);
  } else {
    const std::vector<std::uint8_t> stored =
        source_->Read(ref.offset, ref.length);
    DecodeFiltered(stored.data(), stored.size(), ref.filter, scratch->data(),
                   scratch->size(), nullptr);
  }
  decoded_->fetch_add(ref.raw_size, std::memory_order_relaxed);
  return *scratch;
}

std::vector<std::size_t> ArchiveReader::RecordsFor(std::int64_t variable,
                                                   std::int64_t t_begin,
                                                   std::int64_t t_end) const {
  GLSC_CHECK_MSG(variable >= 0 && variable < shape_[0],
                 "variable " << variable << " outside [0, " << shape_[0]
                             << ")");
  GLSC_CHECK_MSG(t_begin >= 0 && t_begin < t_end && t_end <= shape_[1],
                 "frame range [" << t_begin << ", " << t_end
                                 << ") outside [0, " << shape_[1] << ")");
  std::vector<std::size_t> out;
  auto it = std::lower_bound(sorted_.begin(), sorted_.end(), variable,
                             [this](std::size_t i, std::int64_t v) {
                               return records_[i].variable < v;
                             });
  for (; it != sorted_.end(); ++it) {
    const RecordRef& ref = records_[*it];
    // Sorted by (variable, t0): nothing later can overlap.
    if (ref.variable != variable || ref.t0 >= t_end) break;
    if (ref.t0 + ref.valid_frames > t_begin) out.push_back(*it);
  }
  return out;
}

std::uint64_t ArchiveReader::payload_bytes_fetched() const {
  return fetched_->load(std::memory_order_relaxed);
}

std::uint64_t ArchiveReader::decoded_payload_bytes() const {
  return decoded_->load(std::memory_order_relaxed);
}

std::uint64_t ArchiveReader::archive_bytes() const {
  return source_ ? source_->size() : 0;
}

}  // namespace glsc::core
