#include "core/container.h"

#include <filesystem>
#include <fstream>

#include "core/archive_reader.h"
#include "util/check.h"

namespace glsc::core {
namespace {

constexpr char kMagic[4] = {'G', 'L', 'S', 'C'};
constexpr char kIndexMagic[4] = {'G', 'I', 'D', 'X'};
constexpr std::uint8_t kVersion = 4;          // filtered records, appendable

// ---- v4 write path --------------------------------------------------------

std::vector<std::uint8_t> NormsRawBytes(
    const std::vector<data::FrameNorm>& norms) {
  ByteWriter w;
  for (const auto& n : norms) {
    w.PutF32(n.mean);
    w.PutF32(n.range);
  }
  return w.Release();
}

FilteredBlock EncodeBlock(const std::uint8_t* data, std::size_t n,
                          std::int64_t elem_hint,
                          const std::optional<FilterSpec>& forced) {
  if (forced.has_value()) {
    return {*forced, EncodeFiltered(data, n, *forced)};
  }
  return EncodeWithSelection(data, n, elem_hint);
}

// Filters one entry's payload and appends its on-disk record form. `base` is
// the absolute file offset at which `out`'s bytes will land (0 for one-shot
// serialization, the old norms-offset for AppendToFile); `t0_shift` relocates
// appended records onto the combined time axis.
RecordRef PutV4Record(ByteWriter* out, std::uint64_t base,
                      const ArchiveEntry& entry,
                      const std::optional<FilterSpec>& forced,
                      std::int64_t t0_shift) {
  const FilteredBlock block =
      EncodeBlock(entry.payload.data(), entry.payload.size(), 1, forced);
  RecordRef r;
  r.variable = entry.variable;
  r.t0 = entry.t0 + t0_shift;
  r.valid_frames = entry.valid_frames;
  r.filter = block.spec;
  r.raw_size = entry.payload.size();
  r.length = block.stored.size();
  out->PutVarU64(static_cast<std::uint64_t>(r.variable));
  out->PutVarU64(static_cast<std::uint64_t>(r.t0));
  out->PutVarU64(static_cast<std::uint64_t>(r.valid_frames));
  out->PutU8(r.filter.WireFilter());
  out->PutU8(r.filter.WireBackend());
  out->PutVarU64(r.raw_size);
  out->PutVarU64(r.length);
  r.offset = base + out->size();
  out->PutBytes(block.stored.data(), block.stored.size());
  return r;
}

// Writes the v4 tail shared by Serialize and AppendToFile: the filtered norms
// block, the index over `records`, and the fixed 20-byte footer.
void PutV4Tail(ByteWriter* out, std::uint64_t base,
               const std::vector<RecordRef>& records,
               const std::vector<data::FrameNorm>& norms,
               const std::optional<FilterSpec>& forced) {
  const std::uint64_t norms_offset = base + out->size();
  const std::vector<std::uint8_t> norms_raw = NormsRawBytes(norms);
  const FilteredBlock norms_block = EncodeBlock(
      norms_raw.data(), norms_raw.size(), sizeof(float), forced);
  out->PutU8(norms_block.spec.WireFilter());
  out->PutU8(norms_block.spec.WireBackend());
  out->PutVarU64(norms_raw.size());
  out->PutVarU64(norms_block.stored.size());
  out->PutBytes(norms_block.stored.data(), norms_block.stored.size());

  const std::uint64_t index_offset = base + out->size();
  out->PutVarU64(records.size());
  for (const auto& r : records) {
    out->PutVarU64(static_cast<std::uint64_t>(r.variable));
    out->PutVarU64(static_cast<std::uint64_t>(r.t0));
    out->PutVarU64(static_cast<std::uint64_t>(r.valid_frames));
    out->PutU8(r.filter.WireFilter());
    out->PutU8(r.filter.WireBackend());
    out->PutVarU64(r.raw_size);
    out->PutVarU64(r.offset);
    out->PutVarU64(r.length);
  }
  out->PutU64(norms_offset);
  out->PutU64(index_offset);
  out->PutBytes(kIndexMagic, sizeof kIndexMagic);
}

}  // namespace

void SerializeWindow(const CompressedWindow& window, ByteWriter* out) {
  compress::PutVaeBitstream(window.keyframes, out);
  PutDims(window.window_shape, out);
  out->PutU32(window.sample_seed);
  out->PutVarU64(window.corrections.size());
  for (const auto& c : window.corrections) {
    out->PutVarU64(c.size());
    out->PutBytes(c.data(), c.size());
  }
}

CompressedWindow DeserializeWindow(ByteReader* in) {
  CompressedWindow window;
  window.keyframes = compress::GetVaeBitstream(in);
  window.window_shape = GetDimsChecked(in);
  window.sample_seed = in->GetU32();
  // Every correction costs at least its own length varint, so the count can
  // never legitimately exceed the remaining byte count.
  const std::uint64_t corrections = in->GetVarU64();
  GLSC_CHECK_MSG(corrections <= in->remaining(),
                 "corrupt record: " << corrections << " corrections in "
                                    << in->remaining() << " remaining bytes");
  window.corrections.resize(corrections);
  for (auto& c : window.corrections) {
    c.resize(GetCheckedLength(in, "correction"));
    in->GetBytes(c.data(), c.size());
  }
  return window;
}

void DatasetArchive::Add(std::int64_t variable, std::int64_t t0,
                         std::int64_t valid_frames,
                         std::vector<std::uint8_t> payload) {
  GLSC_CHECK_MSG(valid_frames > 0 && valid_frames <= window_,
                 "valid_frames " << valid_frames << " outside (0, " << window_
                                 << "]");
  GLSC_CHECK_MSG(dataset_shape_.size() == 4 && variable >= 0 &&
                     variable < dataset_shape_[0] && t0 >= 0 &&
                     t0 < dataset_shape_[1] &&
                     valid_frames <= dataset_shape_[1] - t0,
                 "record (variable " << variable << ", t0 " << t0
                                     << ", valid_frames " << valid_frames
                                     << ") outside the dataset");
  entries_.push_back({variable, t0, valid_frames, std::move(payload)});
}

const data::FrameNorm& DatasetArchive::norm(std::int64_t variable,
                                            std::int64_t t) const {
  const std::int64_t frames = dataset_shape_[1];
  GLSC_CHECK(variable >= 0 && variable < dataset_shape_[0] && t >= 0 &&
             t < frames);
  return norms_[static_cast<std::size_t>(variable * frames + t)];
}

std::vector<std::uint8_t> DatasetArchive::Serialize(
    const ArchiveWriteOptions& options) const {
  ByteWriter out;
  out.PutBytes(kMagic, sizeof kMagic);
  out.PutU8(kVersion);
  out.PutString(codec_);
  GLSC_CHECK(dataset_shape_.size() == 4);
  for (const auto d : dataset_shape_) {
    out.PutU64(static_cast<std::uint64_t>(d));
  }
  out.PutU64(static_cast<std::uint64_t>(window_));
  GLSC_CHECK(static_cast<std::int64_t>(norms_.size()) ==
             dataset_shape_[0] * dataset_shape_[1]);
  std::vector<RecordRef> records;
  records.reserve(entries_.size());
  for (const auto& entry : entries_) {
    records.push_back(PutV4Record(&out, 0, entry, options.forced_filter, 0));
  }
  PutV4Tail(&out, 0, records, norms_, options.forced_filter);
  return out.Release();
}

void DatasetArchive::WriteFile(const std::string& path) const {
  WriteFileBytes(path, Serialize());
}

void DatasetArchive::AppendToFile(const std::string& path,
                                  const DatasetArchive& more,
                                  const ArchiveWriteOptions& options) {
  GLSC_CHECK(more.dataset_shape_.size() == 4);
  if (!FileExists(path)) {
    WriteFileBytes(path, more.Serialize(options));
    return;
  }
  const std::int64_t vars = more.dataset_shape_[0];
  const std::int64_t more_t = more.dataset_shape_[1];
  GLSC_CHECK(more_t >= 0 &&
             static_cast<std::int64_t>(more.norms_.size()) == vars * more_t);

  // The reader validates the existing archive and reads only its header,
  // norms and index; old record bytes are reused verbatim — never read,
  // decoded or rewritten. It is dropped before the first write, so no file
  // handle or mapping outlives the rewrite or truncate below.
  std::vector<RecordRef> records;
  std::vector<data::FrameNorm> norms;
  std::int64_t new_t = 0;
  std::uint64_t tail_offset = 0;  // the old norms-offset: the rewrite starts
  std::uint64_t frames_field = 0;  // byte offset of the header's u64 T
  std::uint64_t old_size = 0;
  {
    const ArchiveReader old =
        ArchiveReader::FromFile(path, FileBacking::kPread);
    GLSC_CHECK_MSG(old.version() == kVersion,
                   "cannot append in place to a v"
                       << old.version()
                       << " archive; it must first be rewritten as v4");
    GLSC_CHECK_MSG(old.codec() == more.codec_,
                   "append codec mismatch: archive holds "
                       << old.codec() << ", appending " << more.codec_);
    const Shape& dims = old.dataset_shape();
    GLSC_CHECK_MSG(dims[0] == vars && dims[2] == more.dataset_shape_[2] &&
                       dims[3] == more.dataset_shape_[3],
                   "append dataset shape mismatch");
    GLSC_CHECK_MSG(old.window() == more.window_, "append window mismatch");
    const std::int64_t base_t = dims[1];
    new_t = base_t + more_t;
    records = old.records();
    // Merged norms, V-major over the combined time axis — exactly the order
    // a one-shot serialization of the combined record set would encode.
    norms.resize(static_cast<std::size_t>(vars * new_t));
    for (std::int64_t v = 0; v < vars; ++v) {
      for (std::int64_t t = 0; t < base_t; ++t) {
        norms[static_cast<std::size_t>(v * new_t + t)] = old.norm(v, t);
      }
      for (std::int64_t t = 0; t < more_t; ++t) {
        norms[static_cast<std::size_t>(v * new_t + base_t + t)] =
            more.norms_[static_cast<std::size_t>(v * more_t + t)];
      }
    }
    tail_offset = old.records_end();
    // The v4 header ends u64 T | u64 H | u64 W | u64 window.
    frames_field = old.records_begin() - 4 * sizeof(std::uint64_t);
    old_size = old.archive_bytes();
  }

  // New records land where the old norms block started, shifted onto the
  // combined time axis.
  ByteWriter tail;
  for (const auto& entry : more.entries_) {
    records.push_back(PutV4Record(&tail, tail_offset, entry,
                                  options.forced_filter, new_t - more_t));
  }
  PutV4Tail(&tail, tail_offset, records, norms, options.forced_filter);
  ByteWriter frames;
  frames.PutU64(static_cast<std::uint64_t>(new_t));

  // Splice: overwrite from the old norms offset, patch the header's u64 T in
  // place, and truncate if the rewritten tail came out shorter (possible when
  // the merged norms block compresses better than the old one).
  const std::uint64_t new_size = tail_offset + tail.size();
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    GLSC_CHECK_MSG(f.good(), "cannot open " << path << " for append");
    f.seekp(static_cast<std::streamoff>(tail_offset));
    f.write(reinterpret_cast<const char*>(tail.bytes().data()),
            static_cast<std::streamsize>(tail.size()));
    f.seekp(static_cast<std::streamoff>(frames_field));
    f.write(reinterpret_cast<const char*>(frames.bytes().data()),
            static_cast<std::streamsize>(frames.size()));
    f.flush();
    GLSC_CHECK_MSG(f.good(), "append write to " << path << " failed");
  }
  if (new_size < old_size) {
    std::error_code ec;
    std::filesystem::resize_file(path, new_size, ec);
    GLSC_CHECK_MSG(!ec, "cannot truncate " << path << " after append");
  }
}

}  // namespace glsc::core
