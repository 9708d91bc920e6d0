#include "util/bytes.h"

#include <cstdio>
#include <filesystem>
#include <fstream>

namespace glsc {

void PutDims(const std::vector<std::int64_t>& dims, ByteWriter* out) {
  out->PutVarU64(dims.size());
  for (const auto d : dims) out->PutVarU64(static_cast<std::uint64_t>(d));
}

std::vector<std::int64_t> GetDimsChecked(ByteReader* in) {
  const std::uint64_t rank = in->GetVarU64();
  GLSC_CHECK_MSG(rank <= 4, "corrupt stream: shape rank " << rank);
  std::vector<std::int64_t> dims(rank);
  std::uint64_t numel = 1;
  for (auto& d : dims) {
    const std::uint64_t raw = in->GetVarU64();
    GLSC_CHECK_MSG(raw <= (1ull << 15), "corrupt stream: dimension " << raw);
    numel *= raw;  // <= 2^60, cannot wrap
    d = static_cast<std::int64_t>(raw);
  }
  GLSC_CHECK_MSG(numel <= (1ull << 28),
                 "corrupt stream: shape with " << numel << " elements");
  return dims;
}

std::uint64_t GetCheckedLength(ByteReader* in, const char* what) {
  const std::uint64_t n = in->GetVarU64();
  GLSC_CHECK_MSG(n <= in->remaining(), "corrupt record: " << what << " length "
                                                          << n << " exceeds "
                                                          << in->remaining()
                                                          << " remaining bytes");
  return n;
}

bool DimsMatchCount(std::initializer_list<std::uint64_t> dims,
                    std::uint64_t count) {
  std::uint64_t product = 1;
  for (const std::uint64_t d : dims) {
    if (d > (std::uint64_t{1} << 31)) return false;
    if (__builtin_mul_overflow(product, d, &product)) return false;
  }
  return product == count;
}

bool ReadFileBytes(const std::string& path, std::vector<std::uint8_t>* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  in.seekg(0, std::ios::end);
  const auto size = static_cast<std::size_t>(in.tellg());
  in.seekg(0, std::ios::beg);
  out->resize(size);
  in.read(reinterpret_cast<char*>(out->data()),
          static_cast<std::streamsize>(size));
  return static_cast<bool>(in);
}

void WriteFileBytes(const std::string& path,
                    const std::vector<std::uint8_t>& bytes) {
  const auto parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  GLSC_CHECK_MSG(static_cast<bool>(out), "cannot open " << path);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  GLSC_CHECK_MSG(static_cast<bool>(out), "short write to " << path);
}

bool FileExists(const std::string& path) {
  return std::filesystem::exists(path);
}

}  // namespace glsc
