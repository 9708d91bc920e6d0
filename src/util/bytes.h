// Byte-level serialization primitives. Every compressed artifact in this
// repository (latent bitstreams, PCA corrections, model checkpoints) is built
// from these little-endian writers/readers so that compressed sizes reported
// by benchmarks are real byte counts, not estimates.
#pragma once

#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <string>
#include <vector>

#include "util/check.h"

namespace glsc {

class ByteWriter {
 public:
  void PutU8(std::uint8_t v) { buf_.push_back(v); }

  void PutU32(std::uint32_t v) { PutLE(v); }
  void PutU64(std::uint64_t v) { PutLE(v); }

  void PutF32(float v) {
    std::uint32_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    PutLE(bits);
  }

  void PutF64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    PutLE(bits);
  }

  // LEB128 variable-length unsigned integer; compact for small counts.
  void PutVarU64(std::uint64_t v) {
    while (v >= 0x80) {
      buf_.push_back(static_cast<std::uint8_t>(v) | 0x80);
      v >>= 7;
    }
    buf_.push_back(static_cast<std::uint8_t>(v));
  }

  // Zig-zag signed varint.
  void PutVarI64(std::int64_t v) {
    PutVarU64((static_cast<std::uint64_t>(v) << 1) ^
              static_cast<std::uint64_t>(v >> 63));
  }

  void PutBytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + n);
  }

  void PutString(const std::string& s) {
    PutVarU64(s.size());
    PutBytes(s.data(), s.size());
  }

  std::size_t size() const { return buf_.size(); }
  const std::vector<std::uint8_t>& bytes() const { return buf_; }
  std::vector<std::uint8_t> Release() { return std::move(buf_); }

 private:
  template <typename T>
  void PutLE(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }

  std::vector<std::uint8_t> buf_;
};

class ByteReader {
 public:
  ByteReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit ByteReader(const std::vector<std::uint8_t>& buf)
      : ByteReader(buf.data(), buf.size()) {}

  std::uint8_t GetU8() {
    GLSC_CHECK_MSG(pos_ < size_, "bitstream underrun");
    return data_[pos_++];
  }

  std::uint32_t GetU32() { return GetLE<std::uint32_t>(); }
  std::uint64_t GetU64() { return GetLE<std::uint64_t>(); }

  float GetF32() {
    const std::uint32_t bits = GetU32();
    float v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }

  double GetF64() {
    const std::uint64_t bits = GetU64();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }

  std::uint64_t GetVarU64() {
    std::uint64_t v = 0;
    int shift = 0;
    while (true) {
      const std::uint8_t b = GetU8();
      v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
      if ((b & 0x80) == 0) break;
      shift += 7;
      GLSC_CHECK_MSG(shift < 64, "varint overlong");
    }
    return v;
  }

  std::int64_t GetVarI64() {
    const std::uint64_t u = GetVarU64();
    return static_cast<std::int64_t>((u >> 1) ^ (~(u & 1) + 1));
  }

  void GetBytes(void* out, std::size_t n) {
    GLSC_CHECK_MSG(pos_ + n <= size_, "bitstream underrun");
    // `out` may be null for n == 0 (data() of an empty vector), and memcpy
    // with a null pointer is undefined even for zero bytes.
    if (n == 0) return;
    std::memcpy(out, data_ + pos_, n);
    pos_ += n;
  }

  // Advances past n bytes without copying them (index scans over payloads).
  void Skip(std::size_t n) {
    GLSC_CHECK_MSG(pos_ + n <= size_, "bitstream underrun");
    pos_ += n;
  }

  std::string GetString() {
    const std::size_t n = GetVarU64();
    std::string s(n, '\0');
    GetBytes(s.data(), n);
    return s;
  }

  std::size_t pos() const { return pos_; }
  std::size_t remaining() const { return size_ - pos_; }
  bool AtEnd() const { return pos_ == size_; }

 private:
  template <typename T>
  T GetLE() {
    GLSC_CHECK_MSG(pos_ + sizeof(T) <= size_, "bitstream underrun");
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += sizeof(T);
    return v;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

// Serializes a tensor-shape dimension list (varint rank + dims). The reader
// is hardened for untrusted input: serialized shapes describe window/latent
// geometry, so rank is capped at 4, each dim at 2^15, and the total element
// count at 2^28 — a hostile stream can neither overflow ShapeNumel nor force
// an absurd allocation downstream, it throws std::runtime_error instead.
void PutDims(const std::vector<std::int64_t>& dims, ByteWriter* out);
std::vector<std::int64_t> GetDimsChecked(ByteReader* in);

// Reads a varint byte count that must fit in what is left of the stream —
// the guard that keeps truncated/hostile streams from OOMing via a huge
// resize before the actual read fails. The error names `what` and the
// remaining byte count.
std::uint64_t GetCheckedLength(ByteReader* in, const char* what);

// True when every dim is at most 2^31 and the dims multiply to exactly
// `count`, checked without overflow. Decoders whose payload declares its
// geometry next to a validated element count (the rule-based baselines'
// [T, H, W] over their Huffman code count) call this before sizing
// anything by the dims, so a hostile header can neither wrap around to a
// plausible count nor size an allocation the stream does not back.
bool DimsMatchCount(std::initializer_list<std::uint64_t> dims,
                    std::uint64_t count);

// Whole-file helpers for the model artifact cache.
bool ReadFileBytes(const std::string& path, std::vector<std::uint8_t>* out);
void WriteFileBytes(const std::string& path,
                    const std::vector<std::uint8_t>& bytes);
bool FileExists(const std::string& path);

}  // namespace glsc
