// MSB-first bit-level I/O. BitWriter packs the Huffman encoder's codes;
// decoding reads whole words through codec::HuffmanReader instead, so
// BitReader (one bit per call) serves as the plain reference that reader is
// tested against. The ZFP-like codec entropy-codes through Huffman and uses
// neither directly.
#pragma once

#include <cstdint>
#include <vector>

#include "util/check.h"

namespace glsc::codec {

class BitWriter {
 public:
  void PutBit(bool bit) {
    acc_ = (acc_ << 1) | static_cast<std::uint8_t>(bit);
    if (++nbits_ == 8) {
      buf_.push_back(acc_);
      acc_ = 0;
      nbits_ = 0;
    }
  }

  // Writes the low `count` bits of `value`, most significant first.
  void PutBits(std::uint64_t value, int count) {
    GLSC_DCHECK(count >= 0 && count <= 64);
    for (int i = count - 1; i >= 0; --i) PutBit((value >> i) & 1);
  }

  // Pads the final partial byte with zeros and returns the stream.
  std::vector<std::uint8_t> Finish() {
    if (nbits_ > 0) {
      buf_.push_back(static_cast<std::uint8_t>(acc_ << (8 - nbits_)));
      acc_ = 0;
      nbits_ = 0;
    }
    return std::move(buf_);
  }

 private:
  std::vector<std::uint8_t> buf_;
  std::uint8_t acc_ = 0;
  int nbits_ = 0;
};

class BitReader {
 public:
  BitReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  bool GetBit() {
    const std::size_t byte = pos_ >> 3;
    // Reads past the end yield zero bits; writers pad with zeros so decoders
    // that know their symbol count never misparse.
    const bool bit =
        byte < size_ && ((data_[byte] >> (7 - (pos_ & 7))) & 1) != 0;
    ++pos_;
    return bit;
  }

  std::uint64_t GetBits(int count) {
    std::uint64_t v = 0;
    for (int i = 0; i < count; ++i) v = (v << 1) | GetBit();
    return v;
  }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

}  // namespace glsc::codec
