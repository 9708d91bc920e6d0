// Canonical Huffman coding of signed integer symbol streams. This is the
// entropy backend of the SZ-like rule-based baseline (quantization codes are
// heavily skewed toward zero, which Huffman exploits well at much higher
// speed than arithmetic coding); the ZFP-like baseline and the residual PCA
// use it too.
//
// Stream layout: symbol count, then the code table (alphabet size, then per
// symbol its value as a zig-zag varint and its code length as one byte),
// then the payload size and the MSB-first bit-packed payload. Symbols unseen
// at table-build time cannot occur (the table is built from the exact stream
// being coded).
//
// Decoding goes through HuffmanReader, which reads the payload in place:
// an 11-bit lookup table resolves every code up to that length in one step,
// and only longer codes take the canonical per-length search. Callers that
// consume symbols as they arrive (the SZ-like decoder pulls one per lattice
// point) never build a symbol array; HuffmanDecode is the loop over Next()
// for callers that want one.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace glsc::tensor {
class Workspace;
}  // namespace glsc::tensor

namespace glsc::codec {

std::vector<std::uint8_t> HuffmanEncode(const std::vector<std::int32_t>& symbols);
// Every symbol of the stream, in order. Throws like HuffmanReader.
std::vector<std::int32_t> HuffmanDecode(const std::vector<std::uint8_t>& bytes);

class HuffmanReader {
 public:
  // Parses and validates the stream's count and code table, then reads the
  // payload in place: `data` is borrowed and must outlive the reader. Throws
  // std::runtime_error, before allocating anything, on a table no encoder
  // writes — a code length outside 1-32, an over-subscribed code (Kraft sum
  // above 1), an alphabet larger than the count — and on a count the payload
  // cannot hold (every symbol costs at least one bit). A non-null `ws`
  // holds the alphabet in the caller's arena, whose enclosing Scope must
  // outlive the reader; otherwise it lives on the heap.
  HuffmanReader(const std::uint8_t* data, std::size_t size,
                tensor::Workspace* ws = nullptr);

  HuffmanReader(const HuffmanReader&) = delete;
  HuffmanReader& operator=(const HuffmanReader&) = delete;

  // Symbols in the stream; Next() may be called this many times.
  std::uint64_t count() const { return count_; }

  // The next symbol. Reads past the payload's end see zero bits, as the
  // encoder's padding does. Throws on a bit pattern no code maps to.
  std::int32_t Next() {
    if (nbits_ < kMaxCodeBits) Refill();
    const Entry entry = table_[bits_ >> (64 - kTableBits)];
    if (entry.length == 0) return NextLong();
    bits_ <<= entry.length;
    nbits_ -= entry.length;
    return entry.symbol;
  }

 private:
  static constexpr int kTableBits = 11;
  static constexpr int kMaxCodeBits = 32;

  // A code of `length` <= kTableBits bits decodes to `symbol`; length 0
  // marks a prefix that only longer codes (or no code) continue.
  struct Entry {
    std::int32_t symbol = 0;
    std::int32_t length = 0;
  };

  // Tops the bit buffer up to at least 56 valid bits.
  void Refill();
  // Canonical per-length search for codes longer than kTableBits.
  std::int32_t NextLong();

  std::uint64_t count_ = 0;
  int max_len_ = 0;
  // Canonical code of length L: first_code_[L] + k for k < count_at_[L], the
  // symbol at sorted_[first_index_[L] + k].
  std::array<std::uint64_t, kMaxCodeBits + 1> first_code_{};
  std::array<std::uint64_t, kMaxCodeBits + 1> first_index_{};
  std::array<std::uint64_t, kMaxCodeBits + 1> count_at_{};
  const std::int32_t* sorted_ = nullptr;  // alphabet in canonical order
  std::vector<std::int32_t> heap_sorted_;  // backs sorted_ without a ws
  std::array<Entry, std::size_t{1} << kTableBits> table_{};

  const std::uint8_t* payload_ = nullptr;
  std::size_t payload_size_ = 0;
  std::size_t pos_ = 0;     // next payload byte to load
  std::uint64_t bits_ = 0;  // MSB-aligned bit buffer
  int nbits_ = 0;           // valid bits at the top of bits_
};

// Shannon entropy of the symbol stream in bits (lower bound for the payload).
double SymbolEntropyBits(const std::vector<std::int32_t>& symbols);

}  // namespace glsc::codec
