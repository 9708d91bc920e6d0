// Carry-free 32-bit range coder (Subbotin variant). This is the arithmetic
// coding backend for every learned compressor in the repository: symbols are
// coded against cumulative-frequency models whose total must stay below
// kMaxTotal (16-bit headroom guarantees the renormalization invariant).
#pragma once

#include <cstdint>
#include <vector>

namespace glsc::codec {

class RangeEncoder {
 public:
  static constexpr std::uint32_t kMaxTotal = 1u << 16;

  // Encodes a symbol occupying [cum, cum+freq) out of [0, total).
  // Requires 0 < freq, cum + freq <= total, total < kMaxTotal.
  void Encode(std::uint32_t cum, std::uint32_t freq, std::uint32_t total);

  // Bulk path: encodes n symbols drawn from ONE frequency table, where
  // symbol s occupies [cum[s], cum[s] + freq[s]). Byte-identical to calling
  // Encode(cum[syms[i]], freq[syms[i]], total) in a loop; the point is to
  // hoist the per-symbol table indirection out of callers' hot loops.
  void EncodeSpan(const std::uint32_t* cum, const std::uint32_t* freq,
                  std::uint32_t total, const std::int32_t* syms,
                  std::size_t n);

  // Pre-sizes the output buffer from a caller-supplied byte estimate so
  // large tensors do not pay realloc churn while coding.
  void Reserve(std::size_t bytes) { out_.reserve(out_.size() + bytes); }

  // Flushes the remaining state; the encoder must not be reused afterwards.
  std::vector<std::uint8_t> Finish();

 private:
  void Normalize();

  std::uint32_t low_ = 0;
  std::uint32_t range_ = 0xFFFFFFFFu;
  std::vector<std::uint8_t> out_;
};

class RangeDecoder {
 public:
  RangeDecoder(const std::uint8_t* data, std::size_t size);

  // Returns the frequency slot of the next symbol, in [0, total).
  // Caller locates the symbol s with cum(s) <= slot < cum(s)+freq(s), then
  // must call Consume with that symbol's interval.
  std::uint32_t DecodeSlot(std::uint32_t total);
  void Consume(std::uint32_t cum, std::uint32_t freq, std::uint32_t total);

  // Bulk path: decodes up to n symbols drawn from ONE table of nsyms
  // symbols with cumulative bounds cum[0..nsyms] (cum[nsyms] == total).
  // Symbols are resolved internally (binary search over cum) and written to
  // syms. When stop_sym >= 0, decoding halts right after emitting stop_sym
  // so the caller can consume out-of-band data (escape payloads) before
  // resuming. Returns the number of symbols written (including the stop
  // symbol when hit).
  std::size_t DecodeSpan(const std::uint32_t* cum, const std::uint32_t* freq,
                         std::uint32_t nsyms, std::uint32_t total,
                         std::int32_t stop_sym, std::int32_t* syms,
                         std::size_t n);

 private:
  void Normalize();
  std::uint8_t NextByte();

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  std::uint32_t low_ = 0;
  std::uint32_t range_ = 0xFFFFFFFFu;
  std::uint32_t code_ = 0;
};

}  // namespace glsc::codec
