// Lossless filter pipeline for container v4 records.
//
// Every v4 record (and the norms block) declares a FILTER CHAIN and a
// LOSSLESS BACKEND in its header; the stored bytes are
//
//   stored = backend(chain(raw))
//
// where the chain is a byte-reversible transform that rearranges entropy for
// the backend (c-blosc2's split: filters expose structure, the codec removes
// it) and the backend is "glz", an in-tree LZ4-flavored byte LZ tuned for
// decode speed — write-once/read-many asymmetry: the encoder spends time
// choosing, the decoder is a memcpy-class inverse.
//
// Chains (applied left to right on encode, inverted right to left on decode):
//   none             stored bytes are the filtered input
//   delta            byte delta with lag = elem (src[i] - src[i-elem])
//   bitshuffle       bit-plane transpose at element size elem
//   delta+bitshuffle delta first, then bitshuffle
//
// Bitshuffle layout at element size E over n input bytes: the largest prefix
// of 8*E-divisible length is processed (nelem_p = (n/E) & ~7 elements); the
// remaining tail is copied verbatim. The processed prefix is split into E
// byte planes, each bit-transposed into 8 bit planes:
//
//   dst[(k*8 + b) * nelem_p/8 + j]  holds bit b of byte k of elements
//                                   8j..8j+8, one element per output bit.
//
// All bit movement goes through the runtime-dispatched SIMD kernel table
// (tensor/simd/kernels.h) whose filter entries are bit-exact at every level,
// so archives are byte-identical regardless of the ISA that wrote them.
//
// The glz stream format (little-endian, LZ4-flavored):
//
//   sequence := token u8 | [ext literal len] | literals
//             | offset u16 | [ext match len]
//   token    := literal_len<<4 | (match_len - 4), nibble value 15 meaning
//               "extended": add following bytes, each 255 continuing.
//
// Offsets are 1..65535 into the already-decoded output; minimum match is 4.
// A stream may end after a literal run or after a match. The decoder is
// fully bounds-checked and throws typed core::ArchiveError on any
// malformation — no overread, no OOM (output size is declared up front and
// validated by the caller against ValidateFilteredSizes).
#pragma once

#include <cstdint>
#include <vector>

namespace glsc::tensor {
class Workspace;
}  // namespace glsc::tensor

namespace glsc::core {

enum class FilterChain : std::uint8_t {
  kNone = 0,
  kDelta = 1,
  kBitshuffle = 2,
  kDeltaBitshuffle = 3,
};

enum class FilterBackend : std::uint8_t {
  kNone = 0,
  kGlz = 1,
};

// A record's declared filtering. On the wire this is two header bytes:
//   filter  := chain (bits 0-1) | log2(elem) (bits 4-6), other bits zero
//   backend := FilterBackend
struct FilterSpec {
  FilterChain chain = FilterChain::kNone;
  std::int64_t elem = 1;  // element size the chain operates on (1/2/4/8)
  FilterBackend backend = FilterBackend::kNone;

  bool IsRaw() const {
    return chain == FilterChain::kNone && backend == FilterBackend::kNone;
  }
  bool operator==(const FilterSpec&) const = default;

  std::uint8_t WireFilter() const;
  std::uint8_t WireBackend() const { return static_cast<std::uint8_t>(backend); }
  // Parses the two wire bytes; throws ArchiveError(kCorruptRecord) on any
  // reserved bit, out-of-range element size, or unknown backend (the "lying
  // filter id" fuzz case).
  static FilterSpec FromWire(std::uint8_t filter, std::uint8_t backend);
};

// Hostile-size gate of the archive reader: validates a record's declared
// (stored, raw) byte sizes against the spec BEFORE any
// allocation. backend none cannot change the size; glz expands at most
// ~255x (one max-extended match per 3-byte sequence), so a lying raw_size
// cannot force an allocation unbounded by the archive's actual size.
// Throws ArchiveError(kCorruptRecord) on violation.
void ValidateFilteredSizes(const FilterSpec& spec, std::uint64_t stored_size,
                           std::uint64_t raw_size);

// ---- glz backend ----
// Compresses n bytes (n <= 2^31). The output NEVER shrinks below what the
// stream format can express but MAY exceed n for incompressible input —
// callers fall back to raw storage when it does.
std::vector<std::uint8_t> GlzCompress(const std::uint8_t* src, std::size_t n);
// Decompresses exactly dst_n bytes into dst; throws
// ArchiveError(kCorruptRecord) when the stream is malformed, points outside
// the produced output, or does not decode to exactly dst_n bytes.
void GlzDecompress(const std::uint8_t* src, std::size_t src_n,
                   std::uint8_t* dst, std::size_t dst_n);

// ---- whole-record encode / decode ----

struct FilteredBlock {
  FilterSpec spec;
  std::vector<std::uint8_t> stored;
};

// Applies `spec` to raw bytes and returns the stored form (encode side; heap
// scratch, cold path).
std::vector<std::uint8_t> EncodeFiltered(const std::uint8_t* src,
                                         std::size_t n,
                                         const FilterSpec& spec);

// Trial-based selection: candidate chains (at element size elem_hint) are
// applied to a sampled prefix and glz-compressed; the spec that actually
// shrinks the sample the most wins, then the FULL buffer is encoded with it.
// Falls back to raw storage (spec.IsRaw(), stored == input) when nothing
// shrinks the sample or the full encode fails to shrink. Deterministic in the
// input bytes alone, so append-time encodes match one-shot serialization.
// elem_hint is the element size of the underlying data: 1 for opaque codec
// payloads, 4 for the f32 norms block.
FilteredBlock EncodeWithSelection(const std::uint8_t* src, std::size_t n,
                                  std::int64_t elem_hint);

// Inverts `spec`: stored bytes -> exactly raw_n raw bytes into dst. Callers
// must have passed the sizes through ValidateFilteredSizes first. Scratch
// comes from `ws` when non-null (steady-state zero-heap decode; the caller
// owns the enclosing Workspace::Scope) and falls back to heap vectors
// otherwise. Throws ArchiveError(kCorruptRecord) on malformed stored bytes.
void DecodeFiltered(const std::uint8_t* stored, std::size_t stored_n,
                    const FilterSpec& spec, std::uint8_t* dst,
                    std::size_t raw_n, tensor::Workspace* ws);

}  // namespace glsc::core
