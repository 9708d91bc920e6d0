// Tests for the container v4 lossless filter pipeline (core/filters.h).
//
// The filter kernels are the container's bit-exactness boundary: archives
// written on any host must be byte-identical, so every dispatch level the
// host supports is exercised in-process via ScopedIsaOverride and compared
// against (a) naive references implementing the documented layout and (b) the
// forced-scalar output byte for byte.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "core/archive_reader.h"
#include "core/filters.h"
#include "tensor/simd/dispatch.h"
#include "tensor/simd/kernels.h"
#include "tensor/workspace.h"
#include "util/rng.h"

namespace glsc::core {
namespace {

std::vector<std::uint8_t> RandomBytes(Rng* rng, std::size_t n) {
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng->UniformInt(256));
  return v;
}

// Smooth f32 series — the shape of the norms block, where bitshuffle at
// elem = 4 exposes long runs of identical exponent/high-mantissa bit planes.
std::vector<std::uint8_t> SmoothFloats(std::size_t count) {
  std::vector<std::uint8_t> v(count * sizeof(float));
  for (std::size_t i = 0; i < count; ++i) {
    const float f = 1.0f + 0.001f * static_cast<float>(i % 257);
    std::memcpy(v.data() + i * sizeof(float), &f, sizeof f);
  }
  return v;
}

// Naive implementation of the documented bitshuffle layout: elements split
// into byte planes, each byte plane into 8 bit planes; bit t of
// dst[(k*8 + b)*stride + j] is bit b of byte k of element 8j + t.
std::vector<std::uint8_t> NaiveBitshuffle(const std::vector<std::uint8_t>& src,
                                          std::int64_t elem) {
  const std::size_t n = src.size();
  const std::size_t nelem_p =
      (n / static_cast<std::size_t>(elem)) & ~std::size_t{7};
  const std::size_t prefix = nelem_p * static_cast<std::size_t>(elem);
  const std::size_t stride = nelem_p / 8;
  std::vector<std::uint8_t> out(n, 0);
  for (std::size_t k = 0; k < static_cast<std::size_t>(elem); ++k) {
    for (std::size_t b = 0; b < 8; ++b) {
      for (std::size_t j = 0; j < stride; ++j) {
        std::uint8_t v = 0;
        for (std::size_t t = 0; t < 8; ++t) {
          const std::uint8_t byte =
              src[(8 * j + t) * static_cast<std::size_t>(elem) + k];
          v = static_cast<std::uint8_t>(v | (((byte >> b) & 1u) << t));
        }
        out[(k * 8 + b) * stride + j] = v;
      }
    }
  }
  std::memcpy(out.data() + prefix, src.data() + prefix, n - prefix);
  return out;
}

std::vector<std::uint8_t> NaiveDelta(const std::vector<std::uint8_t>& src,
                                     std::int64_t lag) {
  std::vector<std::uint8_t> out(src.size());
  for (std::size_t i = 0; i < src.size(); ++i) {
    out[i] = i < static_cast<std::size_t>(lag)
                 ? src[i]
                 : static_cast<std::uint8_t>(
                       src[i] - src[i - static_cast<std::size_t>(lag)]);
  }
  return out;
}

TEST(Filters, BitshuffleMatchesNaiveLayoutAtEveryLevel) {
  Rng rng(41);
  for (const std::size_t n : {0ul, 7ul, 8ul, 64ul, 65ul, 333ul, 4096ul,
                              5000ul}) {
    const std::vector<std::uint8_t> src = RandomBytes(&rng, n);
    for (const std::int64_t elem : {1, 2, 4, 8}) {
      const std::vector<std::uint8_t> want = NaiveBitshuffle(src, elem);
      const FilterSpec spec{FilterChain::kBitshuffle, elem,
                            FilterBackend::kNone};
      for (const simd::IsaLevel level : simd::RunnableLevels()) {
        simd::ScopedIsaOverride override_level(level);
        EXPECT_EQ(EncodeFiltered(src.data(), n, spec), want)
            << "n=" << n << " elem=" << elem << " level=" << (int)level;
      }
    }
  }
}

TEST(Filters, DeltaMatchesNaiveAtEveryLevel) {
  Rng rng(42);
  for (const std::size_t n : {0ul, 3ul, 16ul, 31ul, 32ul, 257ul, 8191ul}) {
    const std::vector<std::uint8_t> src = RandomBytes(&rng, n);
    for (const std::int64_t lag : {1, 2, 4, 8}) {
      const std::vector<std::uint8_t> want = NaiveDelta(src, lag);
      const FilterSpec spec{FilterChain::kDelta, lag, FilterBackend::kNone};
      for (const simd::IsaLevel level : simd::RunnableLevels()) {
        simd::ScopedIsaOverride override_level(level);
        EXPECT_EQ(EncodeFiltered(src.data(), n, spec), want)
            << "n=" << n << " lag=" << lag << " level=" << (int)level;
      }
    }
  }
}

TEST(Filters, EveryChainRoundTripsAtEveryLevelBitIdenticalToScalar) {
  Rng rng(43);
  const FilterChain chains[] = {FilterChain::kNone, FilterChain::kDelta,
                                FilterChain::kBitshuffle,
                                FilterChain::kDeltaBitshuffle};
  const FilterBackend backends[] = {FilterBackend::kNone, FilterBackend::kGlz};
  for (const std::size_t n : {0ul, 129ul, 4096ul, 10000ul}) {
    // Mix of structure and noise so glz has something to chew on.
    std::vector<std::uint8_t> src = RandomBytes(&rng, n);
    for (std::size_t i = 0; i + 4 <= n; i += 4) src[i] = 0x40;
    for (const FilterChain chain : chains) {
      for (const FilterBackend backend : backends) {
        for (const std::int64_t elem :
             chain == FilterChain::kNone ? std::vector<std::int64_t>{1}
                                         : std::vector<std::int64_t>{1, 4}) {
          const FilterSpec spec{chain, elem, backend};
          std::vector<std::uint8_t> scalar_stored;
          {
            simd::ScopedIsaOverride force(simd::IsaLevel::kScalar);
            scalar_stored = EncodeFiltered(src.data(), n, spec);
          }
          for (const simd::IsaLevel level : simd::RunnableLevels()) {
            simd::ScopedIsaOverride override_level(level);
            // Encode is byte-identical to forced scalar...
            const std::vector<std::uint8_t> stored =
                EncodeFiltered(src.data(), n, spec);
            EXPECT_EQ(stored, scalar_stored)
                << "chain=" << (int)chain << " backend=" << (int)backend
                << " elem=" << elem << " level=" << (int)level;
            // ...and decode restores the input exactly.
            std::vector<std::uint8_t> back(n);
            DecodeFiltered(stored.data(), stored.size(), spec, back.data(), n,
                           nullptr);
            EXPECT_EQ(back, src);
          }
        }
      }
    }
  }
}

TEST(Filters, GlzRoundTripsAssortedInputs) {
  Rng rng(44);
  std::vector<std::vector<std::uint8_t>> inputs;
  inputs.push_back({});                                  // empty
  inputs.push_back({1, 2, 3});                           // below match margin
  inputs.push_back(std::vector<std::uint8_t>(5000, 7));  // one long run
  inputs.push_back(RandomBytes(&rng, 4096));             // incompressible
  inputs.push_back(SmoothFloats(2048));                  // structured
  {
    // Repeating 5-byte period: overlapping matches (offset < length).
    std::vector<std::uint8_t> v(1000);
    for (std::size_t i = 0; i < v.size(); ++i) {
      v[i] = static_cast<std::uint8_t>(i % 5);
    }
    inputs.push_back(std::move(v));
  }
  for (const auto& src : inputs) {
    const std::vector<std::uint8_t> stored =
        GlzCompress(src.data(), src.size());
    std::vector<std::uint8_t> back(src.size());
    GlzDecompress(stored.data(), stored.size(), back.data(), back.size());
    EXPECT_EQ(back, src);
  }
  // The run actually compresses; the noise does not explode.
  EXPECT_LT(GlzCompress(inputs[2].data(), inputs[2].size()).size(), 100u);
}

TEST(Filters, SelectionShrinksStructuredDataAndStoresNoiseRaw) {
  Rng rng(45);
  const std::vector<std::uint8_t> noise = RandomBytes(&rng, 8192);
  const FilteredBlock raw = EncodeWithSelection(noise.data(), noise.size(), 1);
  EXPECT_TRUE(raw.spec.IsRaw());
  EXPECT_EQ(raw.stored, noise);  // honest raw storage, no expansion

  const std::vector<std::uint8_t> smooth = SmoothFloats(4096);
  const FilteredBlock f = EncodeWithSelection(smooth.data(), smooth.size(), 4);
  EXPECT_FALSE(f.spec.IsRaw());
  EXPECT_LT(f.stored.size(), smooth.size() / 2);
  std::vector<std::uint8_t> back(smooth.size());
  DecodeFiltered(f.stored.data(), f.stored.size(), f.spec, back.data(),
                 back.size(), nullptr);
  EXPECT_EQ(back, smooth);

  // Selection is deterministic in the input bytes (append == one-shot).
  const FilteredBlock again =
      EncodeWithSelection(smooth.data(), smooth.size(), 4);
  EXPECT_EQ(again.spec, f.spec);
  EXPECT_EQ(again.stored, f.stored);
}

TEST(Filters, DecodeWithWorkspaceMatchesHeapDecode) {
  const std::vector<std::uint8_t> smooth = SmoothFloats(4096);
  const FilterSpec spec{FilterChain::kDeltaBitshuffle, 4, FilterBackend::kGlz};
  const std::vector<std::uint8_t> stored =
      EncodeFiltered(smooth.data(), smooth.size(), spec);
  std::vector<std::uint8_t> heap_out(smooth.size());
  DecodeFiltered(stored.data(), stored.size(), spec, heap_out.data(),
                 heap_out.size(), nullptr);

  tensor::Workspace ws;
  std::vector<std::uint8_t> ws_out(smooth.size());
  {
    tensor::Workspace::Scope scope(&ws);
    DecodeFiltered(stored.data(), stored.size(), spec, ws_out.data(),
                   ws_out.size(), &ws);
  }
  EXPECT_EQ(ws_out, heap_out);
  EXPECT_EQ(ws_out, smooth);

  // Steady state: re-decoding under a warm workspace must not grow slabs.
  const auto slabs = ws.stats().slab_allocations;
  for (int i = 0; i < 16; ++i) {
    tensor::Workspace::Scope scope(&ws);
    DecodeFiltered(stored.data(), stored.size(), spec, ws_out.data(),
                   ws_out.size(), &ws);
  }
  EXPECT_EQ(ws.stats().slab_allocations, slabs);
}

TEST(Filters, WireSpecRejectsLies) {
  // Reserved bits, bad element size, element size on an empty chain, unknown
  // backend — each is the "lying filter id" fuzz case and must throw typed.
  EXPECT_THROW(FilterSpec::FromWire(0x04, 0), ArchiveError);  // reserved bit
  EXPECT_THROW(FilterSpec::FromWire(0x80, 0), ArchiveError);  // reserved bit
  EXPECT_THROW(FilterSpec::FromWire(0x41, 0), ArchiveError);  // elem = 16
  EXPECT_THROW(FilterSpec::FromWire(0x10, 0), ArchiveError);  // elem on none
  EXPECT_THROW(FilterSpec::FromWire(0x01, 2), ArchiveError);  // backend
  // Valid specs round-trip through the wire bytes.
  for (const FilterChain chain :
       {FilterChain::kDelta, FilterChain::kBitshuffle}) {
    for (const std::int64_t elem : {1, 2, 4, 8}) {
      const FilterSpec spec{chain, elem, FilterBackend::kGlz};
      EXPECT_EQ(FilterSpec::FromWire(spec.WireFilter(), spec.WireBackend()),
                spec);
    }
  }
}

TEST(Filters, ValidateFilteredSizesBoundsHostileRawSizes) {
  const FilterSpec raw{FilterChain::kNone, 1, FilterBackend::kNone};
  EXPECT_NO_THROW(ValidateFilteredSizes(raw, 100, 100));
  EXPECT_THROW(ValidateFilteredSizes(raw, 100, 101), ArchiveError);
  const FilterSpec glz{FilterChain::kNone, 1, FilterBackend::kGlz};
  EXPECT_NO_THROW(ValidateFilteredSizes(glz, 100, 25564));
  // A lying raw_size cannot force an allocation unbounded by the input.
  EXPECT_THROW(ValidateFilteredSizes(glz, 100, 26000), ArchiveError);
  EXPECT_THROW(ValidateFilteredSizes(glz, 100, 1ull << 40), ArchiveError);
}

TEST(Filters, GlzDecompressRejectsMalformedStreams) {
  const auto expect_corrupt = [](std::vector<std::uint8_t> stream,
                                 std::size_t dst_n) {
    std::vector<std::uint8_t> dst(dst_n);
    try {
      GlzDecompress(stream.data(), stream.size(), dst.data(), dst_n);
      FAIL() << "malformed glz stream decoded";
    } catch (const ArchiveError& e) {
      EXPECT_EQ(e.fault(), ArchiveFault::kCorruptRecord);
    }
  };
  // Literal run longer than the remaining input.
  expect_corrupt({0x50, 'a', 'b'}, 5);
  // Literal run longer than the declared output.
  expect_corrupt({0x30, 'a', 'b', 'c'}, 2);
  // Truncated extended literal length.
  expect_corrupt({0xF0, 255}, 400);
  // Match offset zero.
  expect_corrupt({0x10, 'a', 0x00, 0x00}, 6);
  // Match offset pointing before the start of the output.
  expect_corrupt({0x10, 'a', 0x05, 0x00}, 6);
  // Match length overrunning the declared output.
  expect_corrupt({0x1F, 'a', 0x01, 0x00, 200}, 8);
  // Stream ends before the match offset completes.
  expect_corrupt({0x10, 'a', 0x01}, 6);
  // Decodes fewer bytes than declared.
  expect_corrupt({0x20, 'a', 'b'}, 10);
}

}  // namespace
}  // namespace glsc::core
