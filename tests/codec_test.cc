#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "codec/bitio.h"
#include "codec/factorized_prior.h"
#include "codec/gaussian_model.h"
#include "codec/huffman.h"
#include "codec/range_coder.h"
#include "tensor/workspace.h"
#include "util/bytes.h"
#include "util/rng.h"

namespace glsc::codec {
namespace {

TEST(BitIo, RoundTrip) {
  BitWriter w;
  w.PutBit(true);
  w.PutBits(0b1011, 4);
  w.PutBits(0xDEAD, 16);
  const auto bytes = w.Finish();
  BitReader r(bytes.data(), bytes.size());
  EXPECT_TRUE(r.GetBit());
  EXPECT_EQ(r.GetBits(4), 0b1011u);
  EXPECT_EQ(r.GetBits(16), 0xDEADu);
}

TEST(BitIo, ReadPastEndYieldsZeros) {
  BitWriter w;
  w.PutBit(true);
  const auto bytes = w.Finish();
  BitReader r(bytes.data(), bytes.size());
  EXPECT_TRUE(r.GetBit());
  for (int i = 0; i < 20; ++i) EXPECT_FALSE(r.GetBit());
}

// ---- range coder: round-trip under several symbol distributions ----

struct RangeCase {
  int alphabet;
  double skew;  // 0 = uniform, higher = more skewed
  int count;
};

class RangeCoderTest : public ::testing::TestWithParam<RangeCase> {};

TEST_P(RangeCoderTest, RoundTrip) {
  const auto& p = GetParam();
  Rng rng(77);

  // Build a frequency table.
  std::vector<std::uint32_t> freq(p.alphabet);
  std::uint32_t total = 0;
  for (int s = 0; s < p.alphabet; ++s) {
    freq[s] = 1 + static_cast<std::uint32_t>(
                      60.0 * std::exp(-p.skew * s / p.alphabet));
    total += freq[s];
  }
  ASSERT_LT(total, RangeEncoder::kMaxTotal);
  std::vector<std::uint32_t> cum(p.alphabet + 1, 0);
  for (int s = 0; s < p.alphabet; ++s) cum[s + 1] = cum[s] + freq[s];

  // Random symbol stream drawn from the same distribution.
  std::vector<int> symbols(p.count);
  for (auto& s : symbols) {
    const auto slot = static_cast<std::uint32_t>(rng.UniformInt(total));
    int sym = 0;
    while (cum[sym + 1] <= slot) ++sym;
    s = sym;
  }

  RangeEncoder enc;
  for (const int s : symbols) enc.Encode(cum[s], freq[s], total);
  const auto bytes = enc.Finish();

  RangeDecoder dec(bytes.data(), bytes.size());
  for (const int expected : symbols) {
    const std::uint32_t slot = dec.DecodeSlot(total);
    int sym = 0;
    while (cum[sym + 1] <= slot) ++sym;
    dec.Consume(cum[sym], freq[sym], total);
    ASSERT_EQ(sym, expected);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Distributions, RangeCoderTest,
    ::testing::Values(RangeCase{2, 0.0, 5000}, RangeCase{2, 8.0, 5000},
                      RangeCase{17, 0.0, 3000}, RangeCase{17, 5.0, 3000},
                      RangeCase{256, 3.0, 2000}, RangeCase{1000, 0.0, 500}));

TEST(RangeCoder, NearEntropyOnSkewedStream) {
  // A 95/5 binary source has entropy ~0.286 bits/symbol; the coded size
  // should be within a few percent of that plus flush overhead.
  Rng rng(99);
  const std::uint32_t total = 100;
  const std::uint32_t f0 = 95, f1 = 5;
  const int n = 20000;
  RangeEncoder enc;
  int ones = 0;
  for (int i = 0; i < n; ++i) {
    const bool one = rng.UniformInt(100) < 5;
    ones += one;
    if (one) enc.Encode(f0, f1, total);
    else enc.Encode(0, f0, total);
  }
  const auto bytes = enc.Finish();
  const double entropy_bits =
      n * (-(0.95 * std::log2(0.95) + 0.05 * std::log2(0.05)));
  EXPECT_LT(bytes.size() * 8.0, entropy_bits * 1.10 + 64);
  (void)ones;
}

// ---- Gaussian conditional model ----

class GaussianModelTest : public ::testing::TestWithParam<float> {};

TEST_P(GaussianModelTest, RoundTripAtScale) {
  const float sigma_value = GetParam();
  Rng rng(123);
  const Shape shape{2, 4, 6, 6};
  Tensor mu = Tensor::Randn(shape, rng, 3.0f);
  Tensor sigma = Tensor::Full(shape, sigma_value);
  // y drawn near mu at the given scale, then rounded to integers.
  Tensor y(shape);
  for (std::int64_t i = 0; i < y.numel(); ++i) {
    y[i] = std::nearbyint(mu[i] + sigma_value * rng.NormalF());
  }

  GaussianConditionalModel model;
  const auto bytes = model.Encode(y, mu, sigma);
  const Tensor decoded = model.Decode(bytes, mu, sigma);
  for (std::int64_t i = 0; i < y.numel(); ++i) {
    ASSERT_EQ(decoded[i], y[i]) << "at " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Scales, GaussianModelTest,
                         ::testing::Values(0.1f, 0.5f, 1.0f, 4.0f, 16.0f,
                                           60.0f));

TEST(GaussianModel, HandlesOutliersViaEscape) {
  const Shape shape{1, 1, 2, 2};
  Tensor mu = Tensor::Zeros(shape);
  Tensor sigma = Tensor::Full(shape, 1.0f);
  Tensor y(shape);
  y[0] = 100000.0f;  // far outside the window
  y[1] = -70000.0f;
  y[2] = 0.0f;
  y[3] = 63.0f;  // window edge
  GaussianConditionalModel model;
  const auto bytes = model.Encode(y, mu, sigma);
  const Tensor decoded = model.Decode(bytes, mu, sigma);
  for (std::int64_t i = 0; i < 4; ++i) EXPECT_EQ(decoded[i], y[i]);
}

TEST(GaussianModel, CodedSizeTracksTheory) {
  Rng rng(321);
  const Shape shape{1, 8, 16, 16};
  Tensor mu = Tensor::Zeros(shape);
  Tensor sigma = Tensor::Full(shape, 2.0f);
  Tensor y(shape);
  for (std::int64_t i = 0; i < y.numel(); ++i) {
    y[i] = std::nearbyint(2.0f * rng.NormalF());
  }
  GaussianConditionalModel model;
  const auto bytes = model.Encode(y, mu, sigma);
  const double theory = model.TheoreticalBits(y, mu, sigma);
  // Quantized tables + flush cost a little over the exact entropy.
  EXPECT_LT(bytes.size() * 8.0, theory * 1.25 + 128);
  EXPECT_GT(bytes.size() * 8.0, theory * 0.75);
}

// ---- logistic channel codec ----

TEST(LogisticCodec, RoundTrip) {
  Rng rng(55);
  const Shape shape{3, 4, 5, 5};
  std::vector<float> mu{0.0f, -2.5f, 10.0f, 0.3f};
  std::vector<float> s{0.5f, 1.0f, 3.0f, 8.0f};
  Tensor z(shape);
  for (std::int64_t i = 0; i < z.numel(); ++i) {
    z[i] = std::nearbyint(5.0f * rng.NormalF());
  }
  LogisticChannelCodec codec;
  const auto bytes = codec.Encode(z, mu, s);
  const Tensor decoded = codec.Decode(bytes, shape, mu, s);
  for (std::int64_t i = 0; i < z.numel(); ++i) ASSERT_EQ(decoded[i], z[i]);
}

TEST(GaussianModel, EncodeIsDeterministic) {
  Rng rng(777);
  const Shape shape{1, 4, 8, 8};
  Tensor mu = Tensor::Randn(shape, rng);
  Tensor sigma = Tensor::Full(shape, 1.5f);
  Tensor y(shape);
  for (std::int64_t i = 0; i < y.numel(); ++i) {
    y[i] = std::nearbyint(1.5f * rng.NormalF());
  }
  GaussianConditionalModel a, b;
  EXPECT_EQ(a.Encode(y, mu, sigma), b.Encode(y, mu, sigma))
      << "two model instances must emit identical bitstreams";
}

TEST(LogisticCodec, TheoreticalBitsSaneScale) {
  // For z ~ round(N(0, 3)) under a logistic(0, 3) prior the per-element cost
  // must land between 2 and 8 bits — a smoke bound that catches sign errors
  // in the pmf computation.
  Rng rng(778);
  const Shape shape{1, 1, 16, 16};
  Tensor z(shape);
  for (std::int64_t i = 0; i < z.numel(); ++i) {
    z[i] = std::nearbyint(3.0f * rng.NormalF());
  }
  LogisticChannelCodec codec;
  const double bits = codec.TheoreticalBits(z, {0.0f}, {3.0f});
  EXPECT_GT(bits / z.numel(), 2.0);
  EXPECT_LT(bits / z.numel(), 8.0);
}

TEST(LogisticCodec, OutlierEscape) {
  const Shape shape{1, 1, 1, 3};
  std::vector<float> mu{0.0f};
  std::vector<float> s{1.0f};
  Tensor z(shape);
  z[0] = 1e6f;
  z[1] = -400.0f;
  z[2] = 2.0f;
  LogisticChannelCodec codec;
  const auto bytes = codec.Encode(z, mu, s);
  const Tensor decoded = codec.Decode(bytes, shape, mu, s);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(decoded[i], z[i]);
}

// ---- Huffman ----

class HuffmanTest
    : public ::testing::TestWithParam<std::pair<int, double>> {};

// Two-sided geometric-ish distribution centred at 0.
std::vector<std::int32_t> GeometricStream(int alphabet, double skew,
                                          std::size_t n) {
  Rng rng(888);
  std::vector<std::int32_t> symbols(n);
  for (auto& s : symbols) {
    const double u = rng.Uniform();
    const int mag = static_cast<int>(-std::log(1.0 - u) * skew);
    s = (rng.UniformInt(2) == 0 ? mag : -mag) % alphabet;
  }
  return symbols;
}

TEST_P(HuffmanTest, RoundTrip) {
  const auto [alphabet, skew] = GetParam();
  const auto symbols = GeometricStream(alphabet, skew, 4000);
  const auto bytes = HuffmanEncode(symbols);
  EXPECT_EQ(HuffmanDecode(bytes), symbols);
}

// {1, ...} is a one-symbol alphabet; {5000, 1000.0} draws mostly distinct
// values, so most codes run past the reader's 11-bit lookup table.
INSTANTIATE_TEST_SUITE_P(Streams, HuffmanTest,
                         ::testing::Values(std::pair{3, 0.5},
                                           std::pair{100, 2.0},
                                           std::pair{1000, 10.0},
                                           std::pair{5, 0.01},
                                           std::pair{1, 0.5},
                                           std::pair{5000, 1000.0}));

TEST(Huffman, EmptyStream) {
  const auto bytes = HuffmanEncode({});
  EXPECT_TRUE(HuffmanDecode(bytes).empty());
}

TEST(Huffman, SingleSymbolAlphabet) {
  std::vector<std::int32_t> symbols(100, 7);
  const auto bytes = HuffmanEncode(symbols);
  EXPECT_EQ(HuffmanDecode(bytes), symbols);
  // 100 identical symbols should cost ~1 bit each plus the table.
  EXPECT_LT(bytes.size(), 40u);
}

TEST(Huffman, SizeNearEntropy) {
  Rng rng(999);
  std::vector<std::int32_t> symbols(20000);
  for (auto& s : symbols) {
    s = rng.UniformInt(100) < 90 ? 0 : static_cast<std::int32_t>(rng.UniformInt(8));
  }
  const auto bytes = HuffmanEncode(symbols);
  const double entropy = SymbolEntropyBits(symbols);
  // Huffman is within one bit/symbol of entropy; this stream is heavily
  // skewed so the overhead bound matters.
  EXPECT_LT(bytes.size() * 8.0, entropy + symbols.size() * 1.05 + 512);
}

TEST(Huffman, NegativeValues) {
  std::vector<std::int32_t> symbols{-1000000, 1000000, 0, -1, 1, 0, 0, -1};
  EXPECT_EQ(HuffmanDecode(HuffmanEncode(symbols)), symbols);
}

// ---- HuffmanReader against the bit-at-a-time decoder it replaced ----

// The decoder HuffmanReader replaced, kept as the reference: one bit per
// step, matching the canonical first code of each length.
std::vector<std::int32_t> BitAtATimeDecode(
    const std::vector<std::uint8_t>& bytes) {
  ByteReader in(bytes);
  const std::uint64_t count = in.GetVarU64();
  std::vector<std::int32_t> symbols;
  if (count == 0) return symbols;
  const std::uint64_t alpha_size = in.GetVarU64();
  std::vector<std::int32_t> alphabet(alpha_size);
  std::vector<int> lengths(alpha_size);
  for (std::uint64_t i = 0; i < alpha_size; ++i) {
    alphabet[i] = static_cast<std::int32_t>(in.GetVarI64());
    lengths[i] = in.GetU8();
  }
  const int max_len = *std::max_element(lengths.begin(), lengths.end());
  std::vector<int> order(alpha_size);
  for (std::size_t i = 0; i < alpha_size; ++i) order[i] = static_cast<int>(i);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    if (lengths[a] != lengths[b]) return lengths[a] < lengths[b];
    return a < b;
  });
  std::vector<std::uint32_t> first_code(max_len + 1, 0);
  std::vector<int> first_index(max_len + 1, 0);
  std::vector<int> count_at(max_len + 1, 0);
  for (std::size_t i = 0; i < alpha_size; ++i) ++count_at[lengths[i]];
  std::uint32_t code = 0;
  int idx = 0;
  for (int len = 1; len <= max_len; ++len) {
    code <<= 1;
    first_code[len] = code;
    first_index[len] = idx;
    code += static_cast<std::uint32_t>(count_at[len]);
    idx += count_at[len];
  }
  const std::uint64_t payload_size = in.GetVarU64();
  std::vector<std::uint8_t> payload(payload_size);
  in.GetBytes(payload.data(), payload_size);
  BitReader bits(payload.data(), payload.size());
  for (std::uint64_t k = 0; k < count; ++k) {
    std::uint32_t c = 0;
    int len = 0;
    while (true) {
      c = (c << 1) | static_cast<std::uint32_t>(bits.GetBit());
      ++len;
      if (len > max_len) throw std::runtime_error("corrupt Huffman stream");
      if (count_at[len] > 0 &&
          c - first_code[len] < static_cast<std::uint32_t>(count_at[len])) {
        symbols.push_back(alphabet[static_cast<std::size_t>(
            order[first_index[len] + static_cast<int>(c - first_code[len])])]);
        break;
      }
    }
  }
  return symbols;
}

std::vector<std::int32_t> ReadAll(const std::vector<std::uint8_t>& bytes,
                                  tensor::Workspace* ws = nullptr) {
  HuffmanReader reader(bytes.data(), bytes.size(), ws);
  std::vector<std::int32_t> symbols;
  for (std::uint64_t i = 0; i < reader.count(); ++i) {
    symbols.push_back(reader.Next());
  }
  return symbols;
}

TEST_P(HuffmanTest, ReaderMatchesBitAtATimeDecoder) {
  const auto [alphabet, skew] = GetParam();
  const auto symbols = GeometricStream(alphabet, skew, 4000);
  const auto bytes = HuffmanEncode(symbols);
  const auto reference = BitAtATimeDecode(bytes);
  ASSERT_EQ(reference, symbols);
  EXPECT_EQ(ReadAll(bytes), reference);
  tensor::Workspace ws;
  {
    tensor::Workspace::Scope scope(&ws);
    EXPECT_EQ(ReadAll(bytes, &ws), reference);
  }
  EXPECT_EQ(HuffmanDecode(bytes), reference);
}

// A hand-built stream: one symbol per code length 1, 2, ..., 32 plus a
// second of length 32, which completes the code (Kraft sum exactly 1). Every
// symbol appears, so the decode walks the per-length search for all lengths
// past the lookup table.
std::vector<std::uint8_t> LongCodeStream(std::vector<std::int32_t>* symbols) {
  std::vector<int> lengths;
  for (int len = 1; len <= 32; ++len) lengths.push_back(len);
  lengths.push_back(32);
  // Canonical codes: length L (L < 32) is L-1 ones then a zero; the two
  // 32-bit codes are 31 ones then 0, and 32 ones.
  BitWriter bits;
  symbols->clear();
  for (std::size_t i = 0; i < lengths.size(); ++i) {
    const int len = lengths[i];
    const std::uint64_t ones = (std::uint64_t{1} << len) - 2;
    const std::uint64_t code = i + 1 == lengths.size() ? ones + 1 : ones;
    bits.PutBits(code, len);
    symbols->push_back(static_cast<std::int32_t>(100 + i));
  }
  const auto payload = bits.Finish();
  ByteWriter out;
  out.PutVarU64(symbols->size());
  out.PutVarU64(lengths.size());
  for (std::size_t i = 0; i < lengths.size(); ++i) {
    out.PutVarI64(100 + static_cast<std::int64_t>(i));
    out.PutU8(static_cast<std::uint8_t>(lengths[i]));
  }
  out.PutVarU64(payload.size());
  out.PutBytes(payload.data(), payload.size());
  return out.Release();
}

TEST(HuffmanReader, CodesLongerThanTheTableTakeTheSlowPath) {
  std::vector<std::int32_t> symbols;
  const auto bytes = LongCodeStream(&symbols);
  EXPECT_EQ(BitAtATimeDecode(bytes), symbols);
  EXPECT_EQ(ReadAll(bytes), symbols);
}

// ---- hostile streams: rejected before anything is sized by a count ----

// A valid two-symbol table (lengths 1, 1) with `count` symbols declared and
// `payload_bytes` of payload.
std::vector<std::uint8_t> TwoSymbolStream(std::uint64_t count,
                                          std::size_t payload_bytes,
                                          std::uint8_t len_a = 1,
                                          std::uint8_t len_b = 1) {
  ByteWriter out;
  out.PutVarU64(count);
  out.PutVarU64(2);
  out.PutVarI64(0);
  out.PutU8(len_a);
  out.PutVarI64(1);
  out.PutU8(len_b);
  out.PutVarU64(payload_bytes);
  for (std::size_t i = 0; i < payload_bytes; ++i) out.PutU8(0xA5);
  return out.Release();
}

TEST(HuffmanReader, AcceptsTheLargestCountItsPayloadHolds) {
  const auto bytes = TwoSymbolStream(8, 1);
  EXPECT_EQ(BitAtATimeDecode(bytes), ReadAll(bytes));
  EXPECT_EQ(ReadAll(bytes).size(), 8u);
}

TEST(HuffmanReader, RejectsCountBeyondPayloadBits) {
  // The bit-at-a-time decoder reserved and decoded 2^24 symbols for this
  // 1-byte payload.
  const auto hostile = TwoSymbolStream(std::uint64_t{1} << 24, 1);
  EXPECT_THROW(HuffmanReader(hostile.data(), hostile.size()),
               std::runtime_error);
  EXPECT_THROW(HuffmanDecode(hostile), std::runtime_error);
  EXPECT_THROW(HuffmanDecode(TwoSymbolStream(9, 1)), std::runtime_error);
  EXPECT_THROW(HuffmanDecode(TwoSymbolStream(~std::uint64_t{0}, 1)),
               std::runtime_error);
}

TEST(HuffmanReader, RejectsCodeLengthsOutsideOneTo32) {
  EXPECT_THROW(HuffmanDecode(TwoSymbolStream(2, 1, 0, 1)), std::runtime_error);
  EXPECT_THROW(HuffmanDecode(TwoSymbolStream(2, 1, 1, 33)), std::runtime_error);
  EXPECT_THROW(HuffmanDecode(TwoSymbolStream(2, 1, 255, 1)),
               std::runtime_error);
}

TEST(HuffmanReader, RejectsOverSubscribedTable) {
  // Three codes of length 1: Kraft sum 3/2.
  ByteWriter out;
  out.PutVarU64(3);
  out.PutVarU64(3);
  for (int v = 0; v < 3; ++v) {
    out.PutVarI64(v);
    out.PutU8(1);
  }
  out.PutVarU64(1);
  out.PutU8(0);
  EXPECT_THROW(HuffmanDecode(out.Release()), std::runtime_error);
}

TEST(HuffmanReader, RejectsAlphabetLargerThanCountOrStream) {
  ByteWriter big_alphabet;
  big_alphabet.PutVarU64(1);
  big_alphabet.PutVarU64(2);  // two table entries for one symbol
  big_alphabet.PutVarI64(0);
  big_alphabet.PutU8(1);
  big_alphabet.PutVarI64(1);
  big_alphabet.PutU8(1);
  big_alphabet.PutVarU64(1);
  big_alphabet.PutU8(0);
  EXPECT_THROW(HuffmanDecode(big_alphabet.Release()), std::runtime_error);

  ByteWriter long_alphabet;
  long_alphabet.PutVarU64(std::uint64_t{1} << 40);
  long_alphabet.PutVarU64(std::uint64_t{1} << 40);  // 2^40 entries, 0 bytes
  EXPECT_THROW(HuffmanDecode(long_alphabet.Release()), std::runtime_error);
}

TEST(HuffmanReader, RejectsPayloadLongerThanTheStream) {
  auto bytes = TwoSymbolStream(8, 1);
  bytes.pop_back();  // the declared payload byte is missing
  EXPECT_THROW(HuffmanDecode(bytes), std::runtime_error);
}

TEST(HuffmanReader, RejectsBitsNoCodeMapsTo) {
  // One symbol of length 2 ("00"): an incomplete code, so "1..." matches
  // nothing.
  ByteWriter out;
  out.PutVarU64(1);
  out.PutVarU64(1);
  out.PutVarI64(5);
  out.PutU8(2);
  out.PutVarU64(1);
  out.PutU8(0x80);
  const auto bytes = out.Release();
  EXPECT_THROW(BitAtATimeDecode(bytes), std::runtime_error);
  EXPECT_THROW(HuffmanDecode(bytes), std::runtime_error);
}

}  // namespace
}  // namespace glsc::codec
