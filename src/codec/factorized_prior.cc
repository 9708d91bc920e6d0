#include "codec/factorized_prior.h"

#include <algorithm>
#include <cmath>

#include "codec/range_coder.h"
#include "util/check.h"

namespace glsc::codec {
namespace {

double Sigmoid(double x) { return 1.0 / (1.0 + std::exp(-x)); }

double LogisticPmf(double k, double mu, double s) {
  return Sigmoid((k + 0.5 - mu) / s) - Sigmoid((k - 0.5 - mu) / s);
}

}  // namespace

LogisticChannelCodec::FreqTable LogisticChannelCodec::BuildTable(float mu,
                                                                 float s) {
  FreqTable table;
  const int window = 2 * kHalfWindow;
  table.origin = static_cast<std::int64_t>(std::nearbyint(mu)) - kHalfWindow;
  table.freq.resize(window + 1);  // + escape

  constexpr std::uint32_t kTargetTotal = 1u << 14;
  const double sd = std::max(static_cast<double>(s), 1e-3);
  double mass = 0.0;
  std::vector<double> pmf(window);
  for (int i = 0; i < window; ++i) {
    pmf[i] = LogisticPmf(static_cast<double>(table.origin + i), mu, sd);
    mass += pmf[i];
  }
  const double escape_mass = std::max(1.0 - mass, 1e-9);
  std::uint32_t assigned = 0;
  for (int i = 0; i < window; ++i) {
    const auto f = static_cast<std::uint32_t>(
        std::max(1.0, std::floor(pmf[i] * kTargetTotal)));
    table.freq[i] = f;
    assigned += f;
  }
  table.freq[window] = std::max<std::uint32_t>(
      1, static_cast<std::uint32_t>(escape_mass * kTargetTotal));
  assigned += table.freq[window];
  GLSC_CHECK(assigned < RangeEncoder::kMaxTotal);

  table.cum.resize(table.freq.size() + 1);
  table.cum[0] = 0;
  for (std::size_t i = 0; i < table.freq.size(); ++i) {
    table.cum[i + 1] = table.cum[i] + table.freq[i];
  }
  table.total = table.cum.back();
  return table;
}

std::vector<std::uint8_t> LogisticChannelCodec::Encode(
    const Tensor& z, const std::vector<float>& mu, const std::vector<float>& s) {
  GLSC_CHECK(z.rank() >= 2);
  const std::int64_t channels = z.dim(1);
  GLSC_CHECK(static_cast<std::int64_t>(mu.size()) == channels);
  GLSC_CHECK(static_cast<std::int64_t>(s.size()) == channels);

  std::vector<FreqTable> tables;
  tables.reserve(static_cast<std::size_t>(channels));
  for (std::int64_t c = 0; c < channels; ++c) {
    tables.push_back(BuildTable(mu[c], s[c]));
  }

  RangeEncoder enc;
  const std::int64_t batch = z.dim(0);
  const std::int64_t inner = z.numel() / (batch * channels);
  enc.Reserve(static_cast<std::size_t>(z.numel()) + 64);
  const float* pz = z.data();
  const int window = 2 * kHalfWindow;
  std::vector<std::int32_t> slots;
  slots.reserve(static_cast<std::size_t>(inner));
  for (std::int64_t b = 0; b < batch; ++b) {
    for (std::int64_t c = 0; c < channels; ++c) {
      // Every element of a channel codes against one fixed table, so the
      // whole inner extent flows through the bulk span API; only escapes
      // force a flush.
      const FreqTable& table = tables[static_cast<std::size_t>(c)];
      slots.clear();
      for (std::int64_t i = 0; i < inner; ++i) {
        const auto k = static_cast<std::int64_t>(
            std::nearbyint(pz[(b * channels + c) * inner + i]));
        const std::int64_t slot = k - table.origin;
        if (slot >= 0 && slot < window) {
          slots.push_back(static_cast<std::int32_t>(slot));
        } else {
          enc.EncodeSpan(table.cum.data(), table.freq.data(), table.total,
                         slots.data(), slots.size());
          slots.clear();
          enc.Encode(table.cum[window], table.freq[window], table.total);
          const std::int64_t d = k - table.origin;
          const auto zz = static_cast<std::uint32_t>((d << 1) ^ (d >> 63));
          enc.Encode(static_cast<std::uint16_t>(zz & 0xFFFF), 1, 1u << 16);
          enc.Encode(static_cast<std::uint16_t>(zz >> 16), 1, 1u << 16);
        }
      }
      enc.EncodeSpan(table.cum.data(), table.freq.data(), table.total,
                     slots.data(), slots.size());
    }
  }
  return enc.Finish();
}

Tensor LogisticChannelCodec::Decode(const std::vector<std::uint8_t>& bytes,
                                    const Shape& shape,
                                    const std::vector<float>& mu,
                                    const std::vector<float>& s) {
  GLSC_CHECK(shape.size() >= 2 && shape[0] > 0);
  const std::int64_t channels = shape[1];
  // One (mu, s) pair per channel: `shape` may come off the wire.
  GLSC_CHECK(channels > 0 &&
             static_cast<std::int64_t>(mu.size()) == channels &&
             static_cast<std::int64_t>(s.size()) == channels);
  std::vector<FreqTable> tables;
  tables.reserve(static_cast<std::size_t>(channels));
  for (std::int64_t c = 0; c < channels; ++c) {
    tables.push_back(BuildTable(mu[c], s[c]));
  }

  Tensor z(shape);
  RangeDecoder dec(bytes.data(), bytes.size());
  const std::int64_t batch = shape[0];
  const std::int64_t inner = z.numel() / (batch * channels);
  float* pz = z.data();
  const int window = 2 * kHalfWindow;
  std::vector<std::int32_t> syms(static_cast<std::size_t>(inner));
  for (std::int64_t b = 0; b < batch; ++b) {
    for (std::int64_t c = 0; c < channels; ++c) {
      const FreqTable& table = tables[static_cast<std::size_t>(c)];
      float* out = pz + (b * channels + c) * inner;
      std::int64_t i = 0;
      while (i < inner) {
        const std::size_t got = dec.DecodeSpan(
            table.cum.data(), table.freq.data(),
            static_cast<std::uint32_t>(window) + 1, table.total,
            /*stop_sym=*/window, syms.data(),
            static_cast<std::size_t>(inner - i));
        for (std::size_t j = 0; j < got; ++j) {
          const std::int32_t sym = syms[j];
          std::int64_t k;
          if (sym < window) {
            k = table.origin + sym;
          } else {
            const std::uint32_t lo = dec.DecodeSlot(1u << 16);
            dec.Consume(lo, 1, 1u << 16);
            const std::uint32_t hi = dec.DecodeSlot(1u << 16);
            dec.Consume(hi, 1, 1u << 16);
            const std::uint32_t zz = lo | (hi << 16);
            const std::int64_t d = static_cast<std::int64_t>(zz >> 1) ^
                                   -static_cast<std::int64_t>(zz & 1);
            k = table.origin + d;
          }
          out[i + static_cast<std::int64_t>(j)] = static_cast<float>(k);
        }
        i += static_cast<std::int64_t>(got);
      }
    }
  }
  return z;
}

double LogisticChannelCodec::TheoreticalBits(const Tensor& z,
                                             const std::vector<float>& mu,
                                             const std::vector<float>& s) const {
  const std::int64_t batch = z.dim(0);
  const std::int64_t channels = z.dim(1);
  const std::int64_t inner = z.numel() / (batch * channels);
  const float* pz = z.data();
  double bits = 0.0;
  for (std::int64_t b = 0; b < batch; ++b) {
    for (std::int64_t c = 0; c < channels; ++c) {
      const double sd =
          std::max(static_cast<double>(s[static_cast<std::size_t>(c)]), 1e-3);
      for (std::int64_t i = 0; i < inner; ++i) {
        const double k = std::nearbyint(pz[(b * channels + c) * inner + i]);
        const double p = std::max(
            LogisticPmf(k, mu[static_cast<std::size_t>(c)], sd), 1e-12);
        bits += -std::log2(p);
      }
    }
  }
  return bits;
}

}  // namespace glsc::codec
