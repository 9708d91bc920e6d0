#include "baselines/zfp_like.h"

#include <algorithm>
#include <cmath>

#include "codec/huffman.h"
#include "util/bytes.h"
#include "util/check.h"

namespace glsc::baselines {
namespace {

constexpr std::int64_t kBlock = 4;
constexpr std::int64_t kBlockVolume = kBlock * kBlock * kBlock;
// Each reconstructed value combines at most 3 coefficients per axis with
// unit weights -> 27 total; quantizing each with error <= step/2 bounds the
// pointwise error by 27 * step / 2.
constexpr double kErrorGain = 27.0;

// Forward two-level Haar on 4 values: (x0..x3) -> (ss, ds, d0, d1).
void HaarForward4(double* v) {
  const double s0 = 0.5 * (v[0] + v[1]);
  const double d0 = 0.5 * (v[0] - v[1]);
  const double s1 = 0.5 * (v[2] + v[3]);
  const double d1 = 0.5 * (v[2] - v[3]);
  v[0] = 0.5 * (s0 + s1);
  v[1] = 0.5 * (s0 - s1);
  v[2] = d0;
  v[3] = d1;
}

// Exact inverse.
void HaarInverse4(double* v) {
  const double s0 = v[0] + v[1];
  const double s1 = v[0] - v[1];
  const double d0 = v[2];
  const double d1 = v[3];
  v[0] = s0 + d0;
  v[1] = s0 - d0;
  v[2] = s1 + d1;
  v[3] = s1 - d1;
}

template <typename Fn>
void ApplyAlongAxes(double block[kBlockVolume], Fn&& fn) {
  double line[kBlock];
  // axis x
  for (std::int64_t t = 0; t < kBlock; ++t) {
    for (std::int64_t y = 0; y < kBlock; ++y) {
      for (std::int64_t x = 0; x < kBlock; ++x) {
        line[x] = block[(t * kBlock + y) * kBlock + x];
      }
      fn(line);
      for (std::int64_t x = 0; x < kBlock; ++x) {
        block[(t * kBlock + y) * kBlock + x] = line[x];
      }
    }
  }
  // axis y
  for (std::int64_t t = 0; t < kBlock; ++t) {
    for (std::int64_t x = 0; x < kBlock; ++x) {
      for (std::int64_t y = 0; y < kBlock; ++y) {
        line[y] = block[(t * kBlock + y) * kBlock + x];
      }
      fn(line);
      for (std::int64_t y = 0; y < kBlock; ++y) {
        block[(t * kBlock + y) * kBlock + x] = line[y];
      }
    }
  }
  // axis t
  for (std::int64_t y = 0; y < kBlock; ++y) {
    for (std::int64_t x = 0; x < kBlock; ++x) {
      for (std::int64_t t = 0; t < kBlock; ++t) {
        line[t] = block[(t * kBlock + y) * kBlock + x];
      }
      fn(line);
      for (std::int64_t t = 0; t < kBlock; ++t) {
        block[(t * kBlock + y) * kBlock + x] = line[t];
      }
    }
  }
}

}  // namespace

std::vector<std::uint8_t> ZFPLikeCompressor::Compress(const Tensor& field,
                                                      double abs_bound) {
  GLSC_CHECK(field.rank() == 3);
  GLSC_CHECK_MSG(abs_bound > 0.0, "error bound must be positive");
  const std::int64_t t_dim = field.dim(0);
  const std::int64_t h = field.dim(1);
  const std::int64_t w = field.dim(2);
  // Same float32-cast margin as the SZ-like codec (see sz_like.cc).
  const double max_abs = std::max(std::fabs(static_cast<double>(field.MaxValue())),
                                  std::fabs(static_cast<double>(field.MinValue())));
  const double eb_eff = std::max(abs_bound - max_abs * 1.2e-7, abs_bound * 0.5);
  const double step = 2.0 * eb_eff / kErrorGain;

  std::vector<std::int32_t> codes;
  const float* src = field.data();
  double block[kBlockVolume];

  for (std::int64_t t0 = 0; t0 < t_dim; t0 += kBlock) {
    for (std::int64_t y0 = 0; y0 < h; y0 += kBlock) {
      for (std::int64_t x0 = 0; x0 < w; x0 += kBlock) {
        // Gather with edge replication.
        for (std::int64_t t = 0; t < kBlock; ++t) {
          const std::int64_t ti = std::min(t0 + t, t_dim - 1);
          for (std::int64_t y = 0; y < kBlock; ++y) {
            const std::int64_t yi = std::min(y0 + y, h - 1);
            for (std::int64_t x = 0; x < kBlock; ++x) {
              const std::int64_t xi = std::min(x0 + x, w - 1);
              block[(t * kBlock + y) * kBlock + x] =
                  src[(ti * h + yi) * w + xi];
            }
          }
        }
        ApplyAlongAxes(block, HaarForward4);
        for (std::int64_t i = 0; i < kBlockVolume; ++i) {
          const auto k =
              static_cast<std::int64_t>(std::llround(block[i] / step));
          GLSC_CHECK_MSG(k >= INT32_MIN && k <= INT32_MAX, "code overflow");
          codes.push_back(static_cast<std::int32_t>(k));
        }
      }
    }
  }

  ByteWriter out;
  out.PutVarU64(static_cast<std::uint64_t>(t_dim));
  out.PutVarU64(static_cast<std::uint64_t>(h));
  out.PutVarU64(static_cast<std::uint64_t>(w));
  out.PutF64(eb_eff);
  const auto huff = codec::HuffmanEncode(codes);
  out.PutVarU64(huff.size());
  out.PutBytes(huff.data(), huff.size());
  return out.Release();
}

Tensor ZFPLikeCompressor::Decompress(const std::vector<std::uint8_t>& bytes) {
  ByteReader in(bytes);
  const std::uint64_t t_raw = in.GetVarU64();
  const std::uint64_t h_raw = in.GetVarU64();
  const std::uint64_t w_raw = in.GetVarU64();
  const double abs_bound = in.GetF64();
  const double step = 2.0 * abs_bound / kErrorGain;
  const std::uint64_t huff_size = in.GetVarU64();
  GLSC_CHECK_MSG(huff_size <= in.remaining(),
                 "corrupt zfp payload: Huffman stream of "
                     << huff_size << " bytes, " << in.remaining() << " left");
  std::vector<std::uint8_t> huff(huff_size);
  in.GetBytes(huff.data(), huff_size);
  const auto codes = codec::HuffmanDecode(huff);
  // One code per coefficient of every (edge-padded) block; the output is
  // sized only once the dims agree with the decoded count.
  const auto blocks = [](std::uint64_t n) {
    constexpr auto kEdge = static_cast<std::uint64_t>(kBlock);
    return n / kEdge + (n % kEdge != 0 ? 1 : 0);
  };
  GLSC_CHECK_MSG(
      DimsMatchCount({blocks(t_raw), blocks(h_raw), blocks(w_raw),
                      static_cast<std::uint64_t>(kBlockVolume)},
                     codes.size()),
      "corrupt zfp payload: dims [" << t_raw << ", " << h_raw << ", " << w_raw
                                    << "] for " << codes.size() << " codes");
  const auto t_dim = static_cast<std::int64_t>(t_raw);
  const auto h = static_cast<std::int64_t>(h_raw);
  const auto w = static_cast<std::int64_t>(w_raw);

  Tensor out({t_dim, h, w});
  double block[kBlockVolume];
  std::size_t cursor = 0;
  for (std::int64_t t0 = 0; t0 < t_dim; t0 += kBlock) {
    for (std::int64_t y0 = 0; y0 < h; y0 += kBlock) {
      for (std::int64_t x0 = 0; x0 < w; x0 += kBlock) {
        for (std::int64_t i = 0; i < kBlockVolume; ++i) {
          GLSC_CHECK(cursor < codes.size());
          block[i] = codes[cursor++] * step;
        }
        ApplyAlongAxes(block, HaarInverse4);
        for (std::int64_t t = 0; t < kBlock && t0 + t < t_dim; ++t) {
          for (std::int64_t y = 0; y < kBlock && y0 + y < h; ++y) {
            for (std::int64_t x = 0; x < kBlock && x0 + x < w; ++x) {
              out.data()[((t0 + t) * h + y0 + y) * w + x0 + x] =
                  static_cast<float>(block[(t * kBlock + y) * kBlock + x]);
            }
          }
        }
      }
    }
  }
  GLSC_CHECK(cursor == codes.size());
  return out;
}

}  // namespace glsc::baselines
