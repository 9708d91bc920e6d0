#include "baselines/sz_like.h"

#include <algorithm>
#include <cmath>

#include "codec/huffman.h"
#include "tensor/workspace.h"
#include "util/bytes.h"
#include "util/check.h"

namespace glsc::baselines {
namespace {

struct Dims {
  std::int64_t t, h, w;
  std::int64_t Index(std::int64_t ti, std::int64_t yi, std::int64_t xi) const {
    return (ti * h + yi) * w + xi;
  }
};

// Visits every lattice point in the fixed multilevel traversal, invoking
// visit(point_index, neighbour_a, neighbour_b) where the neighbours are the
// already-reconstructed prediction sources (b == -1 for copy prediction, both
// -1 for the very first point). Shared by encoder and decoder so the
// traversal can never diverge.
template <typename Visit>
void Traverse(const Dims& d, Visit&& visit) {
  const std::int64_t max_dim = std::max({d.t, d.h, d.w});
  std::int64_t stride = 1;
  while (stride < max_dim) stride *= 2;

  // Coarsest lattice: delta-chain in scan order.
  std::int64_t prev = -1;
  for (std::int64_t ti = 0; ti < d.t; ti += stride) {
    for (std::int64_t yi = 0; yi < d.h; yi += stride) {
      for (std::int64_t xi = 0; xi < d.w; xi += stride) {
        const std::int64_t idx = d.Index(ti, yi, xi);
        visit(idx, prev, static_cast<std::int64_t>(-1));
        prev = idx;
      }
    }
  }

  for (std::int64_t s = stride; s >= 2; s /= 2) {
    const std::int64_t half = s / 2;
    // Phase t: interpolate along the time axis.
    for (std::int64_t ti = half; ti < d.t; ti += s) {
      for (std::int64_t yi = 0; yi < d.h; yi += s) {
        for (std::int64_t xi = 0; xi < d.w; xi += s) {
          const std::int64_t left = d.Index(ti - half, yi, xi);
          const std::int64_t right =
              (ti + half < d.t) ? d.Index(ti + half, yi, xi) : -1;
          visit(d.Index(ti, yi, xi), left, right);
        }
      }
    }
    // Phase y.
    for (std::int64_t ti = 0; ti < d.t; ti += half) {
      for (std::int64_t yi = half; yi < d.h; yi += s) {
        for (std::int64_t xi = 0; xi < d.w; xi += s) {
          const std::int64_t up = d.Index(ti, yi - half, xi);
          const std::int64_t dn =
              (yi + half < d.h) ? d.Index(ti, yi + half, xi) : -1;
          visit(d.Index(ti, yi, xi), up, dn);
        }
      }
    }
    // Phase x.
    for (std::int64_t ti = 0; ti < d.t; ti += half) {
      for (std::int64_t yi = 0; yi < d.h; yi += half) {
        for (std::int64_t xi = half; xi < d.w; xi += s) {
          const std::int64_t lf = d.Index(ti, yi, xi - half);
          const std::int64_t rt =
              (xi + half < d.w) ? d.Index(ti, yi, xi + half) : -1;
          visit(d.Index(ti, yi, xi), lf, rt);
        }
      }
    }
  }
}

double Predict(const double* recon, std::int64_t a, std::int64_t b) {
  if (a < 0 && b < 0) return 0.0;
  if (b < 0) return recon[static_cast<std::size_t>(a)];
  if (a < 0) return recon[static_cast<std::size_t>(b)];
  return 0.5 * (recon[static_cast<std::size_t>(a)] +
                recon[static_cast<std::size_t>(b)]);
}

}  // namespace

std::vector<std::uint8_t> SZLikeCompressor::Compress(const Tensor& field,
                                                     double abs_bound) {
  GLSC_CHECK(field.rank() == 3);
  GLSC_CHECK_MSG(abs_bound > 0.0, "error bound must be positive");
  const Dims d{field.dim(0), field.dim(1), field.dim(2)};
  // Prediction runs in double but the output is float32; shave the bound by
  // one float ulp at the data's magnitude so the cast cannot break the
  // pointwise guarantee. The effective bound travels in the header so the
  // decoder reconstructs identically.
  const double max_abs = std::max(std::fabs(static_cast<double>(field.MaxValue())),
                                  std::fabs(static_cast<double>(field.MinValue())));
  const double eb_eff = std::max(abs_bound - max_abs * 1.2e-7, abs_bound * 0.5);
  const double twice_eb = 2.0 * eb_eff;

  std::vector<double> recon(static_cast<std::size_t>(field.numel()), 0.0);
  std::vector<std::int32_t> codes;
  codes.reserve(recon.size());
  const float* src = field.data();

  Traverse(d, [&](std::int64_t idx, std::int64_t a, std::int64_t b) {
    const double pred = Predict(recon.data(), a, b);
    const double diff = static_cast<double>(src[idx]) - pred;
    const auto k = static_cast<std::int64_t>(std::llround(diff / twice_eb));
    GLSC_CHECK_MSG(k >= INT32_MIN && k <= INT32_MAX, "code overflow");
    codes.push_back(static_cast<std::int32_t>(k));
    recon[static_cast<std::size_t>(idx)] = pred + twice_eb * k;
  });

  ByteWriter out;
  out.PutVarU64(static_cast<std::uint64_t>(d.t));
  out.PutVarU64(static_cast<std::uint64_t>(d.h));
  out.PutVarU64(static_cast<std::uint64_t>(d.w));
  out.PutF64(eb_eff);
  const auto huff = codec::HuffmanEncode(codes);
  out.PutVarU64(huff.size());
  out.PutBytes(huff.data(), huff.size());
  return out.Release();
}

Tensor SZLikeCompressor::Decompress(const std::vector<std::uint8_t>& bytes,
                                    tensor::Workspace* ws) {
  ByteReader in(bytes);
  const std::uint64_t t = in.GetVarU64();
  const std::uint64_t h = in.GetVarU64();
  const std::uint64_t w = in.GetVarU64();
  const double abs_bound = in.GetF64();
  const double twice_eb = 2.0 * abs_bound;
  const std::uint64_t huff_size = in.GetVarU64();
  GLSC_CHECK_MSG(huff_size <= in.remaining(),
                 "corrupt sz payload: Huffman stream of "
                     << huff_size << " bytes, " << in.remaining() << " left");

  tensor::Workspace::Scope scope(ws);
  codec::HuffmanReader codes(bytes.data() + in.pos(),
                             static_cast<std::size_t>(huff_size), ws);
  // The traversal visits every lattice point once and takes one code at
  // each, so a stream decodes only if it holds exactly T·H·W codes. Checking
  // that first sizes recon by the validated count, never by declared dims.
  GLSC_CHECK_MSG(DimsMatchCount({t, h, w}, codes.count()),
                 "corrupt sz payload: dims [" << t << ", " << h << ", " << w
                                              << "] for " << codes.count()
                                              << " codes");
  const Dims d{static_cast<std::int64_t>(t), static_cast<std::int64_t>(h),
               static_cast<std::int64_t>(w)};
  const auto n = static_cast<std::size_t>(codes.count());

  // Prediction reads only points already reconstructed, so recon needs no
  // zero fill.
  std::vector<double> heap_recon;
  double* recon = nullptr;
  if (ws != nullptr) {
    recon = reinterpret_cast<double*>(
        ws->Allocate(static_cast<std::int64_t>(2 * n)));
  } else {
    heap_recon.resize(n);
    recon = heap_recon.data();
  }
  Traverse(d, [&](std::int64_t idx, std::int64_t a, std::int64_t b) {
    const double pred = Predict(recon, a, b);
    recon[idx] = pred + twice_eb * codes.Next();
  });

  Tensor out = Tensor::Empty({d.t, d.h, d.w});
  float* dst = out.data();
  for (std::size_t i = 0; i < n; ++i) dst[i] = static_cast<float>(recon[i]);
  return out;
}

}  // namespace glsc::baselines
