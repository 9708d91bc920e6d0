#include "tensor/gemm.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "tensor/im2col.h"
#include "tensor/simd/kernels.h"
#include "util/check.h"

namespace glsc {
namespace {

// Cache-blocking parameters. The micro-kernel works on mr x nr tiles of C
// (tile dims come from the dispatched kernel table) with the K loop innermost
// over packed panels; sizes are chosen so an MC x KC panel of A (~128 KiB)
// stays L2-resident. The K panel length is shared with the attention
// kernels, which must split their sums where GEMM does.
constexpr std::int64_t kMC = 132;  // multiple of both 4 and 6 (tile heights)
constexpr std::int64_t kKC = simd::kGemmKC;
constexpr std::int64_t kNC = kGemmBlockCols;
// Widest micro-tile of any kernel table (AVX-512's 32 columns).
constexpr std::int64_t kMaxNr = 32;

// Packs a row-major (possibly transposed) block of A into column-panel order:
// consecutive mr-row strips, each strip laid out K-major. Full strips take
// branch-free contiguous-copy paths; only the ragged edge pays per-element
// bounds checks and zero padding.
void PackA(bool trans, const float* a, std::int64_t lda, std::int64_t row0,
           std::int64_t m, std::int64_t k0, std::int64_t k, std::int64_t mr,
           float* packed) {
  for (std::int64_t i = 0; i < m; i += mr) {
    const std::int64_t ib = std::min(mr, m - i);
    if (ib == mr) {
      if (trans) {
        // Source rows are K-major already: one contiguous mr-copy per p.
        const float* src = a + k0 * lda + row0 + i;
        for (std::int64_t p = 0; p < k; ++p) {
          std::memcpy(packed, src, static_cast<std::size_t>(mr) * sizeof(float));
          packed += mr;
          src += lda;
        }
      } else {
        // Contiguous reads along each row, strided writes into the strip.
        for (std::int64_t ii = 0; ii < mr; ++ii) {
          const float* src = a + (row0 + i + ii) * lda + k0;
          float* dst = packed + ii;
          for (std::int64_t p = 0; p < k; ++p) dst[p * mr] = src[p];
        }
        packed += k * mr;
      }
      continue;
    }
    for (std::int64_t p = 0; p < k; ++p) {
      for (std::int64_t ii = 0; ii < mr; ++ii) {
        float v = 0.0f;
        if (ii < ib) {
          const std::int64_t r = row0 + i + ii;
          const std::int64_t c = k0 + p;
          v = trans ? a[c * lda + r] : a[r * lda + c];
        }
        *packed++ = v;
      }
    }
  }
}

// Packs a block of B into row-panel order: consecutive nr-column strips.
void PackB(bool trans, const float* b, std::int64_t ldb, std::int64_t k0,
           std::int64_t k, std::int64_t col0, std::int64_t n, std::int64_t nr,
           float* packed) {
  for (std::int64_t j = 0; j < n; j += nr) {
    const std::int64_t jb = std::min(nr, n - j);
    if (jb == nr) {
      if (!trans) {
        // One contiguous nr-copy per p.
        const float* src = b + k0 * ldb + col0 + j;
        for (std::int64_t p = 0; p < k; ++p) {
          std::memcpy(packed, src, static_cast<std::size_t>(nr) * sizeof(float));
          packed += nr;
          src += ldb;
        }
      } else {
        // Contiguous reads along each source row, strided strip writes.
        for (std::int64_t jj = 0; jj < nr; ++jj) {
          const float* src = b + (col0 + j + jj) * ldb + k0;
          float* dst = packed + jj;
          for (std::int64_t p = 0; p < k; ++p) dst[p * nr] = src[p];
        }
        packed += k * nr;
      }
      continue;
    }
    for (std::int64_t p = 0; p < k; ++p) {
      for (std::int64_t jj = 0; jj < nr; ++jj) {
        float v = 0.0f;
        if (jj < jb) {
          const std::int64_t r = k0 + p;
          const std::int64_t c = col0 + j + jj;
          v = trans ? b[c * ldb + r] : b[r * ldb + c];
        }
        *packed++ = v;
      }
    }
  }
}

// Packs a block of the implicit column matrix of a convolution in PackB's
// layout, reading the padded planes directly. Entry (row (c, ki, kj),
// column (f, oy, ox)) sits at
//   data[(f*C*H*W + oy*stride*W + ox*stride) + (c*H*W + ki*W + kj)],
// a column offset plus a row offset. A strip's columns split into runs that
// stay inside one output row, and each run is one copy per K row: plain
// copies at stride 1, a strided copy otherwise. Ragged strips are
// zero-filled past jb, as PackB fills them. Row and column indices advance
// incrementally; only the block's first entry is found by division.
void PackConvB(const ConvFrames& in, std::int64_t oh, std::int64_t ow,
               std::int64_t k0, std::int64_t k, std::int64_t col0,
               std::int64_t n, std::int64_t nr, float* packed) {
  const std::int64_t plane = in.height * in.width;
  const std::int64_t taps = in.kernel * in.kernel;
  const std::int64_t stride = in.stride;
  std::int64_t row_offset[kKC];
  {
    std::int64_t c = k0 / taps;
    std::int64_t ki = k0 % taps / in.kernel;
    std::int64_t kj = k0 % in.kernel;
    for (std::int64_t p = 0; p < k; ++p) {
      row_offset[p] = c * plane + ki * in.width + kj;
      if (++kj == in.kernel) {
        kj = 0;
        if (++ki == in.kernel) {
          ki = 0;
          ++c;
        }
      }
    }
  }
  struct Run {
    std::int64_t dst, len, src;
  };
  Run runs[kMaxNr];
  std::int64_t f = col0 / (oh * ow);
  std::int64_t oy = col0 % (oh * ow) / ow;
  std::int64_t ox = col0 % ow;
  for (std::int64_t j = 0; j < n; j += nr) {
    const std::int64_t jb = std::min(nr, n - j);
    int count = 0;
    for (std::int64_t jj = 0; jj < jb;) {
      const std::int64_t len = std::min(ow - ox, jb - jj);
      runs[count++] = {jj, len,
                       f * in.channels * plane + (oy * in.width + ox) * stride};
      jj += len;
      ox += len;
      if (ox == ow) {
        ox = 0;
        if (++oy == oh) {
          oy = 0;
          ++f;
        }
      }
    }
    for (std::int64_t p = 0; p < k; ++p) {
      const float* src_row = in.data + row_offset[p];
      for (int r = 0; r < count; ++r) {
        const float* src = src_row + runs[r].src;
        float* dst = packed + runs[r].dst;
        const std::int64_t len = runs[r].len;
        if (stride == 1) {
          // Fixed-size copies inline; runs are short (one output row).
          std::int64_t x = 0;
          for (; x + 8 <= len; x += 8) {
            std::memcpy(dst + x, src + x, 8 * sizeof(float));
          }
          for (; x < len; ++x) dst[x] = src[x];
        } else {
          for (std::int64_t x = 0; x < len; ++x) dst[x] = src[x * stride];
        }
      }
      if (jb < nr) std::fill(packed + jb, packed + nr, 0.0f);
      packed += nr;
    }
  }
}

// Applies the fused epilogue to rows [row0, row0+nrows) x cols
// [col0, col0+ncols) of C.
void ApplyEpilogue(const simd::KernelTable& kernels, float* c, std::int64_t ldc,
                   std::int64_t row0, std::int64_t nrows, std::int64_t col0,
                   std::int64_t ncols, const float* bias,
                   GemmEpilogue epilogue) {
  const bool per_col = epilogue == GemmEpilogue::kBiasCol;
  const float* col_bias = per_col ? bias + col0 : nullptr;
  for (std::int64_t r = 0; r < nrows; ++r) {
    kernels.bias_row(c + (row0 + r) * ldc + col0, ncols,
                     per_col ? 0.0f : bias[row0 + r], col_bias);
  }
}

// The blocked GEMM loop, with B supplied by `pack_b(k0, kb, col0, nb, nr,
// packed)`, which writes the kb x nb block of B at (k0, col0) as PackB
// does: nr-column strips, K-major within a strip, ragged strips
// zero-filled.
template <typename PackBlockB>
void BlockedGemm(bool trans_a, std::int64_t m, std::int64_t n, std::int64_t k,
                 float alpha, const float* a, std::int64_t lda,
                 const PackBlockB& pack_b, float beta, float* c,
                 std::int64_t ldc, const float* bias, GemmEpilogue epilogue) {
  GLSC_CHECK(m >= 0 && n >= 0 && k >= 0);
  GLSC_CHECK(epilogue == GemmEpilogue::kNone || bias != nullptr);
  if (m == 0 || n == 0) return;

  const simd::KernelTable& kernels = simd::ActiveKernels();
  const std::int64_t mr = kernels.mr;
  const std::int64_t nr = kernels.nr;

  // Scale C by beta once, up front.
  if (beta == 0.0f) {
    for (std::int64_t i = 0; i < m; ++i) {
      std::memset(c + i * ldc, 0, static_cast<std::size_t>(n) * sizeof(float));
    }
  } else if (beta != 1.0f) {
    for (std::int64_t i = 0; i < m; ++i) {
      for (std::int64_t j = 0; j < n; ++j) c[i * ldc + j] *= beta;
    }
  }
  if (k == 0 || alpha == 0.0f) {
    // The product contributes nothing, but the epilogue still applies.
    if (epilogue != GemmEpilogue::kNone) {
      ApplyEpilogue(kernels, c, ldc, 0, m, 0, n, bias, epilogue);
    }
    return;
  }

  // Packing buffers, padded to full micro-tiles and 64-byte aligned so the
  // micro-kernel's 32-byte panel loads never split cache lines. BLIS loop
  // order (NC -> KC -> MC) packs each B block exactly once and reuses it
  // across every M panel; A panels are repacked per NC block, which only
  // costs when n > kNC.
  const std::size_t a_elems =
      static_cast<std::size_t>(((kMC + mr - 1) / mr) * mr * kKC);
  const std::size_t b_elems =
      static_cast<std::size_t>(((kNC + nr - 1) / nr) * nr * kKC);
  // One grow-only buffer per thread, reused by every call on it: packed
  // panels are fully written before the micro-kernel reads them, so stale
  // contents cannot leak into the product. It grows on a thread's first
  // call, and again only if a dispatch override switches to wider tiles.
  thread_local std::vector<float> pack_storage;
  if (pack_storage.size() < a_elems + b_elems + 32) {
    pack_storage.resize(a_elems + b_elems + 32);
  }
  float* const storage = pack_storage.data();
  auto align64 = [](float* p) {
    return reinterpret_cast<float*>(
        (reinterpret_cast<std::uintptr_t>(p) + 63) & ~std::uintptr_t{63});
  };
  float* const packed_a = align64(storage);
  float* const packed_b = align64(packed_a + a_elems);

  for (std::int64_t j0 = 0; j0 < n; j0 += kNC) {
    const std::int64_t nb = std::min(kNC, n - j0);
    for (std::int64_t p0 = 0; p0 < k; p0 += kKC) {
      const std::int64_t kb = std::min(kKC, k - p0);
      // Once the last K panel has been accumulated, a micro-tile of C is
      // final and the epilogue can run on it while it is still cache-hot.
      const bool final_panel = p0 + kb == k;
      pack_b(p0, kb, j0, nb, nr, packed_b);
      for (std::int64_t i0 = 0; i0 < m; i0 += kMC) {
        const std::int64_t mb = std::min(kMC, m - i0);
        PackA(trans_a, a, lda, i0, mb, p0, kb, mr, packed_a);

        for (std::int64_t i = 0; i < mb; i += mr) {
          const std::int64_t ib = std::min(mr, mb - i);
          const float* a_panel = packed_a + (i / mr) * kb * mr;
          for (std::int64_t j = 0; j < nb; j += nr) {
            const std::int64_t jb = std::min(nr, nb - j);
            const float* b_panel = packed_b + (j / nr) * kb * nr;
            float* c_tile = c + (i0 + i) * ldc + j0 + j;
            kernels.gemm_micro(kb, a_panel, b_panel, alpha, c_tile, ldc, ib,
                               jb);
            if (final_panel && epilogue != GemmEpilogue::kNone) {
              ApplyEpilogue(kernels, c, ldc, i0 + i, ib, j0 + j, jb, bias,
                            epilogue);
            }
          }
        }
      }
    }
  }
}

}  // namespace

void GemmEx(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
            std::int64_t k, float alpha, const float* a, std::int64_t lda,
            const float* b, std::int64_t ldb, float beta, float* c,
            std::int64_t ldc, const float* bias, GemmEpilogue epilogue) {
  BlockedGemm(
      trans_a, m, n, k, alpha, a, lda,
      [&](std::int64_t k0, std::int64_t kb, std::int64_t col0,
          std::int64_t nb, std::int64_t nr, float* packed) {
        PackB(trans_b, b, ldb, k0, kb, col0, nb, nr, packed);
      },
      beta, c, ldc, bias, epilogue);
}

void ConvGemm(std::int64_t m, const float* a, std::int64_t lda,
              const ConvFrames& in, float* c, std::int64_t ldc,
              const float* bias, GemmEpilogue epilogue) {
  const std::int64_t oh = ConvOutDim(in.height, in.kernel, in.stride, 0);
  const std::int64_t ow = ConvOutDim(in.width, in.kernel, in.stride, 0);
  GLSC_CHECK(in.frames >= 0 && in.stride >= 1 && oh > 0 && ow > 0);
  GLSC_CHECK(simd::ActiveKernels().nr <= kMaxNr);
  BlockedGemm(
      false, m, in.frames * oh * ow, in.channels * in.kernel * in.kernel,
      1.0f, a, lda,
      [&](std::int64_t k0, std::int64_t kb, std::int64_t col0,
          std::int64_t nb, std::int64_t nr, float* packed) {
        PackConvB(in, oh, ow, k0, kb, col0, nb, nr, packed);
      },
      0.0f, c, ldc, bias, epilogue);
}

void Gemm(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
          std::int64_t k, float alpha, const float* a, std::int64_t lda,
          const float* b, std::int64_t ldb, float beta, float* c,
          std::int64_t ldc) {
  GemmEx(trans_a, trans_b, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc,
         nullptr, GemmEpilogue::kNone);
}

void MatMul(const float* a, const float* b, float* c, std::int64_t m,
            std::int64_t n, std::int64_t k) {
  Gemm(false, false, m, n, k, 1.0f, a, k, b, n, 0.0f, c, n);
}

}  // namespace glsc
