// AVX2+FMA kernels. This translation unit is compiled with -mavx2 -mfma (see
// CMakeLists.txt); nothing here may be called unless runtime dispatch
// established AVX2 support, so keeping the flags file-local is safe — the
// pattern follows c-blosc2's per-ISA shuffle units.
#include "tensor/simd/kernels.h"

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#endif

namespace glsc::simd {

#if defined(__AVX2__) && defined(__FMA__)

namespace {

constexpr std::int64_t kMr = 6;
constexpr std::int64_t kNr = 16;

// 8-lane expf, Cephes polynomial (as popularized by avx_mathfun): relative
// error ~2e-7 over the clamped range, which is well inside every consumer's
// tolerance (softmax renormalizes; SiLU feeds gradcheck at eps 1e-2).
inline __m256 Exp256(__m256 x) {
  const __m256 hi = _mm256_set1_ps(88.3762626647949f);
  const __m256 lo = _mm256_set1_ps(-88.3762626647949f);
  const __m256 log2e = _mm256_set1_ps(1.44269504088896341f);
  const __m256 c1 = _mm256_set1_ps(0.693359375f);
  const __m256 c2 = _mm256_set1_ps(-2.12194440e-4f);
  const __m256 one = _mm256_set1_ps(1.0f);

  x = _mm256_min_ps(_mm256_max_ps(x, lo), hi);
  __m256 fx = _mm256_fmadd_ps(x, log2e, _mm256_set1_ps(0.5f));
  fx = _mm256_floor_ps(fx);
  // x -= fx * ln2, split into a high and a low part for extra precision.
  x = _mm256_fnmadd_ps(fx, c1, x);
  x = _mm256_fnmadd_ps(fx, c2, x);

  const __m256 z = _mm256_mul_ps(x, x);
  __m256 y = _mm256_set1_ps(1.9875691500e-4f);
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(1.3981999507e-3f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(8.3334519073e-3f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(4.1665795894e-2f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(1.6666665459e-1f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(5.0000001201e-1f));
  y = _mm256_fmadd_ps(y, z, x);
  y = _mm256_add_ps(y, one);

  // 2^fx via exponent-field construction.
  __m256i n = _mm256_cvttps_epi32(fx);
  n = _mm256_add_epi32(n, _mm256_set1_epi32(0x7f));
  n = _mm256_slli_epi32(n, 23);
  return _mm256_mul_ps(y, _mm256_castsi256_ps(n));
}

// sigmoid(x) = 1 / (1 + exp(-x))
inline __m256 Sigmoid256(__m256 x) {
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 e = Exp256(_mm256_sub_ps(_mm256_setzero_ps(), x));
  return _mm256_div_ps(one, _mm256_add_ps(one, e));
}

inline float SigmoidScalar(float x) { return 1.0f / (1.0f + std::exp(-x)); }

inline float HSum256(__m256 v) {
  const __m128 s =
      _mm_add_ps(_mm256_castps256_ps128(v), _mm256_extractf128_ps(v, 1));
  const __m128 t = _mm_add_ps(s, _mm_movehl_ps(s, s));
  const __m128 u = _mm_add_ss(t, _mm_shuffle_ps(t, t, 1));
  return _mm_cvtss_f32(u);
}

inline double HSum256d(__m256d v) {
  const __m128d s =
      _mm_add_pd(_mm256_castpd256_pd128(v), _mm256_extractf128_pd(v, 1));
  return _mm_cvtsd_f64(_mm_add_sd(s, _mm_unpackhi_pd(s, s)));
}

// 6x16 register tile: 12 accumulator ymm registers, two B loads and one A
// broadcast live per k step — 15 of the 16 architectural registers.
void GemmMicroAvx2(std::int64_t kb, const float* a_panel, const float* b_panel,
                   float alpha, float* c, std::int64_t ldc, std::int64_t ib,
                   std::int64_t jb) {
  __m256 acc[kMr][2];
  for (std::int64_t i = 0; i < kMr; ++i) {
    acc[i][0] = _mm256_setzero_ps();
    acc[i][1] = _mm256_setzero_ps();
  }
  // Warm the C tile while the k-loop runs; the write-back below touches it.
  for (std::int64_t i = 0; i < ib; ++i) {
    _mm_prefetch(reinterpret_cast<const char*>(c + i * ldc), _MM_HINT_T0);
    _mm_prefetch(reinterpret_cast<const char*>(c + i * ldc + 15), _MM_HINT_T0);
  }
  // Two k-steps per iteration: halves the loop-carried overhead and lets the
  // scheduler interleave the two independent FMA waves.
  std::int64_t p = 0;
  for (; p + 2 <= kb; p += 2) {
    const float* arow = a_panel + p * kMr;
    const float* brow = b_panel + p * kNr;
    _mm_prefetch(reinterpret_cast<const char*>(brow + 8 * kNr), _MM_HINT_T0);
    _mm_prefetch(reinterpret_cast<const char*>(brow + 8 * kNr + 16),
                 _MM_HINT_T0);
    const __m256 b0 = _mm256_load_ps(brow);
    const __m256 b1 = _mm256_load_ps(brow + 8);
    for (std::int64_t i = 0; i < kMr; ++i) {
      const __m256 av = _mm256_broadcast_ss(arow + i);
      acc[i][0] = _mm256_fmadd_ps(av, b0, acc[i][0]);
      acc[i][1] = _mm256_fmadd_ps(av, b1, acc[i][1]);
    }
    const __m256 b2 = _mm256_load_ps(brow + kNr);
    const __m256 b3 = _mm256_load_ps(brow + kNr + 8);
    for (std::int64_t i = 0; i < kMr; ++i) {
      const __m256 av = _mm256_broadcast_ss(arow + kMr + i);
      acc[i][0] = _mm256_fmadd_ps(av, b2, acc[i][0]);
      acc[i][1] = _mm256_fmadd_ps(av, b3, acc[i][1]);
    }
  }
  if (p < kb) {
    const float* arow = a_panel + p * kMr;
    const __m256 b0 = _mm256_load_ps(b_panel + p * kNr);
    const __m256 b1 = _mm256_load_ps(b_panel + p * kNr + 8);
    for (std::int64_t i = 0; i < kMr; ++i) {
      const __m256 av = _mm256_broadcast_ss(arow + i);
      acc[i][0] = _mm256_fmadd_ps(av, b0, acc[i][0]);
      acc[i][1] = _mm256_fmadd_ps(av, b1, acc[i][1]);
    }
  }
  const __m256 valpha = _mm256_set1_ps(alpha);
  if (ib == kMr && jb == kNr) {
    for (std::int64_t i = 0; i < kMr; ++i) {
      float* crow = c + i * ldc;
      _mm256_storeu_ps(
          crow, _mm256_fmadd_ps(valpha, acc[i][0], _mm256_loadu_ps(crow)));
      _mm256_storeu_ps(crow + 8, _mm256_fmadd_ps(valpha, acc[i][1],
                                                 _mm256_loadu_ps(crow + 8)));
    }
    return;
  }
  alignas(32) float buf[kMr][kNr];
  for (std::int64_t i = 0; i < kMr; ++i) {
    _mm256_store_ps(buf[i], acc[i][0]);
    _mm256_store_ps(buf[i] + 8, acc[i][1]);
  }
  for (std::int64_t i = 0; i < ib; ++i) {
    float* crow = c + i * ldc;
    for (std::int64_t j = 0; j < jb; ++j) crow[j] += alpha * buf[i][j];
  }
}

void SiluFwdAvx2(const float* x, float* y, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(x + i);
    _mm256_storeu_ps(y + i, _mm256_mul_ps(v, Sigmoid256(v)));
  }
  for (; i < n; ++i) y[i] = x[i] * SigmoidScalar(x[i]);
}

void SiluBwdAvx2(const float* x, const float* g, float* out, std::int64_t n) {
  const __m256 one = _mm256_set1_ps(1.0f);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(x + i);
    const __m256 s = Sigmoid256(v);
    // g * s * (1 + x * (1 - s))
    const __m256 t = _mm256_fmadd_ps(v, _mm256_sub_ps(one, s), one);
    _mm256_storeu_ps(out + i,
                     _mm256_mul_ps(_mm256_loadu_ps(g + i), _mm256_mul_ps(s, t)));
  }
  for (; i < n; ++i) {
    const float s = SigmoidScalar(x[i]);
    out[i] = g[i] * s * (1.0f + x[i] * (1.0f - s));
  }
}

void SoftmaxRowAvx2(float* row, std::int64_t n) {
  std::int64_t i = 0;
  float mx;
  if (n >= 8) {
    __m256 vmax = _mm256_loadu_ps(row);
    for (i = 8; i + 8 <= n; i += 8) {
      vmax = _mm256_max_ps(vmax, _mm256_loadu_ps(row + i));
    }
    const __m128 m4 = _mm_max_ps(_mm256_castps256_ps128(vmax),
                                 _mm256_extractf128_ps(vmax, 1));
    const __m128 m2 = _mm_max_ps(m4, _mm_movehl_ps(m4, m4));
    mx = _mm_cvtss_f32(_mm_max_ss(m2, _mm_shuffle_ps(m2, m2, 1)));
  } else {
    mx = row[0];
    i = 1;
  }
  for (; i < n; ++i) mx = std::max(mx, row[i]);

  const __m256 vmx = _mm256_set1_ps(mx);
  __m256 vsum = _mm256_setzero_ps();
  double sum = 0.0;
  for (i = 0; i + 8 <= n; i += 8) {
    const __m256 e = Exp256(_mm256_sub_ps(_mm256_loadu_ps(row + i), vmx));
    _mm256_storeu_ps(row + i, e);
    vsum = _mm256_add_ps(vsum, e);
  }
  sum += static_cast<double>(HSum256(vsum));
  for (; i < n; ++i) {
    row[i] = std::exp(row[i] - mx);
    sum += row[i];
  }
  const __m256 vinv = _mm256_set1_ps(static_cast<float>(1.0 / sum));
  for (i = 0; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(row + i, _mm256_mul_ps(_mm256_loadu_ps(row + i), vinv));
  }
  const float inv = static_cast<float>(1.0 / sum);
  for (; i < n; ++i) row[i] *= inv;
}

// ---- attention ----

// Lanes [0, n) of an 8-lane mask, for the ragged column block.
inline __m256i LeadingLanes(std::int64_t n) {
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(n)),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

// R rows of one 8-column block of C over one K panel, each element formed
// as GemmMicroAvx2 forms it: acc from zero, one FMA per term in index order,
// then c = fma(alpha, acc, c), with c = 0 on the first panel. Row r of A
// starts at a + r * lda; B row p is the 8 floats at b + p * ldb. kMasked
// limits B loads and C accesses to the lanes set in `mask`.
template <int R, bool kMasked>
inline void PanelRowsAvx2(const float* a, std::int64_t lda, const float* b,
                          std::int64_t ldb, std::int64_t kb, float alpha,
                          __m256i mask, bool first, float* c,
                          std::int64_t ldc) {
  __m256 acc[R];
  for (int r = 0; r < R; ++r) acc[r] = _mm256_setzero_ps();
  for (std::int64_t p = 0; p < kb; ++p) {
    const __m256 bv = kMasked ? _mm256_maskload_ps(b + p * ldb, mask)
                              : _mm256_loadu_ps(b + p * ldb);
    for (int r = 0; r < R; ++r) {
      acc[r] = _mm256_fmadd_ps(_mm256_broadcast_ss(a + r * lda + p), bv,
                               acc[r]);
    }
  }
  const __m256 valpha = _mm256_set1_ps(alpha);
  for (int r = 0; r < R; ++r) {
    float* crow = c + r * ldc;
    __m256 cv = _mm256_setzero_ps();
    if (!first) {
      cv = kMasked ? _mm256_maskload_ps(crow, mask) : _mm256_loadu_ps(crow);
    }
    cv = _mm256_fmadd_ps(valpha, acc[r], cv);
    if (kMasked) {
      _mm256_maskstore_ps(crow, mask, cv);
    } else {
      _mm256_storeu_ps(crow, cv);
    }
  }
}

// One `width`-column block (1..8) of all `rows` rows of C over one K panel,
// four rows at a time so four FMA chains are in flight.
template <bool kMasked>
void PanelAvx2(const float* a, std::int64_t lda, const float* b,
               std::int64_t ldb, std::int64_t rows, std::int64_t kb,
               float alpha, __m256i mask, bool first, float* c,
               std::int64_t ldc) {
  std::int64_t i = 0;
  for (; i + 4 <= rows; i += 4) {
    PanelRowsAvx2<4, kMasked>(a + i * lda, lda, b, ldb, kb, alpha, mask,
                              first, c + i * ldc, ldc);
  }
  for (; i < rows; ++i) {
    PanelRowsAvx2<1, kMasked>(a + i * lda, lda, b, ldb, kb, alpha, mask,
                              first, c + i * ldc, ldc);
  }
}

void ColumnBlockAvx2(const float* a, std::int64_t lda, const float* b,
                     std::int64_t ldb, std::int64_t rows, std::int64_t kb,
                     float alpha, std::int64_t width, bool first, float* c,
                     std::int64_t ldc) {
  if (width == 8) {
    PanelAvx2<false>(a, lda, b, ldb, rows, kb, alpha, _mm256_setzero_si256(),
                     first, c, ldc);
  } else {
    PanelAvx2<true>(a, lda, b, ldb, rows, kb, alpha, LeadingLanes(width),
                    first, c, ldc);
  }
}

// Kept in this file so its FMAs compile as GemmMicroAvx2's do; AVX-512,
// whose GEMM also fuses, inherits it with this softmax.
void AttentionHeadAvx2(const float* q, const float* k, const float* v,
                       std::int64_t l, std::int64_t hd, float scale,
                       float* attn, float* out) {
  // attn = scale * q k^T. GEMM's B here is k^T, so each 8-key block of a K
  // panel is first transposed into kt ([kb, 8], zero past the last key).
  alignas(32) float kt[kGemmKC * 8];
  for (std::int64_t p0 = 0; p0 < hd; p0 += kGemmKC) {
    const std::int64_t kb = std::min(kGemmKC, hd - p0);
    for (std::int64_t j0 = 0; j0 < l; j0 += 8) {
      const std::int64_t width = std::min<std::int64_t>(8, l - j0);
      for (std::int64_t p = 0; p < kb; ++p) {
        for (std::int64_t jj = 0; jj < 8; ++jj) {
          kt[p * 8 + jj] = jj < width ? k[(j0 + jj) * hd + p0 + p] : 0.0f;
        }
      }
      ColumnBlockAvx2(q + p0, hd, kt, 8, l, kb, scale, width, p0 == 0,
                      attn + j0, l);
    }
  }
  for (std::int64_t i = 0; i < l; ++i) SoftmaxRowAvx2(attn + i * l, l);
  // out = attn v, eight value columns at a time.
  for (std::int64_t p0 = 0; p0 < l; p0 += kGemmKC) {
    const std::int64_t kb = std::min(kGemmKC, l - p0);
    for (std::int64_t d0 = 0; d0 < hd; d0 += 8) {
      const std::int64_t width = std::min<std::int64_t>(8, hd - d0);
      ColumnBlockAvx2(attn + p0, l, v + p0 * hd + d0, hd, l, kb, 1.0f, width,
                      p0 == 0, out + d0, hd);
    }
  }
}

void MomentsAvx2(const float* x, std::int64_t n, double* sum, double* sumsq) {
  __m256d s0 = _mm256_setzero_pd(), s1 = _mm256_setzero_pd();
  __m256d q0 = _mm256_setzero_pd(), q1 = _mm256_setzero_pd();
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(x + i);
    const __m256d lo = _mm256_cvtps_pd(_mm256_castps256_ps128(v));
    const __m256d hi = _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1));
    s0 = _mm256_add_pd(s0, lo);
    s1 = _mm256_add_pd(s1, hi);
    q0 = _mm256_fmadd_pd(lo, lo, q0);
    q1 = _mm256_fmadd_pd(hi, hi, q1);
  }
  double s = HSum256d(_mm256_add_pd(s0, s1));
  double q = HSum256d(_mm256_add_pd(q0, q1));
  for (; i < n; ++i) {
    s += x[i];
    q += static_cast<double>(x[i]) * x[i];
  }
  *sum = s;
  *sumsq = q;
}

void NormAffineAvx2(const float* x, float mean, float inv_std, float gamma,
                    float beta, float* y, std::int64_t n) {
  const __m256 vmean = _mm256_set1_ps(mean);
  const __m256 vinv = _mm256_set1_ps(inv_std);
  const __m256 vgamma = _mm256_set1_ps(gamma);
  const __m256 vbeta = _mm256_set1_ps(beta);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 xhat = _mm256_mul_ps(
        _mm256_sub_ps(_mm256_loadu_ps(x + i), vmean), vinv);
    _mm256_storeu_ps(y + i, _mm256_fmadd_ps(vgamma, xhat, vbeta));
  }
  for (; i < n; ++i) y[i] = gamma * ((x[i] - mean) * inv_std) + beta;
}

void NormAffineVecAvx2(const float* x, float mean, float inv_std,
                       const float* gamma, const float* beta, float* y,
                       std::int64_t n) {
  const __m256 vmean = _mm256_set1_ps(mean);
  const __m256 vinv = _mm256_set1_ps(inv_std);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 xhat = _mm256_mul_ps(
        _mm256_sub_ps(_mm256_loadu_ps(x + i), vmean), vinv);
    _mm256_storeu_ps(y + i, _mm256_fmadd_ps(_mm256_loadu_ps(gamma + i), xhat,
                                            _mm256_loadu_ps(beta + i)));
  }
  for (; i < n; ++i) y[i] = gamma[i] * ((x[i] - mean) * inv_std) + beta[i];
}

void BiasRowAvx2(float* row, std::int64_t n, float row_bias,
                 const float* col_bias) {
  std::int64_t i = 0;
  if (col_bias != nullptr) {
    for (; i + 8 <= n; i += 8) {
      _mm256_storeu_ps(row + i, _mm256_add_ps(_mm256_loadu_ps(row + i),
                                              _mm256_loadu_ps(col_bias + i)));
    }
    for (; i < n; ++i) row[i] += col_bias[i];
  } else {
    const __m256 vb = _mm256_set1_ps(row_bias);
    for (; i + 8 <= n; i += 8) {
      _mm256_storeu_ps(row + i, _mm256_add_ps(_mm256_loadu_ps(row + i), vb));
    }
    for (; i < n; ++i) row[i] += row_bias;
  }
}

// ---- container byte filters ----
// The movemask trick: _mm256_movemask_epi8 extracts the MSB of each byte, and
// _mm256_add_epi8(x, x) shifts every byte left by one WITHOUT crossing byte
// boundaries, so eight movemask+add rounds walk bit 7 down to bit 0. A
// 32-byte load covers four 8-byte groups, so each mask holds one bit plane
// for all four. Byte-identical to the scalar reference (pure bit movement).

void BitTransposeAvx2(const std::uint8_t* src, std::uint8_t* dst,
                      std::int64_t n) {
  const std::int64_t stride = n / 8;
  std::int64_t j = 0;
  for (; j + 4 <= stride; j += 4) {
    __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + 8 * j));
    for (int b = 7; b >= 0; --b) {
      const std::uint32_t mask =
          static_cast<std::uint32_t>(_mm256_movemask_epi8(x));
      std::memcpy(dst + b * stride + j, &mask, sizeof mask);
      x = _mm256_add_epi8(x, x);
    }
  }
  for (; j < stride; ++j) {
    for (int b = 0; b < 8; ++b) {
      std::uint8_t out = 0;
      for (int t = 0; t < 8; ++t) {
        out |= static_cast<std::uint8_t>(((src[8 * j + t] >> b) & 1) << t);
      }
      dst[b * stride + j] = out;
    }
  }
}

void BitUntransposeAvx2(const std::uint8_t* src, std::uint8_t* dst,
                        std::int64_t n) {
  const std::int64_t stride = n / 8;
  std::int64_t j = 0;
  // 32 groups per iteration: load 32 bytes from each of the 8 bit planes and
  // byte-transpose them with a 3-stage unpack tree (epi8, epi16, epi32).
  // AVX2 unpacks operate per 128-bit lane, so the tree lands columns j..j+16
  // in lane 0 and columns j+16..j+32 in lane 1 of each register; the
  // movemask core then emits four output groups per mask (two per lane).
  for (; j + 32 <= stride; j += 32) {
    __m256i x[8];
    for (int b = 0; b < 8; ++b) {
      x[b] = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(src + b * stride + j));
    }
    __m256i u[8];
    for (int b = 0; b < 4; ++b) {
      u[2 * b] = _mm256_unpacklo_epi8(x[2 * b], x[2 * b + 1]);
      u[2 * b + 1] = _mm256_unpackhi_epi8(x[2 * b], x[2 * b + 1]);
    }
    __m256i w[8];
    for (int h = 0; h < 2; ++h) {
      w[4 * h] = _mm256_unpacklo_epi16(u[h], u[2 + h]);
      w[4 * h + 1] = _mm256_unpackhi_epi16(u[h], u[2 + h]);
      w[4 * h + 2] = _mm256_unpacklo_epi16(u[4 + h], u[6 + h]);
      w[4 * h + 3] = _mm256_unpackhi_epi16(u[4 + h], u[6 + h]);
    }
    __m256i r[8];
    for (int h = 0; h < 2; ++h) {
      r[4 * h] = _mm256_unpacklo_epi32(w[4 * h], w[4 * h + 2]);
      r[4 * h + 1] = _mm256_unpackhi_epi32(w[4 * h], w[4 * h + 2]);
      r[4 * h + 2] = _mm256_unpacklo_epi32(w[4 * h + 1], w[4 * h + 3]);
      r[4 * h + 3] = _mm256_unpackhi_epi32(w[4 * h + 1], w[4 * h + 3]);
    }
    for (int h = 0; h < 2; ++h) {
      for (int c = 0; c < 4; ++c) {
        __m256i v = r[4 * h + c];
        // Lane 0 = columns g0, g0+1; lane 1 = columns g0+16, g0+17.
        const std::int64_t g0 = j + 8 * h + 2 * c;
        for (int s = 0; s < 8; ++s) {
          const std::uint32_t mask =
              static_cast<std::uint32_t>(_mm256_movemask_epi8(v));
          dst[8 * g0 + 7 - s] = static_cast<std::uint8_t>(mask & 0xFF);
          dst[8 * (g0 + 1) + 7 - s] =
              static_cast<std::uint8_t>((mask >> 8) & 0xFF);
          dst[8 * (g0 + 16) + 7 - s] =
              static_cast<std::uint8_t>((mask >> 16) & 0xFF);
          dst[8 * (g0 + 17) + 7 - s] =
              static_cast<std::uint8_t>(mask >> 24);
          v = _mm256_add_epi8(v, v);
        }
      }
    }
  }
  for (; j < stride; ++j) {
    for (int t = 0; t < 8; ++t) {
      std::uint8_t out = 0;
      for (int b = 0; b < 8; ++b) {
        out |= static_cast<std::uint8_t>(((src[b * stride + j] >> t) & 1)
                                         << b);
      }
      dst[8 * j + t] = out;
    }
  }
}

void DeltaEncodeAvx2(const std::uint8_t* src, std::uint8_t* dst,
                     std::int64_t n, std::int64_t lag) {
  const std::int64_t head = lag < n ? lag : n;
  std::memcpy(dst, src, static_cast<std::size_t>(head));
  std::int64_t i = head;
  for (; i + 32 <= n; i += 32) {
    const __m256i cur =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    const __m256i prev =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i - lag));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_sub_epi8(cur, prev));
  }
  for (; i < n; ++i) dst[i] = static_cast<std::uint8_t>(src[i] - src[i - lag]);
}

// Lagged in-place prefix sum. The power-of-two lags the container format
// emits (element sizes 1/2/4/8) vectorize with an in-register doubling scan
// plus a carry broadcast of the previous block's final `lag` bytes; lags of
// 16+ use non-overlapping vector adds; anything else falls back to scalar.
// It works in 128-bit steps: the scan is shuffle-bound either way, so 256-bit
// registers would not make it faster.
void DeltaDecodeAvx2(std::uint8_t* buf, std::int64_t n, std::int64_t lag) {
  if (lag >= 16) {
    std::int64_t i = lag;
    for (; i + 16 <= n; i += 16) {
      const __m128i cur =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(buf + i));
      const __m128i prev =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(buf + i - lag));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(buf + i),
                       _mm_add_epi8(cur, prev));
    }
    for (; i < n; ++i) {
      buf[i] = static_cast<std::uint8_t>(buf[i] + buf[i - lag]);
    }
    return;
  }
  if (n < 32 || (lag != 1 && lag != 2 && lag != 4 && lag != 8)) {
    for (std::int64_t i = lag; i < n; ++i) {
      buf[i] = static_cast<std::uint8_t>(buf[i] + buf[i - lag]);
    }
    return;
  }
  // Scalar warm-up to a 16-byte boundary keeps the vector loop aligned with
  // whole blocks; `carry` then tiles the last `lag` decoded bytes across a
  // vector for the cross-block contribution.
  std::int64_t i = lag;
  const std::int64_t vec_start = 16;
  for (; i < vec_start && i < n; ++i) {
    buf[i] = static_cast<std::uint8_t>(buf[i] + buf[i - lag]);
  }
  if (i >= n) return;
  __m128i carry;
  {
    // Tile the final `lag` bytes of the decoded prefix.
    if (lag == 1) {
      carry = _mm_set1_epi8(static_cast<char>(buf[vec_start - 1]));
    } else if (lag == 2) {
      std::uint16_t c;
      std::memcpy(&c, buf + vec_start - 2, sizeof c);
      carry = _mm_set1_epi16(static_cast<short>(c));
    } else if (lag == 4) {
      std::uint32_t c;
      std::memcpy(&c, buf + vec_start - 4, sizeof c);
      carry = _mm_set1_epi32(static_cast<int>(c));
    } else {
      std::uint64_t c;
      std::memcpy(&c, buf + vec_start - 8, sizeof c);
      carry = _mm_set1_epi64x(static_cast<long long>(c));
    }
  }
  for (; i + 16 <= n; i += 16) {
    __m128i x = _mm_loadu_si128(reinterpret_cast<const __m128i*>(buf + i));
    // In-register lagged scan: doubling shifts accumulate every in-block
    // predecessor, then the carry adds the cross-block prefix.
    if (lag == 1) {
      x = _mm_add_epi8(x, _mm_slli_si128(x, 1));
      x = _mm_add_epi8(x, _mm_slli_si128(x, 2));
      x = _mm_add_epi8(x, _mm_slli_si128(x, 4));
      x = _mm_add_epi8(x, _mm_slli_si128(x, 8));
    } else if (lag == 2) {
      x = _mm_add_epi8(x, _mm_slli_si128(x, 2));
      x = _mm_add_epi8(x, _mm_slli_si128(x, 4));
      x = _mm_add_epi8(x, _mm_slli_si128(x, 8));
    } else if (lag == 4) {
      x = _mm_add_epi8(x, _mm_slli_si128(x, 4));
      x = _mm_add_epi8(x, _mm_slli_si128(x, 8));
    } else {
      x = _mm_add_epi8(x, _mm_slli_si128(x, 8));
    }
    x = _mm_add_epi8(x, carry);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(buf + i), x);
    // Next block's carry = this block's final `lag` bytes, tiled.
    if (lag == 1) {
      carry = _mm_set1_epi8(
          static_cast<char>(_mm_extract_epi16(x, 7) >> 8));
    } else if (lag == 2) {
      carry = _mm_set1_epi16(static_cast<short>(_mm_extract_epi16(x, 7)));
    } else if (lag == 4) {
      carry = _mm_shuffle_epi32(x, _MM_SHUFFLE(3, 3, 3, 3));
    } else {
      carry = _mm_shuffle_epi32(x, _MM_SHUFFLE(3, 2, 3, 2));
    }
  }
  for (; i < n; ++i) {
    buf[i] = static_cast<std::uint8_t>(buf[i] + buf[i - lag]);
  }
}

const KernelTable kAvx2Table = {
    IsaLevel::kAVX2,
    kMr,
    kNr,
    GemmMicroAvx2,
    SiluFwdAvx2,
    SiluBwdAvx2,
    SoftmaxRowAvx2,
    MomentsAvx2,
    NormAffineAvx2,
    NormAffineVecAvx2,
    BiasRowAvx2,
    AttentionHeadAvx2,
    nullptr,  // shuffle_bytes   (inherited from scalar)
    nullptr,  // unshuffle_bytes (inherited from scalar)
    BitTransposeAvx2,
    BitUntransposeAvx2,
    DeltaEncodeAvx2,
    DeltaDecodeAvx2,
};

}  // namespace

const KernelTable* GetAvx2Table() { return &kAvx2Table; }

#else  // !(__AVX2__ && __FMA__)

const KernelTable* GetAvx2Table() { return nullptr; }

#endif

}  // namespace glsc::simd
