// SSE2 GEMM micro-kernel. SSE2 is the x86-64 baseline, so this file needs no
// special compile flags; it exists as the middle dispatch rung for CPUs
// without AVX2 and as an extra comparison point for the kernel tests.
// Elementwise kernels at this level inherit the scalar implementations (the
// transcendental-heavy ops only pay off with 8-wide FMA).
#include "tensor/simd/kernels.h"

#include <cstring>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace glsc::simd {

#if defined(__SSE2__)

namespace {

constexpr std::int64_t kMr = 4;
constexpr std::int64_t kNr = 8;

void GemmMicroSse2(std::int64_t kb, const float* a_panel, const float* b_panel,
                   float alpha, float* c, std::int64_t ldc, std::int64_t ib,
                   std::int64_t jb) {
  // 4x8 tile: two 4-lane accumulators per row of C.
  __m128 acc[kMr][2];
  for (std::int64_t i = 0; i < kMr; ++i) {
    acc[i][0] = _mm_setzero_ps();
    acc[i][1] = _mm_setzero_ps();
  }
  for (std::int64_t p = 0; p < kb; ++p) {
    const float* arow = a_panel + p * kMr;
    const __m128 b0 = _mm_loadu_ps(b_panel + p * kNr);
    const __m128 b1 = _mm_loadu_ps(b_panel + p * kNr + 4);
    for (std::int64_t i = 0; i < kMr; ++i) {
      const __m128 av = _mm_set1_ps(arow[i]);
      acc[i][0] = _mm_add_ps(acc[i][0], _mm_mul_ps(av, b0));
      acc[i][1] = _mm_add_ps(acc[i][1], _mm_mul_ps(av, b1));
    }
  }
  const __m128 valpha = _mm_set1_ps(alpha);
  if (ib == kMr && jb == kNr) {
    for (std::int64_t i = 0; i < kMr; ++i) {
      float* crow = c + i * ldc;
      _mm_storeu_ps(crow, _mm_add_ps(_mm_loadu_ps(crow),
                                     _mm_mul_ps(valpha, acc[i][0])));
      _mm_storeu_ps(crow + 4, _mm_add_ps(_mm_loadu_ps(crow + 4),
                                         _mm_mul_ps(valpha, acc[i][1])));
    }
    return;
  }
  alignas(16) float buf[kMr][kNr];
  for (std::int64_t i = 0; i < kMr; ++i) {
    _mm_store_ps(buf[i], acc[i][0]);
    _mm_store_ps(buf[i] + 4, acc[i][1]);
  }
  for (std::int64_t i = 0; i < ib; ++i) {
    float* crow = c + i * ldc;
    for (std::int64_t j = 0; j < jb; ++j) crow[j] += alpha * buf[i][j];
  }
}

// ---- container byte filters ----
// The movemask trick: _mm_movemask_epi8 extracts the MSB of each byte, and
// _mm_add_epi8(x, x) shifts every byte left by one WITHOUT crossing byte
// boundaries, so eight movemask+add rounds walk bit 7 down to bit 0. One
// 16-byte load covers two 8-byte groups; the mask's low/high byte land in
// adjacent bit-plane positions j and j+1. Byte-identical to the scalar
// reference by construction (pure bit movement).

void BitTransposeSse2(const std::uint8_t* src, std::uint8_t* dst,
                      std::int64_t n) {
  const std::int64_t stride = n / 8;
  std::int64_t j = 0;
  for (; j + 2 <= stride; j += 2) {
    __m128i x =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + 8 * j));
    for (int b = 7; b >= 0; --b) {
      const std::uint16_t mask =
          static_cast<std::uint16_t>(_mm_movemask_epi8(x));
      std::memcpy(dst + b * stride + j, &mask, sizeof mask);
      x = _mm_add_epi8(x, x);
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

void BitUntransposeSse2(const std::uint8_t* src, std::uint8_t* dst,
                        std::int64_t n) {
  const std::int64_t stride = n / 8;
  std::int64_t j = 0;
  // 16 groups per iteration: load 16 bytes from each of the 8 bit planes,
  // byte-transpose them with a 3-stage unpack tree into registers holding
  // [plane0..plane7 at j+2c, plane0..plane7 at j+2c+1], then run the same
  // movemask core as the forward transform on each.
  for (; j + 16 <= stride; j += 16) {
    __m128i x[8];
    for (int b = 0; b < 8; ++b) {
      x[b] = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(src + b * stride + j));
    }
    __m128i u[8];
    for (int b = 0; b < 4; ++b) {
      u[2 * b] = _mm_unpacklo_epi8(x[2 * b], x[2 * b + 1]);
      u[2 * b + 1] = _mm_unpackhi_epi8(x[2 * b], x[2 * b + 1]);
    }
    __m128i w[8];
    for (int h = 0; h < 2; ++h) {
      w[4 * h] = _mm_unpacklo_epi16(u[h], u[2 + h]);
      w[4 * h + 1] = _mm_unpackhi_epi16(u[h], u[2 + h]);
      w[4 * h + 2] = _mm_unpacklo_epi16(u[4 + h], u[6 + h]);
      w[4 * h + 3] = _mm_unpackhi_epi16(u[4 + h], u[6 + h]);
    }
    // After the epi16 stage w[4h+c] holds planes 0-3 (c in {0,1}) or 4-7
    // (c in {2,3}) of column quads; the epi32 stage below completes the byte
    // transpose so each r register is two full 8-byte columns.
    __m128i r[8];
    for (int h = 0; h < 2; ++h) {
      r[4 * h] = _mm_unpacklo_epi32(w[4 * h], w[4 * h + 2]);
      r[4 * h + 1] = _mm_unpackhi_epi32(w[4 * h], w[4 * h + 2]);
      r[4 * h + 2] = _mm_unpacklo_epi32(w[4 * h + 1], w[4 * h + 3]);
      r[4 * h + 3] = _mm_unpackhi_epi32(w[4 * h + 1], w[4 * h + 3]);
    }
    // r[h*4 + c] holds columns (groups) g0 = j + 8h + 2c and g0 + 1:
    // bytes [p0[g0], .., p7[g0], p0[g0+1], .., p7[g0+1]].
    for (int h = 0; h < 2; ++h) {
      for (int c = 0; c < 4; ++c) {
        __m128i v = r[4 * h + c];
        const std::int64_t g0 = j + 8 * h + 2 * c;
        for (int s = 0; s < 8; ++s) {
          const int mask = _mm_movemask_epi8(v);
          dst[8 * g0 + 7 - s] = static_cast<std::uint8_t>(mask & 0xFF);
          dst[8 * (g0 + 1) + 7 - s] = static_cast<std::uint8_t>(mask >> 8);
          v = _mm_add_epi8(v, v);
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

void DeltaEncodeSse2(const std::uint8_t* src, std::uint8_t* dst,
                     std::int64_t n, std::int64_t lag) {
  const std::int64_t head = lag < n ? lag : n;
  std::memcpy(dst, src, static_cast<std::size_t>(head));
  std::int64_t i = head;
  for (; i + 16 <= n; i += 16) {
    const __m128i cur =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    const __m128i prev =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i - lag));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i),
                     _mm_sub_epi8(cur, prev));
  }
  for (; i < n; ++i) dst[i] = static_cast<std::uint8_t>(src[i] - src[i - lag]);
}

// Lagged in-place prefix sum. The power-of-two lags the container format
// emits (element sizes 1/2/4/8) vectorize with an in-register doubling scan
// plus a carry broadcast of the previous block's final `lag` bytes; lags of
// 16+ use non-overlapping vector adds; anything else falls back to scalar.
void DeltaDecodeSse2(std::uint8_t* buf, std::int64_t n, std::int64_t lag) {
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

const KernelTable kSse2Table = {
    IsaLevel::kSSE2,
    kMr,
    kNr,
    GemmMicroSse2,
    nullptr,  // silu_fwd
    nullptr,  // silu_bwd
    nullptr,  // softmax_row
    nullptr,  // moments
    nullptr,  // norm_affine
    nullptr,  // norm_affine_vec
    nullptr,  // bias_act_row
    nullptr,  // attention_head  (inherited from scalar: both multiply, then
              // add)
    nullptr,  // shuffle_bytes   (inherited from scalar)
    nullptr,  // unshuffle_bytes (inherited from scalar)
    BitTransposeSse2,
    BitUntransposeSse2,
    DeltaEncodeSse2,
    DeltaDecodeSse2,
};

}  // namespace

const KernelTable* GetSse2Table() { return &kSse2Table; }

#else  // !defined(__SSE2__)

const KernelTable* GetSse2Table() { return nullptr; }

#endif

}  // namespace glsc::simd
