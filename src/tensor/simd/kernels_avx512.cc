// AVX-512 GEMM micro-kernel. Compiled with -mavx512f (see CMakeLists.txt)
// and only invoked after runtime dispatch confirms avx512f support. The
// 12x32 register tile uses 24 of the 32 zmm registers as accumulators; with
// two FMA pipes that is 12 cycles of FMA work per k-step against 14 load
// micro-ops, keeping the kernel FMA-bound. Elementwise kernels at this level
// inherit the AVX2 implementations via the dispatch cascade.
#include "tensor/simd/kernels.h"

#if defined(__AVX512F__)
#include <immintrin.h>

#include <cstring>
#endif

namespace glsc::simd {

#if defined(__AVX512F__)

namespace {

constexpr std::int64_t kMr = 12;
constexpr std::int64_t kNr = 32;

void GemmMicroAvx512(std::int64_t kb, const float* a_panel,
                     const float* b_panel, float alpha, float* c,
                     std::int64_t ldc, std::int64_t ib, std::int64_t jb) {
  __m512 acc[kMr][2];
  for (std::int64_t i = 0; i < kMr; ++i) {
    acc[i][0] = _mm512_setzero_ps();
    acc[i][1] = _mm512_setzero_ps();
  }
  // Warm the C tile while the k-loop runs; the write-back below touches it.
  for (std::int64_t i = 0; i < ib; ++i) {
    _mm_prefetch(reinterpret_cast<const char*>(c + i * ldc), _MM_HINT_T0);
    _mm_prefetch(reinterpret_cast<const char*>(c + i * ldc + 16), _MM_HINT_T0);
  }
  for (std::int64_t p = 0; p < kb; ++p) {
    const float* arow = a_panel + p * kMr;
    const float* brow = b_panel + p * kNr;
    _mm_prefetch(reinterpret_cast<const char*>(brow + 8 * kNr), _MM_HINT_T0);
    _mm_prefetch(reinterpret_cast<const char*>(brow + 8 * kNr + 16),
                 _MM_HINT_T0);
    const __m512 b0 = _mm512_load_ps(brow);
    const __m512 b1 = _mm512_load_ps(brow + 16);
    for (std::int64_t i = 0; i < kMr; ++i) {
      const __m512 av = _mm512_set1_ps(arow[i]);
      acc[i][0] = _mm512_fmadd_ps(av, b0, acc[i][0]);
      acc[i][1] = _mm512_fmadd_ps(av, b1, acc[i][1]);
    }
  }
  const __m512 valpha = _mm512_set1_ps(alpha);
  if (ib == kMr && jb == kNr) {
    for (std::int64_t i = 0; i < kMr; ++i) {
      float* crow = c + i * ldc;
      _mm512_storeu_ps(
          crow, _mm512_fmadd_ps(valpha, acc[i][0], _mm512_loadu_ps(crow)));
      _mm512_storeu_ps(crow + 16, _mm512_fmadd_ps(valpha, acc[i][1],
                                                  _mm512_loadu_ps(crow + 16)));
    }
    return;
  }
  // Ragged edges: masked stores cover partial tile widths.
  const __mmask16 mask0 =
      jb >= 16 ? static_cast<__mmask16>(0xFFFF)
               : static_cast<__mmask16>((1u << jb) - 1);
  const __mmask16 mask1 =
      jb >= kNr ? static_cast<__mmask16>(0xFFFF)
                : (jb > 16 ? static_cast<__mmask16>((1u << (jb - 16)) - 1)
                           : static_cast<__mmask16>(0));
  for (std::int64_t i = 0; i < ib; ++i) {
    float* crow = c + i * ldc;
    const __m512 c0 = _mm512_maskz_loadu_ps(mask0, crow);
    _mm512_mask_storeu_ps(crow, mask0,
                          _mm512_fmadd_ps(valpha, acc[i][0], c0));
    if (mask1 != 0) {
      const __m512 c1 = _mm512_maskz_loadu_ps(mask1, crow + 16);
      _mm512_mask_storeu_ps(crow + 16, mask1,
                            _mm512_fmadd_ps(valpha, acc[i][1], c1));
    }
  }
}

#if defined(__AVX512BW__)

// ---- container byte filters ----
// AVX-512 movemask construction: _mm512_movepi8_mask extracts the MSB of all
// 64 bytes (eight 8-byte groups) in one instruction. These use AVX512BW
// byte ops, which DetectIsa() does NOT probe (it gates kAVX512 on avx512f
// alone for the float kernels), so GetAvx512Table() below only installs them
// after an explicit runtime avx512bw check. Byte-identical to scalar.

void BitTransposeAvx512(const std::uint8_t* src, std::uint8_t* dst,
                        std::int64_t n) {
  const std::int64_t stride = n / 8;
  std::int64_t j = 0;
  for (; j + 8 <= stride; j += 8) {
    __m512i x =
        _mm512_loadu_si512(reinterpret_cast<const void*>(src + 8 * j));
    for (int b = 7; b >= 0; --b) {
      const std::uint64_t mask = _cvtmask64_u64(_mm512_movepi8_mask(x));
      std::memcpy(dst + b * stride + j, &mask, sizeof mask);
      x = _mm512_add_epi8(x, x);
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

void DeltaEncodeAvx512(const std::uint8_t* src, std::uint8_t* dst,
                       std::int64_t n, std::int64_t lag) {
  const std::int64_t head = lag < n ? lag : n;
  std::memcpy(dst, src, static_cast<std::size_t>(head));
  std::int64_t i = head;
  for (; i + 64 <= n; i += 64) {
    const __m512i cur =
        _mm512_loadu_si512(reinterpret_cast<const void*>(src + i));
    const __m512i prev =
        _mm512_loadu_si512(reinterpret_cast<const void*>(src + i - lag));
    _mm512_storeu_si512(reinterpret_cast<void*>(dst + i),
                        _mm512_sub_epi8(cur, prev));
  }
  for (; i < n; ++i) dst[i] = static_cast<std::uint8_t>(src[i] - src[i - lag]);
}

#endif  // defined(__AVX512BW__)

const KernelTable kAvx512Table = {
    IsaLevel::kAVX512,
    kMr,
    kNr,
    GemmMicroAvx512,
    nullptr,  // silu_fwd      (inherited from AVX2)
    nullptr,  // silu_bwd
    nullptr,  // softmax_row
    nullptr,  // moments
    nullptr,  // norm_affine
    nullptr,  // norm_affine_vec
    nullptr,  // bias_row
    nullptr,  // attention_head  (inherited from AVX2: both use FMA)
    nullptr,  // shuffle_bytes
    nullptr,  // unshuffle_bytes
    nullptr,  // bit_transpose   (installed at runtime when avx512bw exists)
    nullptr,  // bit_untranspose (inherited from AVX2)
    nullptr,  // delta_encode    (installed at runtime when avx512bw exists)
    nullptr,  // delta_decode    (inherited from AVX2)
};

}  // namespace

const KernelTable* GetAvx512Table() {
  // avx512f guarantees the GEMM kernel only; the byte filters need avx512bw
  // (movepi8_mask / add_epi8 on zmm), present on every server part since
  // Skylake-SP but absent on Knights-family avx512f-only CPUs.
  static const KernelTable table = [] {
    KernelTable t = kAvx512Table;
#if defined(__AVX512BW__)
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx512bw")) {
      t.bit_transpose = BitTransposeAvx512;
      t.delta_encode = DeltaEncodeAvx512;
    }
#endif
    return t;
  }();
  return &table;
}

#else  // !defined(__AVX512F__)

const KernelTable* GetAvx512Table() { return nullptr; }

#endif

}  // namespace glsc::simd
