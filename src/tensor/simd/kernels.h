// Kernel registry for the SIMD compute backend. One KernelTable per dispatch
// level; callers grab ActiveKernels() once per operation and call through
// plain function pointers, so a kernel invocation costs one indirect call on
// top of the work itself.
//
// Numerics contract: variants of the same kernel may differ in rounding
// (vector exp is a polynomial, reductions re-associate), so outputs are only
// approximately equal across levels. Anything that must be bit-exact across
// levels (the entropy coders) stays in integer code outside this table —
// with one deliberate exception: the container byte-filter kernels at the
// bottom of KernelTable move bits only (no arithmetic on values), so every
// level is REQUIRED to be byte-identical to the scalar reference. The
// filters_test suite enforces that identity at each dispatch level.
//
// Within one level, attention_head is REQUIRED to be bit-identical to the
// composition it replaces at that level: Gemm(scale * q k^T), the level's
// softmax_row, then Gemm(attn v). It forms every product element exactly
// as the level's GEMM does (see attention_head below); simd_test enforces
// the identity at each dispatch level.
#pragma once

#include <cstdint>

#include "tensor/simd/dispatch.h"

namespace glsc::simd {

// Length of GEMM's K panels (tensor/gemm.cc). Each element of C is summed
// in index order within a panel, starting from zero, and each panel's sum
// is then added to C as c = c + alpha * sum, so the panel length is part of
// the arithmetic: attention_head splits its products at the same points.
inline constexpr std::int64_t kGemmKC = 256;

struct KernelTable {
  IsaLevel level;

  // ---- GEMM register-tile micro-kernel ----
  // Panels are packed in strips of `mr` rows of A / `nr` columns of B,
  // K-major within a strip (see PackA/PackB in tensor/gemm.cc).
  // Computes C[0..ib)x[0..jb) += alpha * A_panel^T B_panel over kb terms.
  std::int64_t mr;
  std::int64_t nr;
  void (*gemm_micro)(std::int64_t kb, const float* a_panel,
                     const float* b_panel, float alpha, float* c,
                     std::int64_t ldc, std::int64_t ib, std::int64_t jb);

  // ---- elementwise / rowwise ----
  // y[i] = x[i] * sigmoid(x[i])
  void (*silu_fwd)(const float* x, float* y, std::int64_t n);
  // out[i] = g[i] * s * (1 + x[i] * (1 - s)), s = sigmoid(x[i])
  void (*silu_bwd)(const float* x, const float* g, float* out, std::int64_t n);
  // In-place numerically-stable softmax of one row.
  void (*softmax_row)(float* row, std::int64_t n);
  // sum(x) and sum(x^2) accumulated in double precision.
  void (*moments)(const float* x, std::int64_t n, double* sum, double* sumsq);
  // y[i] = gamma * (x[i] - mean) * inv_std + beta
  void (*norm_affine)(const float* x, float mean, float inv_std, float gamma,
                      float beta, float* y, std::int64_t n);
  // y[i] = gamma[i] * (x[i] - mean) * inv_std + beta[i]
  void (*norm_affine_vec)(const float* x, float mean, float inv_std,
                          const float* gamma, const float* beta, float* y,
                          std::int64_t n);
  // GEMM epilogue on a finished row segment of C: adds col_bias[j] when
  // col_bias != nullptr (per-column bias), otherwise the broadcast row_bias.
  void (*bias_row)(float* row, std::int64_t n, float row_bias,
                   const float* col_bias);

  // ---- attention ----
  // One head of scaled dot-product attention; q, k, v and out are [l, hd],
  // attn is [l, l], all row-major and contiguous:
  //   attn = scale * q k^T; softmax_row over each row of attn; out = attn v.
  // Each product element is formed as the level's GEMM forms it: terms in
  // index order within kGemmKC-long K panels, from zero, each panel's sum
  // added as c = c + alpha * sum onto c = 0 (fused multiply-add at AVX2 and
  // AVX-512, multiply then add at scalar).
  void (*attention_head)(const float* q, const float* k, const float* v,
                         std::int64_t l, std::int64_t hd, float scale,
                         float* attn, float* out);

  // ---- container byte filters (bit-exact at every level) ----
  // Splits `nelem` elements of `elem` bytes each into contiguous byte planes:
  //   dst[k * nelem + i] = src[i * elem + k].
  // unshuffle_bytes is the exact inverse. src and dst must not alias.
  void (*shuffle_bytes)(const std::uint8_t* src, std::uint8_t* dst,
                        std::int64_t nelem, std::int64_t elem);
  void (*unshuffle_bytes)(const std::uint8_t* src, std::uint8_t* dst,
                          std::int64_t nelem, std::int64_t elem);
  // Transposes one byte plane of n bytes (n % 8 == 0) into 8 bit planes of
  // n/8 bytes each:
  //   bit t of dst[b * n/8 + j] = bit b of src[8*j + t].
  // bit_untranspose is the exact inverse. src and dst must not alias.
  void (*bit_transpose)(const std::uint8_t* src, std::uint8_t* dst,
                        std::int64_t n);
  void (*bit_untranspose)(const std::uint8_t* src, std::uint8_t* dst,
                          std::int64_t n);
  // Byte delta with lag `lag` >= 1:
  //   dst[i] = src[i] - src[i - lag]  (mod 256; identity for i < lag).
  // src and dst must not alias.
  void (*delta_encode)(const std::uint8_t* src, std::uint8_t* dst,
                       std::int64_t n, std::int64_t lag);
  // In-place inverse (lagged prefix sum): buf[i] += buf[i - lag].
  void (*delta_decode)(std::uint8_t* buf, std::int64_t n, std::int64_t lag);
};

// Table for the current dispatch level (env overrides + ScopedIsaOverride
// applied); one relaxed atomic load per call.
const KernelTable& ActiveKernels();

// Table for a specific level, clamped to DetectedIsa().
const KernelTable& KernelsFor(IsaLevel level);

// Raw per-level tables, defined in kernels_{scalar,avx2,avx512}.cc.
// The SIMD getters return nullptr when the target ISA was not compiled in;
// unimplemented entries within a table are nullptr and are backfilled from
// the next level down by KernelsFor() (scalar -> avx2 -> avx512).
const KernelTable* GetScalarTable();
const KernelTable* GetAvx2Table();
const KernelTable* GetAvx512Table();

}  // namespace glsc::simd
