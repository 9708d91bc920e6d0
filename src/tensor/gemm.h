// Single-precision general matrix multiply. Every convolution and attention
// layer in the network lowers to this kernel (via im2col or reshapes), so it
// is the performance backbone of both training and the Table-2 speed bench.
//
// The inner register-tile micro-kernel is runtime-dispatched (scalar / SSE2 /
// AVX2+FMA, see tensor/simd/dispatch.h); the pack/block structure is shared
// by all levels. GemmEx additionally fuses a bias (+ optional SiLU) epilogue
// into the final-panel write-back so callers like Conv2d and Dense do not
// re-walk their output tensors.
//
// Packing goes through one grow-only buffer per thread (~660 KB, sized by
// the cache blocking, not the problem), so no call allocates in steady state
// and concurrent callers on different threads never share it.
#pragma once

#include <cstdint>

namespace glsc {

// Fused epilogue applied to C after the product is fully accumulated.
//  kBiasRow:  C[i][j] += bias[i]   (bias has m entries; conv channel bias)
//  kBiasCol:  C[i][j] += bias[j]   (bias has n entries; dense feature bias)
//  *SiLU:     additionally C[i][j] = silu(C[i][j]) after the bias add.
enum class GemmEpilogue { kNone, kBiasRow, kBiasCol, kBiasRowSiLU, kBiasColSiLU };

// C = alpha * op(A) * op(B) + beta * C, row-major.
// op(A) is MxK, op(B) is KxN, C is MxN with leading dimensions lda/ldb/ldc.
void Gemm(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
          std::int64_t k, float alpha, const float* a, std::int64_t lda,
          const float* b, std::int64_t ldb, float beta, float* c,
          std::int64_t ldc);

// Gemm plus a fused epilogue. `bias` must be non-null (m or n entries
// depending on the epilogue) unless epilogue == kNone.
void GemmEx(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
            std::int64_t k, float alpha, const float* a, std::int64_t lda,
            const float* b, std::int64_t ldb, float beta, float* c,
            std::int64_t ldc, const float* bias, GemmEpilogue epilogue);

// Convenience: C(MxN) = A(MxK) * B(KxN), contiguous row-major, overwrite C.
void MatMul(const float* a, const float* b, float* c, std::int64_t m,
            std::int64_t n, std::int64_t k);

}  // namespace glsc
