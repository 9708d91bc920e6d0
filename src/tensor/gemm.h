// Single-precision general matrix multiply. Every convolution and attention
// layer in the network runs on this kernel's blocking and micro-kernels:
// convolutions through ConvGemm, an implicit GEMM whose B panels are packed
// straight from zero-padded frames (no im2col matrix), attention through
// the per-head attention_head kernel, which forms each element exactly as
// this GEMM does (tensor/simd/kernels.h). It is the performance backbone of
// both training and the Table-2 speed bench.
//
// The inner register-tile micro-kernel is runtime-dispatched over three
// rungs (scalar / AVX2+FMA / AVX-512, see tensor/simd/dispatch.h); the
// pack/block structure is shared by all levels. GemmEx additionally fuses a
// bias epilogue into the final-panel write-back so callers like Conv2d and
// Dense do not re-walk their output tensors.
//
// Packing goes through one grow-only buffer per thread (~660 KB, sized by
// the cache blocking, not the problem), so no call allocates in steady state
// and concurrent callers on different threads never share it.
#pragma once

#include <cstdint>

namespace glsc {

// Columns of C per GEMM column block: B is packed one block of this many
// columns at a time and A is repacked for every block. Callers that merge
// small problems along N (Conv2d's frame chunks) size them to fill one.
inline constexpr std::int64_t kGemmBlockCols = 512;

// Fused epilogue applied to C after the product is fully accumulated.
//  kBiasRow:  C[i][j] += bias[i]   (bias has m entries; conv channel bias)
//  kBiasCol:  C[i][j] += bias[j]   (bias has n entries; dense feature bias)
enum class GemmEpilogue { kNone, kBiasRow, kBiasCol };

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

// Input of a convolution run as an implicit GEMM: `frames` consecutive
// [channels, height, width] planes, already zero-padded (height and width
// include the padding), swept by a square `kernel` at `stride`.
struct ConvFrames {
  const float* data;
  std::int64_t frames, channels, height, width, kernel, stride;
};

// Convolution as an implicit GEMM:
//   C[m, frames * OH * OW] = A[m, channels * kernel^2] * cols  (+ epilogue)
// where cols is what Im2Col with pad 0 writes for each frame, the frames
// side by side along N: row (c, ki, kj), column (frame, oy, ox). The column
// matrix is never built; B panels are packed straight from the planes, so
// the micro-kernel sees the same panels GemmEx over cols would, and the
// output is bit-identical to it. C is overwritten (beta = 0).
void ConvGemm(std::int64_t m, const float* a, std::int64_t lda,
              const ConvFrames& in, float* c, std::int64_t ldc,
              const float* bias, GemmEpilogue epilogue);

// Convenience: C(MxN) = A(MxK) * B(KxN), contiguous row-major, overwrite C.
void MatMul(const float* a, const float* b, float* c, std::int64_t m,
            std::int64_t n, std::int64_t k);

}  // namespace glsc
