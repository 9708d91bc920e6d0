// Portable scalar reference kernels. These define the semantics every SIMD
// variant approximates; they are also the GLSC_ISA=scalar fallback and the
// baseline the micro-benchmarks compare against.
#include <algorithm>
#include <cmath>
#include <cstring>

#include "tensor/simd/kernels.h"

namespace glsc::simd {
namespace {

constexpr std::int64_t kMr = 4;
constexpr std::int64_t kNr = 8;

inline float Sigmoid(float x) { return 1.0f / (1.0f + std::exp(-x)); }

void GemmMicroScalar(std::int64_t kb, const float* a_panel,
                     const float* b_panel, float alpha, float* c,
                     std::int64_t ldc, std::int64_t ib, std::int64_t jb) {
  float acc[kMr][kNr] = {};
  for (std::int64_t p = 0; p < kb; ++p) {
    const float* arow = a_panel + p * kMr;
    const float* brow = b_panel + p * kNr;
    for (std::int64_t i = 0; i < kMr; ++i) {
      const float av = arow[i];
      for (std::int64_t j = 0; j < kNr; ++j) {
        acc[i][j] += av * brow[j];
      }
    }
  }
  for (std::int64_t i = 0; i < ib; ++i) {
    float* crow = c + i * ldc;
    for (std::int64_t j = 0; j < jb; ++j) {
      crow[j] += alpha * acc[i][j];
    }
  }
}

void SiluFwdScalar(const float* x, float* y, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) y[i] = x[i] * Sigmoid(x[i]);
}

void SiluBwdScalar(const float* x, const float* g, float* out,
                   std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    const float s = Sigmoid(x[i]);
    out[i] = g[i] * s * (1.0f + x[i] * (1.0f - s));
  }
}

void SoftmaxRowScalar(float* row, std::int64_t n) {
  float mx = row[0];
  for (std::int64_t i = 1; i < n; ++i) mx = std::max(mx, row[i]);
  double sum = 0.0;
  for (std::int64_t i = 0; i < n; ++i) {
    row[i] = std::exp(row[i] - mx);
    sum += row[i];
  }
  const float inv = static_cast<float>(1.0 / sum);
  for (std::int64_t i = 0; i < n; ++i) row[i] *= inv;
}

// One element of a GEMM product, formed as GemmMicroScalar forms it: the
// terms a[p * a_step] * b[p * b_step] summed in index order within each
// kGemmKC-long K panel, from zero, and each panel's sum added to the element
// as c += alpha * acc, starting from c = 0.
float GemmElementScalar(const float* a, std::int64_t a_step, const float* b,
                        std::int64_t b_step, std::int64_t k, float alpha) {
  float c = 0.0f;
  for (std::int64_t p0 = 0; p0 < k; p0 += kGemmKC) {
    const std::int64_t p_end = std::min(k, p0 + kGemmKC);
    float acc = 0.0f;
    for (std::int64_t p = p0; p < p_end; ++p) {
      acc += a[p * a_step] * b[p * b_step];
    }
    c += alpha * acc;
  }
  return c;
}

// Kept in this file so it compiles under GemmMicroScalar's flags: both
// multiply, then add.
void AttentionHeadScalar(const float* q, const float* k, const float* v,
                         std::int64_t l, std::int64_t hd, float scale,
                         float* attn, float* out) {
  for (std::int64_t i = 0; i < l; ++i) {
    float* row = attn + i * l;
    for (std::int64_t j = 0; j < l; ++j) {
      row[j] = GemmElementScalar(q + i * hd, 1, k + j * hd, 1, hd, scale);
    }
    SoftmaxRowScalar(row, l);
    for (std::int64_t d = 0; d < hd; ++d) {
      out[i * hd + d] = GemmElementScalar(row, 1, v + d, hd, l, 1.0f);
    }
  }
}

void MomentsScalar(const float* x, std::int64_t n, double* sum,
                   double* sumsq) {
  double s = 0.0, sq = 0.0;
  for (std::int64_t i = 0; i < n; ++i) {
    s += x[i];
    sq += static_cast<double>(x[i]) * x[i];
  }
  *sum = s;
  *sumsq = sq;
}

void NormAffineScalar(const float* x, float mean, float inv_std, float gamma,
                      float beta, float* y, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    y[i] = gamma * ((x[i] - mean) * inv_std) + beta;
  }
}

void NormAffineVecScalar(const float* x, float mean, float inv_std,
                         const float* gamma, const float* beta, float* y,
                         std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    y[i] = gamma[i] * ((x[i] - mean) * inv_std) + beta[i];
  }
}

// ---- container byte filters ----
// These define the bit-exact semantics every SIMD level must reproduce
// byte for byte (see the contract note in kernels.h).

void ShuffleBytesScalar(const std::uint8_t* src, std::uint8_t* dst,
                        std::int64_t nelem, std::int64_t elem) {
  for (std::int64_t k = 0; k < elem; ++k) {
    std::uint8_t* plane = dst + k * nelem;
    const std::uint8_t* from = src + k;
    for (std::int64_t i = 0; i < nelem; ++i) plane[i] = from[i * elem];
  }
}

void UnshuffleBytesScalar(const std::uint8_t* src, std::uint8_t* dst,
                          std::int64_t nelem, std::int64_t elem) {
  for (std::int64_t k = 0; k < elem; ++k) {
    const std::uint8_t* plane = src + k * nelem;
    std::uint8_t* to = dst + k;
    for (std::int64_t i = 0; i < nelem; ++i) to[i * elem] = plane[i];
  }
}

// 8x8 bit-matrix transpose (Hacker's Delight 7-2): byte i bit j <-> byte j
// bit i of the little-endian packed word.
inline std::uint64_t Transpose8x8(std::uint64_t x) {
  std::uint64_t t;
  t = (x ^ (x >> 7)) & 0x00AA00AA00AA00AAull;
  x = x ^ t ^ (t << 7);
  t = (x ^ (x >> 14)) & 0x0000CCCC0000CCCCull;
  x = x ^ t ^ (t << 14);
  t = (x ^ (x >> 28)) & 0x00000000F0F0F0F0ull;
  x = x ^ t ^ (t << 28);
  return x;
}

void BitTransposeScalar(const std::uint8_t* src, std::uint8_t* dst,
                        std::int64_t n) {
  const std::int64_t stride = n / 8;
  for (std::int64_t j = 0; j < stride; ++j) {
    std::uint64_t x;
    std::memcpy(&x, src + 8 * j, sizeof x);
    x = Transpose8x8(x);
    for (int b = 0; b < 8; ++b) {
      dst[b * stride + j] = static_cast<std::uint8_t>(x >> (8 * b));
    }
  }
}

void BitUntransposeScalar(const std::uint8_t* src, std::uint8_t* dst,
                          std::int64_t n) {
  const std::int64_t stride = n / 8;
  for (std::int64_t j = 0; j < stride; ++j) {
    std::uint64_t x = 0;
    for (int b = 0; b < 8; ++b) {
      x |= static_cast<std::uint64_t>(src[b * stride + j]) << (8 * b);
    }
    x = Transpose8x8(x);
    std::memcpy(dst + 8 * j, &x, sizeof x);
  }
}

void DeltaEncodeScalar(const std::uint8_t* src, std::uint8_t* dst,
                       std::int64_t n, std::int64_t lag) {
  const std::int64_t head = std::min(lag, n);
  for (std::int64_t i = 0; i < head; ++i) dst[i] = src[i];
  for (std::int64_t i = head; i < n; ++i) {
    dst[i] = static_cast<std::uint8_t>(src[i] - src[i - lag]);
  }
}

void DeltaDecodeScalar(std::uint8_t* buf, std::int64_t n, std::int64_t lag) {
  for (std::int64_t i = lag; i < n; ++i) {
    buf[i] = static_cast<std::uint8_t>(buf[i] + buf[i - lag]);
  }
}

void BiasRowScalar(float* row, std::int64_t n, float row_bias,
                   const float* col_bias) {
  if (col_bias != nullptr) {
    for (std::int64_t j = 0; j < n; ++j) row[j] += col_bias[j];
  } else {
    for (std::int64_t j = 0; j < n; ++j) row[j] += row_bias;
  }
}

const KernelTable kScalarTable = {
    IsaLevel::kScalar,
    kMr,
    kNr,
    GemmMicroScalar,
    SiluFwdScalar,
    SiluBwdScalar,
    SoftmaxRowScalar,
    MomentsScalar,
    NormAffineScalar,
    NormAffineVecScalar,
    BiasRowScalar,
    AttentionHeadScalar,
    ShuffleBytesScalar,
    UnshuffleBytesScalar,
    BitTransposeScalar,
    BitUntransposeScalar,
    DeltaEncodeScalar,
    DeltaDecodeScalar,
};

}  // namespace

const KernelTable* GetScalarTable() { return &kScalarTable; }

}  // namespace glsc::simd
