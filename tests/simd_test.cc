// Tests for the runtime-dispatched SIMD backend: every dispatch level the
// host supports is exercised in-process via ScopedIsaOverride and compared
// against naive references (GEMM) or the scalar kernel table (elementwise).
// The entropy-coder bulk APIs are integer-only and must produce bitstreams
// that are byte-identical at every level.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "codec/gaussian_model.h"
#include "codec/range_coder.h"
#include "tensor/gemm.h"
#include "tensor/simd/dispatch.h"
#include "tensor/simd/kernels.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace glsc {
namespace {

// Plain triple-loop reference, the semantics Gemm must reproduce.
void NaiveGemm(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
               std::int64_t k, float alpha, const float* a, std::int64_t lda,
               const float* b, std::int64_t ldb, float beta, float* c,
               std::int64_t ldc) {
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::int64_t p = 0; p < k; ++p) {
        const float av = trans_a ? a[p * lda + i] : a[i * lda + p];
        const float bv = trans_b ? b[j * ldb + p] : b[p * ldb + j];
        acc += static_cast<double>(av) * bv;
      }
      c[i * ldc + j] =
          alpha * static_cast<float>(acc) + beta * c[i * ldc + j];
    }
  }
}

struct GemmShape {
  std::int64_t m, n, k;
};

TEST(SimdGemm, MatchesNaiveReferenceAcrossLevels) {
  const GemmShape shapes[] = {{1, 1, 1},   {3, 5, 7},    {6, 16, 8},
                              {4, 8, 4},   {13, 17, 19}, {12, 32, 5},
                              {33, 70, 65}, {64, 64, 64}};
  Rng rng(11);
  for (const simd::IsaLevel level : simd::RunnableLevels()) {
    simd::ScopedIsaOverride override_level(level);
    for (const GemmShape& s : shapes) {
      for (const bool ta : {false, true}) {
        for (const bool tb : {false, true}) {
          // Strided operands: leading dimensions exceed the logical extents.
          const std::int64_t lda = (ta ? s.m : s.k) + 3;
          const std::int64_t ldb = (tb ? s.k : s.n) + 2;
          const std::int64_t ldc = s.n + 5;
          Tensor a = Tensor::Randn({ta ? s.k : s.m, lda}, rng);
          Tensor b = Tensor::Randn({tb ? s.n : s.k, ldb}, rng);
          Tensor c = Tensor::Randn({s.m, ldc}, rng);
          Tensor expected = c.Clone();

          const float alpha = 1.25f;
          const float beta = 0.5f;
          Gemm(ta, tb, s.m, s.n, s.k, alpha, a.data(), lda, b.data(), ldb,
               beta, c.data(), ldc);
          NaiveGemm(ta, tb, s.m, s.n, s.k, alpha, a.data(), lda, b.data(),
                    ldb, beta, expected.data(), ldc);

          for (std::int64_t i = 0; i < s.m; ++i) {
            for (std::int64_t j = 0; j < s.n; ++j) {
              const float got = c[i * ldc + j];
              const float want = expected[i * ldc + j];
              ASSERT_NEAR(got, want,
                          1e-4f * (1.0f + std::fabs(want)))
                  << "level=" << simd::IsaName(level) << " m=" << s.m
                  << " n=" << s.n << " k=" << s.k << " ta=" << ta
                  << " tb=" << tb << " at (" << i << "," << j << ")";
            }
          }
        }
      }
    }
  }
}

TEST(SimdGemm, BetaZeroOverwritesAndKZeroStillAppliesEpilogue) {
  for (const simd::IsaLevel level : simd::RunnableLevels()) {
    simd::ScopedIsaOverride override_level(level);
    Rng rng(12);
    Tensor c = Tensor::Full({3, 4}, 42.0f);
    std::vector<float> bias{1.0f, 2.0f, 3.0f};
    // k == 0: the product is empty, beta==0 zeroes C, the bias must still
    // land.
    GemmEx(false, false, 3, 4, 0, 1.0f, nullptr, 1, nullptr, 1, 0.0f,
           c.data(), 4, bias.data(), GemmEpilogue::kBiasRow);
    for (std::int64_t i = 0; i < 3; ++i) {
      for (std::int64_t j = 0; j < 4; ++j) {
        EXPECT_FLOAT_EQ(c[i * 4 + j], bias[static_cast<std::size_t>(i)])
            << "level=" << simd::IsaName(level);
      }
    }
  }
}

TEST(SimdGemm, FusedEpiloguesMatchUnfusedAcrossLevels) {
  const std::int64_t m = 19, n = 23, k = 31;
  Rng rng(13);
  Tensor a = Tensor::Randn({m, k}, rng);
  Tensor b = Tensor::Randn({k, n}, rng);
  Tensor row_bias = Tensor::Randn({m}, rng);
  Tensor col_bias = Tensor::Randn({n}, rng);

  // Unfused reference: plain product, then bias.
  Tensor base({m, n});
  NaiveGemm(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f,
            base.data(), n);

  for (const simd::IsaLevel level : simd::RunnableLevels()) {
    simd::ScopedIsaOverride override_level(level);
    for (const bool per_col : {false, true}) {
      Tensor c({m, n});
      GemmEx(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f,
             c.data(), n, per_col ? col_bias.data() : row_bias.data(),
             per_col ? GemmEpilogue::kBiasCol : GemmEpilogue::kBiasRow);
      for (std::int64_t i = 0; i < m; ++i) {
        for (std::int64_t j = 0; j < n; ++j) {
          const float want =
              base[i * n + j] + (per_col ? col_bias[j] : row_bias[i]);
          ASSERT_NEAR(c[i * n + j], want, 1e-4f * (1.0f + std::fabs(want)))
              << "level=" << simd::IsaName(level) << " per_col=" << per_col;
        }
      }
    }
  }
}

TEST(SimdElementwise, MatchesScalarKernelsAcrossLevels) {
  const std::int64_t n = 1003;  // odd length exercises every tail path
  Rng rng(14);
  Tensor x = Tensor::Randn({n}, rng, 3.0f);
  Tensor g = Tensor::Randn({n}, rng);
  const simd::KernelTable& scalar =
      simd::KernelsFor(simd::IsaLevel::kScalar);

  Tensor silu_ref({n}), silu_bwd_ref({n});
  scalar.silu_fwd(x.data(), silu_ref.data(), n);
  scalar.silu_bwd(x.data(), g.data(), silu_bwd_ref.data(), n);
  double sum_ref = 0.0, sumsq_ref = 0.0;
  scalar.moments(x.data(), n, &sum_ref, &sumsq_ref);
  Tensor norm_ref({n});
  scalar.norm_affine(x.data(), 0.25f, 1.5f, 0.8f, -0.1f, norm_ref.data(), n);
  Tensor softmax_ref = x.Clone();
  scalar.softmax_row(softmax_ref.data(), n);

  for (const simd::IsaLevel level : simd::RunnableLevels()) {
    const simd::KernelTable& kernels = simd::KernelsFor(level);

    Tensor y({n});
    kernels.silu_fwd(x.data(), y.data(), n);
    for (std::int64_t i = 0; i < n; ++i) {
      ASSERT_NEAR(y[i], silu_ref[i], 1e-5f * (1.0f + std::fabs(silu_ref[i])))
          << "silu_fwd level=" << simd::IsaName(level) << " i=" << i;
    }

    kernels.silu_bwd(x.data(), g.data(), y.data(), n);
    for (std::int64_t i = 0; i < n; ++i) {
      ASSERT_NEAR(y[i], silu_bwd_ref[i],
                  1e-5f * (1.0f + std::fabs(silu_bwd_ref[i])))
          << "silu_bwd level=" << simd::IsaName(level) << " i=" << i;
    }

    double sum = 0.0, sumsq = 0.0;
    kernels.moments(x.data(), n, &sum, &sumsq);
    EXPECT_NEAR(sum, sum_ref, 1e-6 * (1.0 + std::fabs(sum_ref)));
    EXPECT_NEAR(sumsq, sumsq_ref, 1e-6 * (1.0 + std::fabs(sumsq_ref)));

    kernels.norm_affine(x.data(), 0.25f, 1.5f, 0.8f, -0.1f, y.data(), n);
    for (std::int64_t i = 0; i < n; ++i) {
      ASSERT_NEAR(y[i], norm_ref[i], 1e-5f * (1.0f + std::fabs(norm_ref[i])))
          << "norm_affine level=" << simd::IsaName(level) << " i=" << i;
    }

    Tensor sm = x.Clone();
    kernels.softmax_row(sm.data(), n);
    double total = 0.0;
    for (std::int64_t i = 0; i < n; ++i) {
      ASSERT_NEAR(sm[i], softmax_ref[i], 1e-6f)
          << "softmax level=" << simd::IsaName(level) << " i=" << i;
      total += sm[i];
    }
    EXPECT_NEAR(total, 1.0, 1e-4);
  }
}

// The attention kernel replaces Gemm(scale * q k^T) -> softmax_row ->
// Gemm(attn v) and must equal that composition bit for bit at each level.
// It exists because nothing else checks the kernel independently: the
// training and workspace attention forwards both call it, so
// BatchedAttention, BatchedUNet and tests/glsc_reference.h compare it with
// itself. l = 300 and hd = 260 cross the 256-long K panel of each product.
TEST(SimdAttention, HeadKernelMatchesGemmCompositionAcrossLevels) {
  Rng rng(29);
  for (const simd::IsaLevel level : simd::RunnableLevels()) {
    simd::ScopedIsaOverride override_level(level);
    const simd::KernelTable& kernels = simd::ActiveKernels();
    for (const std::int64_t l : {1, 7, 16, 64, 300}) {
      for (const std::int64_t hd : {1, 3, 4, 8, 260}) {
        const Tensor q = Tensor::Randn({l, hd}, rng);
        const Tensor k = Tensor::Randn({l, hd}, rng);
        const Tensor v = Tensor::Randn({l, hd}, rng);
        const float scale = 1.0f / std::sqrt(static_cast<float>(hd));

        Tensor want_attn({l, l}), want_out({l, hd});
        Gemm(false, true, l, l, hd, scale, q.data(), hd, k.data(), hd, 0.0f,
             want_attn.data(), l);
        for (std::int64_t r = 0; r < l; ++r) {
          kernels.softmax_row(want_attn.data() + r * l, l);
        }
        Gemm(false, false, l, hd, l, 1.0f, want_attn.data(), l, v.data(), hd,
             0.0f, want_out.data(), hd);

        Tensor attn({l, l}), out({l, hd});
        attn.Fill(std::numeric_limits<float>::quiet_NaN());
        out.Fill(std::numeric_limits<float>::quiet_NaN());
        kernels.attention_head(q.data(), k.data(), v.data(), l, hd, scale,
                               attn.data(), out.data());
        EXPECT_EQ(0, std::memcmp(want_attn.data(), attn.data(),
                                 static_cast<std::size_t>(l * l) *
                                     sizeof(float)))
            << "attn, level=" << simd::IsaName(level) << " l=" << l
            << " hd=" << hd;
        EXPECT_EQ(0, std::memcmp(want_out.data(), out.data(),
                                 static_cast<std::size_t>(l * hd) *
                                     sizeof(float)))
            << "out, level=" << simd::IsaName(level) << " l=" << l
            << " hd=" << hd;
      }
    }
  }
}

TEST(SimdDispatch, OverrideWinsAndRestores) {
  const simd::IsaLevel native = simd::ActiveIsa();
  {
    simd::ScopedIsaOverride force_scalar(simd::IsaLevel::kScalar);
    EXPECT_EQ(simd::ActiveIsa(), simd::IsaLevel::kScalar);
    EXPECT_EQ(simd::ActiveKernels().level, simd::IsaLevel::kScalar);
  }
  EXPECT_EQ(simd::ActiveIsa(), native);
  // Requests above the detected level clamp instead of failing.
  {
    simd::ScopedIsaOverride force_max(simd::IsaLevel::kAVX512);
    EXPECT_LE(simd::ActiveIsa(), simd::DetectedIsa());
  }
}

// The kernel files are compiled with -falign-functions=64 (CMakeLists.txt),
// so the hot kernels' speed does not depend on where the linker puts them.
TEST(SimdDispatch, HotKernelsStartOn64ByteBoundaries) {
  const auto offset = [](auto* fn) {
    return reinterpret_cast<std::uintptr_t>(fn) % 64;
  };
  for (const simd::IsaLevel level : simd::RunnableLevels()) {
    const simd::KernelTable& table = simd::KernelsFor(level);
    EXPECT_EQ(offset(table.gemm_micro), 0u) << static_cast<int>(level);
    EXPECT_EQ(offset(table.softmax_row), 0u) << static_cast<int>(level);
    EXPECT_EQ(offset(table.attention_head), 0u) << static_cast<int>(level);
  }
}

// AVX2 and AVX-512 decode delta filters with their own vector scan. Were the
// AVX2 entry left null, both levels would silently inherit the scalar loop,
// several times slower; filters_test pins the bytes, this pins the speed.
TEST(SimdDispatch, SimdLevelsHaveTheirOwnDeltaDecode) {
  const auto scalar_delta_decode =
      simd::KernelsFor(simd::IsaLevel::kScalar).delta_decode;
  for (const simd::IsaLevel level : simd::RunnableLevels()) {
    if (level == simd::IsaLevel::kScalar) continue;
    EXPECT_NE(simd::KernelsFor(level).delta_decode, scalar_delta_decode)
        << simd::IsaName(level);
  }
}

// ---- entropy coder: bulk APIs and cross-level bitstream identity ----

TEST(SimdCodec, SpanApisMatchPerSymbolCoding) {
  // A small skewed table plus a symbol stream; EncodeSpan must be
  // byte-identical to per-symbol Encode, and DecodeSpan must reproduce the
  // symbols with the stop-symbol semantics.
  const std::vector<std::uint32_t> freq{7, 1, 20, 5, 3, 12};
  std::vector<std::uint32_t> cum(freq.size() + 1, 0);
  for (std::size_t i = 0; i < freq.size(); ++i) cum[i + 1] = cum[i] + freq[i];
  const std::uint32_t total = cum.back();

  Rng rng(15);
  std::vector<std::int32_t> syms(4096);
  for (auto& s : syms) {
    s = static_cast<std::int32_t>(rng.UniformInt(
        static_cast<std::uint64_t>(freq.size())));
  }

  codec::RangeEncoder per_symbol;
  for (const std::int32_t s : syms) {
    per_symbol.Encode(cum[static_cast<std::size_t>(s)],
                      freq[static_cast<std::size_t>(s)], total);
  }
  const auto ref_bytes = per_symbol.Finish();

  codec::RangeEncoder bulk;
  bulk.Reserve(syms.size());
  bulk.EncodeSpan(cum.data(), freq.data(), total, syms.data(), syms.size());
  const auto bulk_bytes = bulk.Finish();
  EXPECT_EQ(ref_bytes, bulk_bytes);

  codec::RangeDecoder dec(bulk_bytes.data(), bulk_bytes.size());
  std::vector<std::int32_t> decoded(syms.size());
  std::size_t got = 0;
  while (got < decoded.size()) {
    // stop_sym = 2 forces repeated re-entry, exercising the resume path.
    got += dec.DecodeSpan(cum.data(), freq.data(),
                          static_cast<std::uint32_t>(freq.size()), total,
                          /*stop_sym=*/2, decoded.data() + got,
                          decoded.size() - got);
  }
  EXPECT_EQ(decoded, syms);
}

TEST(SimdCodec, GaussianBitstreamIdenticalAcrossLevelsAndRoundTrips) {
  Rng rng(16);
  const Shape shape{3, 4, 16, 16};
  Tensor mu(shape), sigma(shape), y(shape);
  const std::int64_t n = y.numel();
  for (std::int64_t i = 0; i < n; ++i) {
    // Piecewise-constant parameters -> long runs with occasional breaks;
    // escapes included via the occasional huge offset.
    const bool new_block = (i % 97) == 0;
    mu[i] = new_block ? 2.0f * rng.NormalF() : mu[i - 1];
    sigma[i] = new_block ? std::exp(rng.NormalF()) : sigma[i - 1];
    y[i] = std::nearbyint(mu[i] + sigma[i] * rng.NormalF());
    if ((i % 501) == 0) y[i] = std::nearbyint(mu[i]) + 300.0f;  // escape
  }

  std::vector<std::vector<std::uint8_t>> streams;
  for (const simd::IsaLevel level : simd::RunnableLevels()) {
    simd::ScopedIsaOverride override_level(level);
    codec::GaussianConditionalModel model;
    auto bytes = model.Encode(y, mu, sigma);
    Tensor back = model.Decode(bytes, mu, sigma);
    for (std::int64_t i = 0; i < n; ++i) {
      ASSERT_EQ(back[i], y[i])
          << "round-trip level=" << simd::IsaName(level) << " i=" << i;
    }
    streams.push_back(std::move(bytes));
  }
  // The coder is integer-only: every level must emit identical bytes (and
  // therefore identical coded sizes).
  for (std::size_t i = 1; i < streams.size(); ++i) {
    EXPECT_EQ(streams[i], streams[0]) << "level index " << i;
  }

  // Cross-level decode: a scalar-encoded stream decodes under the native
  // kernels (and vice versa, covered by the identity above).
  simd::ScopedIsaOverride force_scalar(simd::IsaLevel::kScalar);
  codec::GaussianConditionalModel model;
  Tensor back = model.Decode(streams.back(), mu, sigma);
  for (std::int64_t i = 0; i < n; ++i) {
    ASSERT_EQ(back[i], y[i]) << "cross-level decode i=" << i;
  }
}

}  // namespace
}  // namespace glsc
