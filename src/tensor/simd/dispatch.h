// Runtime CPU-feature dispatch for the SIMD compute backend.
//
// Every hot kernel (GEMM micro-kernel, activations, softmax, normalization
// moments, the GEMM bias epilogue, …) exists in up to three variants —
// portable scalar, AVX2+FMA and AVX-512 — collected in a KernelTable
// (kernels.h). The variant is chosen once, at first use, from CPUID plus one
// environment override:
//
//   GLSC_ISA=scalar|avx2|avx512  cap the dispatch level explicitly
//
// An override can only lower the level below what the CPU supports; asking
// for AVX2 on a non-AVX2 host silently falls back to the best available. Any
// other value (including the retired "sse2") keeps the detected level.
// Tests use ScopedIsaOverride to exercise every level in-process.
#pragma once

#include <vector>

namespace glsc::simd {

enum class IsaLevel { kScalar = 0, kAVX2 = 1, kAVX512 = 2 };

// Highest level this CPU supports (ignores environment overrides).
IsaLevel DetectedIsa();

// Every level this CPU can run, scalar first, up to DetectedIsa(): the list
// tests and benchmarks sweep with ScopedIsaOverride.
std::vector<IsaLevel> RunnableLevels();

// Level the dispatcher resolves to: min(DetectedIsa, env caps), unless an
// override is active, in which case the override wins.
IsaLevel ActiveIsa();

const char* IsaName(IsaLevel level);

// RAII pin of the dispatch level, for tests and benchmarks that compare
// levels within one process. Requested levels above DetectedIsa() are
// clamped. Not thread-safe: establish overrides from a single thread only.
class ScopedIsaOverride {
 public:
  explicit ScopedIsaOverride(IsaLevel level);
  ~ScopedIsaOverride();
  ScopedIsaOverride(const ScopedIsaOverride&) = delete;
  ScopedIsaOverride& operator=(const ScopedIsaOverride&) = delete;

 private:
  bool had_previous_;
  IsaLevel previous_;
};

}  // namespace glsc::simd
