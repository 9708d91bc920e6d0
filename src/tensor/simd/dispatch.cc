#include "tensor/simd/dispatch.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "tensor/simd/kernels.h"
#include "util/check.h"

namespace glsc::simd {
namespace {

IsaLevel DetectIsa() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f")) {
    return IsaLevel::kAVX512;
  }
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return IsaLevel::kAVX2;
  }
#endif
  return IsaLevel::kScalar;
}

// The environment cap is read once; the dispatch level never changes after
// the first kernel call except through ScopedIsaOverride.
IsaLevel EnvCappedIsa() {
  IsaLevel level = DetectIsa();
  if (const char* isa = std::getenv("GLSC_ISA")) {
    if (std::strcmp(isa, "scalar") == 0) return IsaLevel::kScalar;
    if (std::strcmp(isa, "avx2") == 0 && level >= IsaLevel::kAVX2) {
      return IsaLevel::kAVX2;
    }
    if (std::strcmp(isa, "avx512") == 0 && level >= IsaLevel::kAVX512) {
      return IsaLevel::kAVX512;
    }
    // Unknown or unsupported request: keep the detected level.
  }
  return level;
}

// Merges a partially-populated table with the scalar fallbacks. mr/nr travel
// with gemm_micro: a table either ships its own micro-kernel (and tile dims)
// or inherits all three.
KernelTable Merge(const KernelTable* specialized, const KernelTable& scalar) {
  if (specialized == nullptr) return scalar;
  KernelTable t = *specialized;
  if (t.gemm_micro == nullptr) {
    t.gemm_micro = scalar.gemm_micro;
    t.mr = scalar.mr;
    t.nr = scalar.nr;
  }
  if (t.silu_fwd == nullptr) t.silu_fwd = scalar.silu_fwd;
  if (t.silu_bwd == nullptr) t.silu_bwd = scalar.silu_bwd;
  if (t.softmax_row == nullptr) t.softmax_row = scalar.softmax_row;
  if (t.moments == nullptr) t.moments = scalar.moments;
  if (t.norm_affine == nullptr) t.norm_affine = scalar.norm_affine;
  if (t.norm_affine_vec == nullptr) t.norm_affine_vec = scalar.norm_affine_vec;
  if (t.bias_row == nullptr) t.bias_row = scalar.bias_row;
  if (t.attention_head == nullptr) t.attention_head = scalar.attention_head;
  if (t.shuffle_bytes == nullptr) t.shuffle_bytes = scalar.shuffle_bytes;
  if (t.unshuffle_bytes == nullptr) t.unshuffle_bytes = scalar.unshuffle_bytes;
  if (t.bit_transpose == nullptr) t.bit_transpose = scalar.bit_transpose;
  if (t.bit_untranspose == nullptr) {
    t.bit_untranspose = scalar.bit_untranspose;
  }
  if (t.delta_encode == nullptr) t.delta_encode = scalar.delta_encode;
  if (t.delta_decode == nullptr) t.delta_decode = scalar.delta_decode;
  return t;
}

struct Registry {
  KernelTable scalar;
  KernelTable avx2;
  KernelTable avx512;
  IsaLevel detected;
  IsaLevel env_capped;
};

const Registry& GetRegistry() {
  static const Registry registry = [] {
    Registry r;
    const KernelTable* scalar = GetScalarTable();
    GLSC_CHECK(scalar != nullptr && scalar->gemm_micro != nullptr);
    r.scalar = *scalar;
    // Each level inherits the entries the next one down resolved.
    r.avx2 = Merge(GetAvx2Table(), r.scalar);
    r.avx512 = Merge(GetAvx512Table(), r.avx2);
    r.detected = DetectIsa();
    r.env_capped = EnvCappedIsa();
    return r;
  }();
  return registry;
}

const KernelTable& TableAt(IsaLevel level) {
  const Registry& r = GetRegistry();
  switch (level) {
    case IsaLevel::kAVX512:
      return r.avx512;
    case IsaLevel::kAVX2:
      return r.avx2;
    case IsaLevel::kScalar:
    default:
      return r.scalar;
  }
}

// Active table pointer; null until first resolution. Overrides swap it.
std::atomic<const KernelTable*> g_active{nullptr};

// Override bookkeeping (single-threaded by contract).
bool g_override_active = false;
IsaLevel g_override_level = IsaLevel::kScalar;

const KernelTable* ResolveActive() {
  const Registry& r = GetRegistry();
  const IsaLevel level = g_override_active
                             ? (g_override_level <= r.detected
                                    ? g_override_level
                                    : r.detected)
                             : r.env_capped;
  const KernelTable* table = &TableAt(level);
  g_active.store(table, std::memory_order_release);
  return table;
}

}  // namespace

IsaLevel DetectedIsa() { return GetRegistry().detected; }

std::vector<IsaLevel> RunnableLevels() {
  std::vector<IsaLevel> levels;
  for (const IsaLevel level :
       {IsaLevel::kScalar, IsaLevel::kAVX2, IsaLevel::kAVX512}) {
    if (level <= DetectedIsa()) levels.push_back(level);
  }
  return levels;
}

IsaLevel ActiveIsa() { return ActiveKernels().level; }

const char* IsaName(IsaLevel level) {
  switch (level) {
    case IsaLevel::kAVX512:
      return "avx512";
    case IsaLevel::kAVX2:
      return "avx2";
    case IsaLevel::kScalar:
    default:
      return "scalar";
  }
}

const KernelTable& ActiveKernels() {
  const KernelTable* table = g_active.load(std::memory_order_acquire);
  if (table == nullptr) table = ResolveActive();
  return *table;
}

const KernelTable& KernelsFor(IsaLevel level) {
  const IsaLevel clamped =
      level <= GetRegistry().detected ? level : GetRegistry().detected;
  return TableAt(clamped);
}

ScopedIsaOverride::ScopedIsaOverride(IsaLevel level)
    : had_previous_(g_override_active), previous_(g_override_level) {
  g_override_active = true;
  g_override_level = level;
  ResolveActive();
}

ScopedIsaOverride::~ScopedIsaOverride() {
  g_override_active = had_previous_;
  g_override_level = previous_;
  ResolveActive();
}

}  // namespace glsc::simd
