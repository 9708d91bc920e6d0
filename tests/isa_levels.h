// Every SIMD dispatch level this host can run, scalar first, for tests that
// pin a kernel or a whole path at each level via simd::ScopedIsaOverride.
#pragma once

#include <vector>

#include "tensor/simd/dispatch.h"

namespace glsc {

inline std::vector<simd::IsaLevel> TestableLevels() {
  std::vector<simd::IsaLevel> levels{simd::IsaLevel::kScalar};
  const simd::IsaLevel max = simd::DetectedIsa();
  if (max >= simd::IsaLevel::kSSE2) levels.push_back(simd::IsaLevel::kSSE2);
  if (max >= simd::IsaLevel::kAVX2) levels.push_back(simd::IsaLevel::kAVX2);
  if (max >= simd::IsaLevel::kAVX512) {
    levels.push_back(simd::IsaLevel::kAVX512);
  }
  return levels;
}

}  // namespace glsc
