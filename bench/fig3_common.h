// Shared driver for the three Figure-3 benches (E3SM / S3D / JHTDB): trains
// or loads every method on the dataset analogue, traces all rate-distortion
// curves with real coded bytes, and prints the comparison rows plus the
// paper-shape checks.
#pragma once

#include <string>

#include "data/field_generators.h"

namespace glsc::bench {

struct Fig3Options {
  // GCD (CDC with 8-frame blocks) appears only in Fig. 3a (E3SM).
  bool include_gcd = false;
  std::int64_t decode_steps = 32;
};

void RunFig3(data::DatasetKind kind, const std::string& figure_name,
             const Fig3Options& options);

}  // namespace glsc::bench
