// Synthetic spatiotemporal field generators standing in for the paper's three
// evaluation datasets, which do not ship with the repository; each one
// mimics the physics of the field it replaces:
//
//  - Climate (E3SM analogue): advection–diffusion of a smooth multi-modal
//    scalar by a zonal-jet + gyre velocity field with diurnal forcing,
//    integrated semi-Lagrangian on a periodic grid.
//  - Combustion (S3D analogue): Gray–Scott reaction–diffusion with ignition
//    kernels; additional "species" channels are nonlinear functions of the
//    two prognostic fields, mirroring the strong inter-species correlation of
//    a reduced chemical mechanism.
//  - Turbulence (JHTDB analogue): divergence-free random-Fourier velocity
//    field with a k^(-5/3)-like spectrum whose mode amplitudes evolve as
//    complex Ornstein–Uhlenbeck processes (short temporal correlation).
//
// All generators are deterministic in (spec.seed) and return a tensor of
// shape [variables, frames, height, width].
#pragma once

#include "tensor/tensor.h"

namespace glsc::data {

struct FieldSpec {
  std::int64_t variables = 1;
  std::int64_t frames = 64;
  std::int64_t height = 32;
  std::int64_t width = 32;
  std::uint64_t seed = 7;
};

enum class DatasetKind { kClimate, kCombustion, kTurbulence };

const char* DatasetName(DatasetKind kind);

Tensor GenerateClimate(const FieldSpec& spec);
Tensor GenerateCombustion(const FieldSpec& spec);
Tensor GenerateTurbulence(const FieldSpec& spec);

Tensor GenerateField(DatasetKind kind, const FieldSpec& spec);

}  // namespace glsc::data
