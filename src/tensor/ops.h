// Elementwise and reduction operations on Tensor. These cover exactly what
// the explicit-backward layers need; each op allocates its result so callers
// never worry about aliasing.
#pragma once

#include <functional>

#include "tensor/tensor.h"

namespace glsc {

// ---- elementwise binary (shapes must match exactly) ----
Tensor Add(const Tensor& a, const Tensor& b);
Tensor Sub(const Tensor& a, const Tensor& b);

// In-place AXPY: y += alpha * x.
void Axpy(float alpha, const Tensor& x, Tensor* y);

// ---- elementwise scalar ----
Tensor AddScalar(const Tensor& a, float s);
void MulScalarInPlace(Tensor* a, float s);

// ---- elementwise unary ----
Tensor Map(const Tensor& a, const std::function<float(float)>& fn);
Tensor Clamp(const Tensor& a, float lo, float hi);
Tensor Round(const Tensor& a);

// In-place unary variants for allocation-free hot paths.
void ClampInPlace(Tensor* a, float lo, float hi);
void RoundInPlace(Tensor* a);

// ---- reductions ----
// Sum of squared elements.
double SumSquares(const Tensor& a);
// Mean squared difference; the distortion term of the RD loss.
double MeanSquaredError(const Tensor& a, const Tensor& b);
double DotProduct(const Tensor& a, const Tensor& b);

// ---- linear algebra on small dense matrices (row-major `a` is n x n) ----
// Cyclic Jacobi eigensolver for symmetric matrices. Eigenvalues are returned
// descending with matching columns in `eigvecs` (n x n, row-major).
void SymmetricEigen(const std::vector<double>& a, int n,
                    std::vector<double>* eigvals,
                    std::vector<double>* eigvecs);

}  // namespace glsc
