#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace glsc {
namespace {

template <typename F>
Tensor Binary(const Tensor& a, const Tensor& b, F&& fn) {
  GLSC_CHECK_MSG(a.shape() == b.shape(),
                 "shape mismatch " << ShapeToString(a.shape()) << " vs "
                                   << ShapeToString(b.shape()));
  Tensor out = Tensor::Empty(a.shape());
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  const std::int64_t n = a.numel();
  for (std::int64_t i = 0; i < n; ++i) po[i] = fn(pa[i], pb[i]);
  return out;
}

}  // namespace

Tensor Add(const Tensor& a, const Tensor& b) {
  return Binary(a, b, [](float x, float y) { return x + y; });
}
Tensor Sub(const Tensor& a, const Tensor& b) {
  return Binary(a, b, [](float x, float y) { return x - y; });
}

void Axpy(float alpha, const Tensor& x, Tensor* y) {
  GLSC_CHECK(x.shape() == y->shape());
  const float* px = x.data();
  float* py = y->data();
  const std::int64_t n = x.numel();
  for (std::int64_t i = 0; i < n; ++i) py[i] += alpha * px[i];
}

Tensor AddScalar(const Tensor& a, float s) {
  return Map(a, [s](float x) { return x + s; });
}

void MulScalarInPlace(Tensor* a, float s) {
  float* p = a->data();
  const std::int64_t n = a->numel();
  for (std::int64_t i = 0; i < n; ++i) p[i] *= s;
}

Tensor Map(const Tensor& a, const std::function<float(float)>& fn) {
  Tensor out = Tensor::Empty(a.shape());
  const float* pa = a.data();
  float* po = out.data();
  const std::int64_t n = a.numel();
  for (std::int64_t i = 0; i < n; ++i) po[i] = fn(pa[i]);
  return out;
}

Tensor Clamp(const Tensor& a, float lo, float hi) {
  return Map(a, [lo, hi](float x) { return std::clamp(x, lo, hi); });
}
Tensor Round(const Tensor& a) {
  return Map(a, [](float x) { return std::nearbyint(x); });
}

void ClampInPlace(Tensor* a, float lo, float hi) {
  float* p = a->data();
  const std::int64_t n = a->numel();
  for (std::int64_t i = 0; i < n; ++i) p[i] = std::clamp(p[i], lo, hi);
}

void RoundInPlace(Tensor* a) {
  float* p = a->data();
  const std::int64_t n = a->numel();
  for (std::int64_t i = 0; i < n; ++i) p[i] = std::nearbyint(p[i]);
}

double SumSquares(const Tensor& a) {
  const float* p = a.data();
  const std::int64_t n = a.numel();
  double s = 0.0;
  for (std::int64_t i = 0; i < n; ++i) s += static_cast<double>(p[i]) * p[i];
  return s;
}

double MeanSquaredError(const Tensor& a, const Tensor& b) {
  GLSC_CHECK(a.shape() == b.shape());
  GLSC_CHECK(a.numel() > 0);
  const float* pa = a.data();
  const float* pb = b.data();
  const std::int64_t n = a.numel();
  double s = 0.0;
  for (std::int64_t i = 0; i < n; ++i) {
    const double d = static_cast<double>(pa[i]) - pb[i];
    s += d * d;
  }
  return s / static_cast<double>(n);
}

double DotProduct(const Tensor& a, const Tensor& b) {
  GLSC_CHECK(a.shape() == b.shape());
  const float* pa = a.data();
  const float* pb = b.data();
  const std::int64_t n = a.numel();
  double s = 0.0;
  for (std::int64_t i = 0; i < n; ++i) {
    s += static_cast<double>(pa[i]) * pb[i];
  }
  return s;
}

void SymmetricEigen(const std::vector<double>& a, int n,
                    std::vector<double>* eigvals,
                    std::vector<double>* eigvecs) {
  GLSC_CHECK(static_cast<int>(a.size()) == n * n);
  std::vector<double> m = a;          // working copy, becomes diagonal
  std::vector<double>& v = *eigvecs;  // accumulated rotations
  v.assign(static_cast<std::size_t>(n) * n, 0.0);
  for (int i = 0; i < n; ++i) v[i * n + i] = 1.0;

  // Cyclic Jacobi sweeps: rotate away the largest off-diagonal entries until
  // convergence. O(n^3) per sweep; residual PCA uses n <= a few hundred.
  const int max_sweeps = 64;
  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    double off = 0.0;
    for (int i = 0; i < n; ++i) {
      for (int j = i + 1; j < n; ++j) off += m[i * n + j] * m[i * n + j];
    }
    if (off < 1e-24) break;
    for (int p = 0; p < n - 1; ++p) {
      for (int q = p + 1; q < n; ++q) {
        const double apq = m[p * n + q];
        if (std::fabs(apq) < 1e-300) continue;
        const double app = m[p * n + p];
        const double aqq = m[q * n + q];
        const double theta = (aqq - app) / (2.0 * apq);
        const double t = (theta >= 0 ? 1.0 : -1.0) /
                         (std::fabs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;
        for (int k = 0; k < n; ++k) {
          const double mkp = m[k * n + p];
          const double mkq = m[k * n + q];
          m[k * n + p] = c * mkp - s * mkq;
          m[k * n + q] = s * mkp + c * mkq;
        }
        for (int k = 0; k < n; ++k) {
          const double mpk = m[p * n + k];
          const double mqk = m[q * n + k];
          m[p * n + k] = c * mpk - s * mqk;
          m[q * n + k] = s * mpk + c * mqk;
        }
        for (int k = 0; k < n; ++k) {
          const double vkp = v[k * n + p];
          const double vkq = v[k * n + q];
          v[k * n + p] = c * vkp - s * vkq;
          v[k * n + q] = s * vkp + c * vkq;
        }
      }
    }
  }

  eigvals->resize(n);
  for (int i = 0; i < n; ++i) (*eigvals)[i] = m[i * n + i];

  // Sort descending by eigenvalue, permuting eigenvector columns to match.
  std::vector<int> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int x, int y) {
    return (*eigvals)[x] > (*eigvals)[y];
  });
  std::vector<double> sorted_vals(n);
  std::vector<double> sorted_vecs(static_cast<std::size_t>(n) * n);
  for (int col = 0; col < n; ++col) {
    sorted_vals[col] = (*eigvals)[order[col]];
    for (int row = 0; row < n; ++row) {
      sorted_vecs[row * n + col] = v[row * n + order[col]];
    }
  }
  *eigvals = std::move(sorted_vals);
  *eigvecs = std::move(sorted_vecs);
}

}  // namespace glsc
