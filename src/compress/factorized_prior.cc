#include "compress/factorized_prior.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace glsc::compress {
namespace {

constexpr double kLn2 = 0.6931471805599453;
constexpr double kPmfFloor = 1e-9;

double Sigmoid(double x) { return 1.0 / (1.0 + std::exp(-x)); }

}  // namespace

FactorizedPrior::FactorizedPrior(std::int64_t channels, const std::string& name)
    : channels_(channels),
      mu_(name + ".mu", Tensor::Zeros({channels})),
      log_s_(name + ".log_s", Tensor::Full({channels}, 0.0f)) {}

std::vector<float> FactorizedPrior::MuValues() const {
  std::vector<float> v(static_cast<std::size_t>(channels_));
  for (std::int64_t c = 0; c < channels_; ++c) v[c] = mu_.value[c];
  return v;
}

std::vector<float> FactorizedPrior::ScaleValues() const {
  std::vector<float> v(static_cast<std::size_t>(channels_));
  for (std::int64_t c = 0; c < channels_; ++c) {
    v[c] = std::exp(log_s_.value[c]);
  }
  return v;
}

double FactorizedPrior::RateBits(const Tensor& z, Tensor* grad_z) {
  GLSC_CHECK(z.rank() >= 2 && z.dim(1) == channels_);
  const std::int64_t batch = z.dim(0);
  const std::int64_t inner = z.numel() / (batch * channels_);
  const float* pz = z.data();
  float* gz = grad_z != nullptr ? grad_z->data() : nullptr;

  double total_bits = 0.0;
  for (std::int64_t c = 0; c < channels_; ++c) {
    const double mu = mu_.value[c];
    const double s = std::exp(static_cast<double>(log_s_.value[c]));
    double g_mu = 0.0, g_logs = 0.0;
    for (std::int64_t b = 0; b < batch; ++b) {
      for (std::int64_t i = 0; i < inner; ++i) {
        const std::int64_t idx = (b * channels_ + c) * inner + i;
        const double a_arg = (pz[idx] + 0.5 - mu) / s;
        const double b_arg = (pz[idx] - 0.5 - mu) / s;
        const double sa = Sigmoid(a_arg);
        const double sb = Sigmoid(b_arg);
        const double p_raw = sa - sb;
        const bool floored = p_raw < kPmfFloor;
        const double p = floored ? kPmfFloor : p_raw;
        total_bits += -std::log2(p);
        if (gz == nullptr || floored) continue;

        const double da = sa * (1.0 - sa);  // logistic pdf * s
        const double db = sb * (1.0 - sb);
        const double dp_dz = (da - db) / s;
        const double dp_dmu = -dp_dz;
        // dp/ds = -(a_arg*da - b_arg*db)/s; chain to log_s multiplies by s.
        const double dp_dlogs = -(a_arg * da - b_arg * db);
        const double scale = -1.0 / (p * kLn2);
        gz[idx] += static_cast<float>(scale * dp_dz);
        g_mu += scale * dp_dmu;
        g_logs += scale * dp_dlogs;
      }
    }
    if (gz != nullptr) {
      mu_.grad[c] += static_cast<float>(g_mu);
      log_s_.grad[c] += static_cast<float>(g_logs);
    }
  }
  return total_bits;
}

double FactorizedPrior::RateBits(const Tensor& z) const {
  return const_cast<FactorizedPrior*>(this)->RateBits(z, nullptr);
}

std::vector<std::uint8_t> FactorizedPrior::Encode(const Tensor& z) const {
  return codec_.Encode(z, MuValues(), ScaleValues());
}

Tensor FactorizedPrior::Decode(const std::vector<std::uint8_t>& bytes,
                               const Shape& shape) const {
  // The hyperlatent shape comes off the wire: it must be non-empty and carry
  // this prior's channel count before anything is sized or divided by it.
  GLSC_CHECK_MSG(shape.size() >= 2 && shape[1] == channels_ &&
                     std::all_of(shape.begin(), shape.end(),
                                 [](std::int64_t d) { return d > 0; }),
                 "corrupt stream: hyperlatent shape " << ShapeToString(shape)
                                                      << " for " << channels_
                                                      << " prior channels");
  return codec_.Decode(bytes, shape, MuValues(), ScaleValues());
}

}  // namespace glsc::compress
