#include "measure.h"

#include <sys/resource.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/archive_reader.h"
#include "serve/shard_manager.h"
#include "trace.h"

namespace perfbench {

double NearestRank(std::vector<double> samples, double pct) {
  if (samples.empty()) throw std::invalid_argument("percentile of no samples");
  std::sort(samples.begin(), samples.end());
  const auto n = static_cast<double>(samples.size());
  const auto rank = static_cast<std::size_t>(std::ceil(pct / 100.0 * n));
  return samples[std::clamp<std::size_t>(rank, 1, samples.size()) - 1];
}

double Median(std::vector<double> samples) {
  if (samples.empty()) throw std::invalid_argument("median of no samples");
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double Mean(const std::vector<double>& samples) {
  double sum = 0.0;
  for (double s : samples) sum += s;
  return samples.empty() ? 0.0 : sum / static_cast<double>(samples.size());
}

double CalibrationMs() {
  const std::int64_t start = NowNs();
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  std::uint64_t acc = 0;
  for (int i = 0; i < 20'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc += x >> 60;
  }
  const std::int64_t end = NowNs();
  // Keeps the loop observable so it cannot be folded away.
  if (acc == 0x5A5A5A5A) std::fputc(' ', stderr);
  return static_cast<double>(end - start) * 1e-6;
}

CpuJiffies ReadCpuJiffies() {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  CpuJiffies j;
  if (label != "cpu") return j;
  // user nice system idle iowait irq softirq steal
  for (int field = 0; field < 8; ++field) {
    std::uint64_t v = 0;
    if (!(in >> v)) return CpuJiffies{};
    j.total += v;
    if (field == 7) j.steal = v;
  }
  return j;
}

double StealShare(const CpuJiffies& before, const CpuJiffies& after) {
  const std::uint64_t total = after.total - before.total;
  return total == 0 ? 0.0
                    : static_cast<double>(after.steal - before.steal) /
                          static_cast<double>(total);
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::int64_t ContextSwitches() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_nvcsw + usage.ru_nivcsw;
}

namespace {

struct FrameScan {
  float mn, mx, peak, worst_point;
  double sq;  // NaN here flags a non-finite output
};

// One pass over a frame, cloned per ISA level. The comparisons are spelled
// out because GCC leaves the std::min/std::max form of this loop scalar,
// about six times slower; the checker thread must keep well ahead of the sz
// read clients, or they block on its full queue. A NaN error is skipped by
// the comparisons but carried into `sq`.
__attribute__((target_clones("avx512f", "avx2", "default"))) FrameScan
ScanFrame(const float* src, const float* out, std::int64_t n) {
  float mn = src[0], mx = src[0], peak = 0.0f, worst_point = 0.0f;
  double sq = 0.0;
#pragma omp simd reduction(min : mn) reduction(max : mx, peak, worst_point) \
    reduction(+ : sq)
  for (std::int64_t i = 0; i < n; ++i) {
    const float s = src[i];
    const float err = out[i] - s;
    const float abs_s = std::fabs(s);
    const float abs_err = std::fabs(err);
    mn = s < mn ? s : mn;
    mx = s > mx ? s : mx;
    peak = abs_s > peak ? abs_s : peak;
    worst_point = abs_err > worst_point ? abs_err : worst_point;
    sq += static_cast<double>(err) * err;
  }
  return {mn, mx, peak, worst_point, sq};
}

}  // namespace

void BoundChecker::Check(const float* source, const float* got,
                         std::int64_t frames, std::int64_t frame_size,
                         double global_range) {
  for (std::int64_t f = 0; f < frames; ++f) {
    const auto [mn, mx, peak, worst_point, sq] =
        ScanFrame(source + f * frame_size, got + f * frame_size, frame_size);
    // The codecs normalize each frame and de-normalize on decode in float;
    // that rounding (a few ulp of the largest value) is not codec error.
    const double rounding = 4.0 * FLT_EPSILON * peak;
    const double range = std::max(mx - mn, 1e-12f);
    const double allowance =
        mode_ == Mode::kPointwiseRelative
            ? bound_ * range + rounding
            : bound_ * range +
                  std::sqrt(static_cast<double>(frame_size)) * rounding;
    const double error =
        mode_ == Mode::kPointwiseRelative ? worst_point : std::sqrt(sq);
    const double share = error / allowance;
    worst_share_ = std::max(worst_share_, share);
    if (!(share <= 1.0) || !std::isfinite(sq)) ++violations_;
    normalized_sq_sum_ += sq / (global_range * global_range);
    values_ += frame_size;
    ++frames_;
  }
}

double BoundChecker::nrmse() const {
  return values_ == 0
             ? 0.0
             : std::sqrt(normalized_sq_sum_ / static_cast<double>(values_));
}

Counters ReadCounters(
    const glsc::serve::ShardManager* manager,
    const std::vector<const glsc::core::ArchiveReader*>& readers) {
  Counters c;
  if (manager != nullptr) {
    const glsc::serve::ServeStats s = manager->Stats();
    c.decoded_records = s.decoded_records;
    c.cache_hits = s.cache_hits;
    c.retries = s.retries;
    c.shed = s.shed_queue_full + s.rejected_tenant_limit + s.rejected_budget +
             s.rejected_quarantine;
  }
  for (const glsc::core::ArchiveReader* reader : readers) {
    c.fetched_stored_bytes += reader->payload_bytes_fetched();
    c.fetched_raw_bytes += reader->decoded_payload_bytes();
  }
  return c;
}

Counters operator-(const Counters& after, const Counters& before) {
  Counters d;
  d.decoded_records = after.decoded_records - before.decoded_records;
  d.cache_hits = after.cache_hits - before.cache_hits;
  d.retries = after.retries - before.retries;
  d.shed = after.shed - before.shed;
  d.fetched_stored_bytes = after.fetched_stored_bytes - before.fetched_stored_bytes;
  d.fetched_raw_bytes = after.fetched_raw_bytes - before.fetched_raw_bytes;
  return d;
}

}  // namespace perfbench
