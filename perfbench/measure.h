// Measurement helpers: order statistics, host-drift probes, the error-bound
// checker and the one function that reads the program's counters.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace glsc::core {
class ArchiveReader;
}  // namespace glsc::core
namespace glsc::serve {
class ShardManager;
}  // namespace glsc::serve

namespace perfbench {

// Nearest-rank percentile (pct in (0, 100]): the smallest sample with at
// least pct% of the samples at or below it. Throws on an empty sample.
double NearestRank(std::vector<double> samples, double pct);
double Median(std::vector<double> samples);
double Mean(const std::vector<double>& samples);

// ---- Host-drift diagnostics (reported beside the metrics, never applied) --

// Milliseconds one fixed-work, single-thread integer loop takes right now.
double CalibrationMs();

// Cumulative CPU jiffies from /proc/stat: total and VM steal.
struct CpuJiffies {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
CpuJiffies ReadCpuJiffies();
// Share of CPU time stolen by the hypervisor between two readings.
double StealShare(const CpuJiffies& before, const CpuJiffies& after);

// Process high-water resident set size, MB.
double PeakRssMb();
// Voluntary + involuntary context switches of this process so far.
std::int64_t ContextSwitches();

// ---- Correctness ----------------------------------------------------------

// Checks returned frames against the generated source, in physical units,
// and accumulates the NRMSE of everything checked (paper Eq. 12: RMSE over
// the global range of the source field).
class BoundChecker {
 public:
  enum class Mode {
    kPointwiseRelative,  // |x' - x| <= bound * frame range, every point
    kFrameL2,            // ||x' - x||_2 <= bound * frame range, every frame
  };
  BoundChecker(Mode mode, double bound) : mode_(mode), bound_(bound) {}

  // `source` and `got` hold `frames` frames of `frame_size` values;
  // `global_range` is max - min over the whole source field.
  void Check(const float* source, const float* got, std::int64_t frames,
             std::int64_t frame_size, double global_range);

  std::int64_t frames_checked() const { return frames_; }
  std::int64_t violations() const { return violations_; }
  // Largest error seen as a share of its allowance (<= 1 when all held).
  double worst_share() const { return worst_share_; }
  double nrmse() const;

 private:
  Mode mode_;
  double bound_;
  std::int64_t frames_ = 0;
  std::int64_t values_ = 0;
  std::int64_t violations_ = 0;
  double worst_share_ = 0.0;
  double normalized_sq_sum_ = 0.0;
};

// ---- Program counters -----------------------------------------------------

// Every counter the benchmark reads from the program, in one place, so that
// moving them onto another interface re-points only ReadCounters.
struct Counters {
  std::int64_t decoded_records = 0;
  std::int64_t cache_hits = 0;
  std::int64_t retries = 0;
  std::int64_t shed = 0;
  std::uint64_t fetched_stored_bytes = 0;
  std::uint64_t fetched_raw_bytes = 0;
};
// `manager` may be null (no serving stack).
Counters ReadCounters(const glsc::serve::ShardManager* manager,
                      const std::vector<const glsc::core::ArchiveReader*>& readers);
Counters operator-(const Counters& after, const Counters& before);

}  // namespace perfbench
