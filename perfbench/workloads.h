// The benchmark's three workloads (see LAYERS.md for what each one is for).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunConfig {
  std::string workload;  // glsc_window_reads | sz_window_reads | sz_ingest
  std::uint64_t seed = 1;
  double seconds = 10.0;  // length of the timed window
  bool trace = false;     // per-layer run instead of the timed run
  bool tiny = false;      // smoke-test sizes
  std::string work_dir;   // archive files; created and removed by the run
  std::string out_dir;    // spans of the traced run
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;      // end-to-end, or per-layer when traced
  std::vector<Metric> diagnostics;  // host drift, sample counts, checks
};

// Builds, runs and checks one workload. Throws on a set-up failure.
RunResult RunWorkload(const RunConfig& config);

}  // namespace perfbench
