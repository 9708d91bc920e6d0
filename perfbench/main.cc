// Benchmark binary: runs one workload and prints its result.
//
//   glsc_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  --work-dir <dir> --out-dir <dir> [--tiny]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics (end-to-end metrics, or per-layer
// metrics with --trace 1). The line before it holds the diagnostics. Exits 1
// when an output breaks its error bound or a metric is not finite, 2 on a
// usage or set-up error.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "workloads.h"

namespace {

void PrintMetrics(const char* key, const std::vector<perfbench::Metric>& ms) {
  std::printf("\"%s\": {", key);
  for (std::size_t i = 0; i < ms.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", ms[i].name.c_str(), ms[i].value,
                ms[i].unit.c_str());
  }
  std::printf("}");
}

int Usage(const char* message) {
  std::fprintf(stderr,
               "error: %s\nusage: glsc_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --work-dir <dir> --out-dir <dir> "
               "[--tiny]\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--tiny") {
      config.tiny = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    if (arg == "--workload") {
      config.workload = value;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      config.trace = value == "1";
    } else if (arg == "--work-dir") {
      config.work_dir = value;
    } else if (arg == "--out-dir") {
      config.out_dir = value;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (config.workload.empty() || config.work_dir.empty() ||
      config.out_dir.empty() || !(config.seconds > 0.0)) {
    return Usage("--workload, --seconds > 0, --work-dir and --out-dir are required");
  }

  perfbench::RunResult result;
  try {
    std::filesystem::create_directories(config.work_dir);
    std::filesystem::create_directories(config.out_dir);
    result = perfbench::RunWorkload(config);
  } catch (const std::exception& e) {
    std::filesystem::remove_all(config.work_dir);
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  std::filesystem::remove_all(config.work_dir);

  bool finite = true;
  for (const perfbench::Metric& m : result.metrics) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "error: metric %s is not finite\n", m.name.c_str());
      finite = false;
    }
  }
  for (perfbench::Metric& m : result.diagnostics) {
    if (!std::isfinite(m.value)) m.value = -1.0;
  }
  std::printf("{");
  PrintMetrics("diagnostics", result.diagnostics);
  std::printf("}\n");
  if (!finite) return 1;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, ",
              result.correct ? "true" : "false",
              static_cast<long long>(result.attempted),
              static_cast<long long>(result.failed));
  PrintMetrics("metrics", result.metrics);
  std::printf("}\n");
  if (!result.correct) {
    std::fprintf(stderr, "error: an output broke its error bound\n");
    return 1;
  }
  return 0;
}
