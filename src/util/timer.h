// Wall-clock timing helpers used by the speed benchmarks (Table 2) and by
// training progress logs.
#pragma once

#include <chrono>

namespace glsc {

class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  void Reset() { start_ = Clock::now(); }

  double Seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace glsc
