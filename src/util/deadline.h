// Per-request deadline and cooperative cancellation, threaded from the serve
// front end down through DecodeScheduler. A decode cannot be preempted
// mid-GEMM; instead the layers check a RequestContext at natural yield points
// (between decode chunks) and terminate with a typed error. Header-only —
// these are a time_point, an atomic flag, and the check that turns them into
// StatusErrors.
#pragma once

#include <atomic>
#include <chrono>

#include "util/status.h"

namespace glsc {

// Absolute wall-clock budget for one request. Default-constructed deadlines
// never expire.
class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  Deadline() = default;

  static Deadline After(std::chrono::nanoseconds budget) {
    Deadline d;
    d.at_ = Clock::now() + budget;
    d.finite_ = true;
    return d;
  }
  static Deadline AfterMillis(std::int64_t ms) {
    return After(std::chrono::milliseconds(ms));
  }

  bool finite() const { return finite_; }
  bool expired() const { return finite_ && Clock::now() >= at_; }
  Clock::time_point at() const { return at_; }

 private:
  Clock::time_point at_{};
  bool finite_ = false;
};

// Set-once cancellation flag shared between a caller and the workers serving
// its request. Thread-safe; cancelling is advisory (workers observe it at
// their next check point).
class CancelToken {
 public:
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> cancelled_{false};
};

// What a request carries through the decode layers. Both members are
// optional: the default context never expires and cannot be cancelled, so
// passing nullptr and passing a default RequestContext are equivalent.
struct RequestContext {
  Deadline deadline;
  const CancelToken* cancel = nullptr;

  bool cancelled() const { return cancel != nullptr && cancel->cancelled(); }
  bool expired() const { return deadline.expired(); }

  // Throws the matching typed error when the request should stop. Cancel wins
  // over deadline so an explicit Cancel() is always reported as kCancelled.
  void Check() const {
    if (cancelled()) {
      throw StatusError(ErrorCode::kCancelled, "request cancelled");
    }
    if (expired()) {
      throw StatusError(ErrorCode::kDeadlineExceeded, "deadline exceeded");
    }
  }
};

// True when `ctx` (possibly null) says the request should stop.
inline bool ShouldAbort(const RequestContext* ctx) {
  return ctx != nullptr && (ctx->cancelled() || ctx->expired());
}

}  // namespace glsc
