#include "serve/fault_injector.h"

#include <chrono>
#include <thread>

namespace glsc::serve {

void FaultInjector::Arm(Kind kind, int count, std::int64_t record,
                        int slow_ms) {
  if (count <= 0) return;
  MutexLock lock(mu_);
  armed_.push_back({kind, count, record, slow_ms});
}

void FaultInjector::Disarm() {
  MutexLock lock(mu_);
  armed_.clear();
}

void FaultInjector::OnDecode(std::size_t record) {
  calls_.fetch_add(1, std::memory_order_relaxed);
  Kind kind;
  int slow_ms = 0;
  {
    MutexLock lock(mu_);
    std::size_t hit = armed_.size();
    for (std::size_t i = 0; i < armed_.size(); ++i) {
      if (armed_[i].record < 0 ||
          armed_[i].record == static_cast<std::int64_t>(record)) {
        hit = i;
        break;
      }
    }
    if (hit == armed_.size()) return;
    kind = armed_[hit].kind;
    slow_ms = armed_[hit].slow_ms;
    if (--armed_[hit].remaining <= 0) {
      armed_.erase(armed_.begin() + static_cast<std::ptrdiff_t>(hit));
    }
  }
  // The throw/sleep happens OUTSIDE mu_ so a slow fault never serializes the
  // other decode workers through the injector.
  switch (kind) {
    case Kind::kTransient:
      transient_.fetch_add(1, std::memory_order_relaxed);
      throw StatusError(ErrorCode::kUnavailable,
                        "injected transient decode failure");
    case Kind::kCorrupt:
      throw StatusError(ErrorCode::kDataLoss, "injected corrupt payload");
    case Kind::kSlow:
      std::this_thread::sleep_for(std::chrono::milliseconds(slow_ms));
      return;
  }
}

}  // namespace glsc::serve
