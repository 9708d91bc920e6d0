// Test seam for serving-path robustness: injects decode failures without
// touching any codec. DecodeScheduler calls OnDecode(record) immediately
// before decoding a record's payload when ScheduleOptions::fault_injector is
// set; the injector may sleep (slow decode), throw a transient StatusError
// (retryable), or throw a kDataLoss StatusError (simulated corrupt payload,
// quarantine-worthy). Production builds pay one null-pointer test per record.
//
// Faults are "armed" with a count and an optional record filter; each decode
// that matches consumes one charge. Thread-safe — decode workers race on it
// by design.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "util/mutex.h"
#include "util/status.h"

namespace glsc::serve {

class FaultInjector {
 public:
  enum class Kind : std::uint8_t {
    kTransient = 0,  // throw StatusError(kUnavailable)
    kCorrupt = 1,    // throw StatusError(kDataLoss)
    kSlow = 2,       // sleep slow_ms, then decode normally
  };

  // Arms `count` charges of `kind`. `record` restricts the fault to one
  // record index (-1 = any record). Slow faults sleep `slow_ms` per charge.
  // Multiple armed faults coexist; the first matching armed fault (oldest
  // first) is consumed per decode, and a consumed kSlow charge does not
  // shield the record from a later-armed throwing fault on the NEXT decode.
  void Arm(Kind kind, int count, std::int64_t record = -1, int slow_ms = 0);

  // Drops every armed fault (counters are kept).
  void Disarm();

  // Called by the scheduler before each record decode. May sleep or throw as
  // described above; returns normally when no armed fault matches.
  void OnDecode(std::size_t record);

  // Transient faults actually injected.
  std::int64_t injected_transient() const {
    return transient_.load(std::memory_order_relaxed);
  }
  // Every OnDecode call, injected or not — lets tests assert that a
  // quarantined shard fails fast without reaching the decoder.
  std::int64_t decode_calls() const {
    return calls_.load(std::memory_order_relaxed);
  }

 private:
  struct Armed {
    Kind kind;
    int remaining;
    std::int64_t record;  // -1 = any
    int slow_ms;
  };

  Mutex mu_{"FaultInjector.mu"};
  std::vector<Armed> armed_ GUARDED_BY(mu_);
  std::atomic<std::int64_t> transient_{0};
  std::atomic<std::int64_t> calls_{0};
};

}  // namespace glsc::serve
