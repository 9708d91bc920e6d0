// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded from the benchmark's own code around each call into a
// program layer (see LAYERS.md); the program itself carries no
// instrumentation. A span's parent is the innermost span still open on the
// same thread, or else the root span of the op in flight, so codec calls that
// the serving stack makes on its own worker threads nest under the client's
// op. The traced run drives one client, so exactly one op is in flight and
// every span belongs to exactly one op (op -1 marks set-up work).
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

std::int64_t NowNs();

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  // index into the span list, -1 for a root
  std::int64_t op = -1;      // -1: recorded outside any op (set-up)
  std::int32_t batch = 0;    // records in the call, 0 where not applicable
};

class Tracer {
 public:
  // Opens the root span of op `op`; spans opened until EndOp nest under it.
  void BeginOp(std::int64_t op);
  void EndOp();

  // Opens a span under the current parent and returns its handle.
  std::int32_t Begin(const char* name, std::int32_t batch = 0);
  void End(std::int32_t handle);

  std::vector<Span> spans() const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::int64_t op_ = -1;
  std::int32_t op_root_ = -1;
};

// RAII span; a null tracer makes it a no-op so untraced runs pay nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, std::int32_t batch = 0)
      : tracer_(tracer),
        handle_(tracer != nullptr ? tracer->Begin(name, batch) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(handle_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::int32_t handle() const { return handle_; }

 private:
  Tracer* tracer_;
  std::int32_t handle_;
};

// Self time of every span: its duration minus the part of that interval its
// children cover. Children are clipped to the parent and overlapping children
// are merged, so within one op the self times sum to the root's duration.
std::vector<std::int64_t> SelfTimesNs(const std::vector<Span>& spans);

// Writes the spans as a JSON array (one object per span, times in ns).
void WriteSpansJson(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench
