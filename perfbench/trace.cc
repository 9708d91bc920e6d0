#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

namespace {

// Spans opened and not yet closed on this thread, innermost last.
thread_local std::vector<std::int32_t> open_spans;

}  // namespace

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Tracer::BeginOp(std::int64_t op) {
  const std::int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  op_ = op;
  op_root_ = static_cast<std::int32_t>(spans_.size());
  spans_.push_back(Span{"op", now, 0, -1, op, 0});
}

void Tracer::EndOp() {
  const std::int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(op_root_)].end_ns = now;
  op_ = -1;
  op_root_ = -1;
}

std::int32_t Tracer::Begin(const char* name, std::int32_t batch) {
  const std::int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  const std::int32_t parent = open_spans.empty() ? op_root_ : open_spans.back();
  const auto handle = static_cast<std::int32_t>(spans_.size());
  spans_.push_back(Span{name, now, 0, parent, op_, batch});
  open_spans.push_back(handle);
  return handle;
}

void Tracer::End(std::int32_t handle) {
  const std::int64_t now = NowNs();
  open_spans.pop_back();  // ScopedSpan closes spans innermost first
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(handle)].end_ns = now;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<std::int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                                s.end_ns);
    }
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t lo = spans[i].start_ns;
    const std::int64_t hi = spans[i].end_ns;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t cursor = lo;  // end of the covered prefix so far
    for (const auto& [start, end] : kids) {
      const std::int64_t a = std::max(start, cursor);
      const std::int64_t b = std::min(end, hi);
      if (b > a) {
        covered += b - a;
        cursor = b;
      }
    }
    self[i] = (hi - lo) - covered;
  }
  return self;
}

void WriteSpansJson(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) throw std::runtime_error("cannot write " + path);
  std::fprintf(out, "[\n");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(out,
                 "  {\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                 "\"end_ns\": %lld, \"parent\": %d, \"op\": %lld, "
                 "\"batch\": %d}%s\n",
                 i, s.name.c_str(), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 static_cast<long long>(s.op), s.batch,
                 i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(out, "]\n");
  std::fclose(out);
}

}  // namespace perfbench
