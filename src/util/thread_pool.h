// Shared-memory work pool for coarse-grained parallelism: per-window encode
// (EncodeSession), per-worker decode (DecodeScheduler) and the pieces of one
// GLSC decode batch (GlscCompressor). Tensor kernels themselves, GEMM
// included, are single-threaded.
#pragma once

#include <cstddef>
#include <functional>
#include <future>
#include <queue>
#include <thread>
#include <vector>

#include "util/deadline.h"
#include "util/mutex.h"

namespace glsc {

class ThreadPool {
 public:
  // threads == 0 selects hardware_concurrency (minimum 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  // Enqueue an arbitrary task; the future resolves when it completes.
  template <typename F>
  auto Submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> fut = task->get_future();
    Enqueue([task] { (*task)(); });
    return fut;
  }

  // Blocking parallel-for over [0, n): fn(i) is invoked at most once per
  // index, distributed over the pool plus the calling thread. Safe to call
  // from inside a task running on this pool: nested calls run inline on the
  // calling worker instead of submitting helper tasks, since the outer call
  // already occupies the pool.
  //
  // The caller never waits for a helper that has not started: once it finds
  // no index left to claim, it waits only for the helpers already running
  // bodies. Helpers still queued behind other work (every worker busy) later
  // find the call closed and return without touching it.
  //
  // Exceptions: every started fn(i) runs to completion before ParallelFor
  // returns or throws — a throwing body never leaves helper tasks running
  // against the caller's (about to unwind) stack frame. A throw stops every
  // participant from claiming further indices; the first exception recorded
  // is rethrown after the started helpers drain.
  //
  // Cancellation: a non-null `ctx` is checked before each index is
  // dispatched; once the deadline expires or the token fires, remaining
  // indices are SKIPPED (fn is not called for them) and ParallelFor returns
  // normally — the caller is expected to re-check its context and decide.
  // Indices already running are not interrupted.
  void ParallelFor(std::size_t n, const std::function<void(std::size_t)>& fn,
                   const RequestContext* ctx = nullptr);

  // True when the calling thread is one of THIS pool's workers.
  bool InWorkerThread() const;

 private:
  void WorkerLoop();
  void Enqueue(std::function<void()> task);

  std::vector<std::thread> workers_;
  Mutex mu_{"ThreadPool.mu"};
  CondVar cv_;
  std::queue<std::function<void()>> queue_ GUARDED_BY(mu_);
  bool stop_ GUARDED_BY(mu_) = false;
};

// Process-wide pool (lazily constructed) for callers that do not want to
// manage lifetime themselves.
ThreadPool& GlobalThreadPool();

}  // namespace glsc
