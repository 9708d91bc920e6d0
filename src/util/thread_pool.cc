#include "util/thread_pool.h"

#include <atomic>
#include <exception>
#include <memory>

namespace glsc {
namespace {

// Pool whose WorkerLoop owns the current thread (nullptr off-pool). Lets
// ParallelFor detect re-entry from its own workers.
thread_local const ThreadPool* tls_worker_pool = nullptr;

// One ParallelFor call, shared by the caller and its helper tasks. `fn`
// points into the caller's frame: a helper may touch it only after Enter()
// admitted it, and the caller's Close() waits for every admitted helper to
// Leave(). A helper that starts after Close() is turned away and touches
// nothing of the caller's.
class ParallelForCall {
 public:
  ParallelForCall(std::size_t n, const std::function<void(std::size_t)>* fn)
      : n_(n), fn_(fn) {}

  bool Enter() {
    MutexLock lock(mu_);
    if (closed_) return false;
    ++running_;
    return true;
  }

  void Leave() {
    MutexLock lock(mu_);
    if (--running_ == 0) drained_.NotifyAll();
  }

  // Claims and runs indices until none are left or a body throws; a throw
  // stops every participant from claiming more.
  void Drain() {
    try {
      while (true) {
        const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
        if (i >= n_) return;
        (*fn_)(i);
      }
    } catch (...) {
      next_.store(n_, std::memory_order_relaxed);
      MutexLock lock(mu_);
      if (!first_error_) first_error_ = std::current_exception();
    }
  }

  // Turns away helpers that have not started, waits for those that have,
  // and returns the first exception any body threw.
  std::exception_ptr Close() {
    MutexLock lock(mu_);
    closed_ = true;
    drained_.Wait(mu_, [this]() REQUIRES(mu_) { return running_ == 0; });
    return first_error_;
  }

 private:
  const std::size_t n_;
  const std::function<void(std::size_t)>* const fn_;
  std::atomic<std::size_t> next_{0};

  Mutex mu_{"ThreadPool.ParallelFor.mu"};
  CondVar drained_;
  bool closed_ GUARDED_BY(mu_) = false;
  int running_ GUARDED_BY(mu_) = 0;
  std::exception_ptr first_error_ GUARDED_BY(mu_);
};

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    const unsigned hc = std::thread::hardware_concurrency();
    threads = hc > 0 ? hc : 1;
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  cv_.NotifyAll();
  for (auto& w : workers_) w.join();
}

bool ThreadPool::InWorkerThread() const { return tls_worker_pool == this; }

void ThreadPool::WorkerLoop() {
  tls_worker_pool = this;
  while (true) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      cv_.Wait(mu_, [this]() REQUIRES(mu_) { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
  }
}

void ThreadPool::Enqueue(std::function<void()> task) {
  {
    MutexLock lock(mu_);
    queue_.push(std::move(task));
  }
  cv_.NotifyOne();
}

void ThreadPool::ParallelFor(std::size_t n,
                             const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  // Nested call from one of our own workers: the outer fan-out already keeps
  // the pool busy, so helpers queued here would mostly start after this
  // worker had claimed every index itself. Running inline skips them (and
  // the outer ParallelFor's other workers supply the parallelism).
  if (n == 1 || workers_.size() <= 1 || InWorkerThread()) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // Dynamic index dispenser: helpers and the caller pull the next index until
  // exhausted. This balances irregular per-item cost (e.g. diffusion decode
  // of different window sizes) better than static chunking.
  auto call = std::make_shared<ParallelForCall>(n, &fn);
  const std::size_t helpers = std::min(workers_.size(), n - 1);
  try {
    for (std::size_t h = 0; h < helpers; ++h) {
      Enqueue([call] {
        if (!call->Enter()) return;
        call->Drain();
        call->Leave();
      });
    }
  } catch (...) {
    (void)call->Close();  // helpers already queued must not outlive `fn`
    throw;
  }
  call->Drain();
  // Bodies reach into this frame through `fn`, so none may still run when it
  // unwinds: wait for the helpers that started. Helpers still queued behind
  // other work are not waited for; they find the call closed.
  if (std::exception_ptr error = call->Close()) std::rethrow_exception(error);
}

ThreadPool& GlobalThreadPool() {
  static ThreadPool pool;
  return pool;
}

}  // namespace glsc
