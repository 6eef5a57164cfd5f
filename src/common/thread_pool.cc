#include "common/thread_pool.h"

#include <algorithm>
#include <exception>

#include "common/logging.h"

namespace duet {

namespace {
// Nested ParallelFor calls from inside a worker run serially: a worker that
// blocked on chunks queued behind it could deadlock the pool once every
// worker did the same.
thread_local bool t_inside_worker = false;
}  // namespace

ThreadPool::ThreadPool(unsigned num_threads) {
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (unsigned i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  task_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    DUET_CHECK(!stop_);
    tasks_.push(std::move(task));
  }
  task_cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      task_cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    t_inside_worker = true;
    try {
      task();
    } catch (...) {
      // A raw Submit task let an exception escape. Unwinding further would
      // reach the thread entry point and terminate the process; swallow it
      // here so the worker survives.
      escaped_exceptions_.fetch_add(1, std::memory_order_relaxed);
    }
    t_inside_worker = false;
  }
}

namespace {
/// Global pool slot. The magic static makes first construction race-free
/// when concurrent ParallelFor callers reach Global() at once; the atomic
/// lets SetGlobalThreads swap pools without a torn read. Intentionally
/// leaked (workers outlive static dtors).
std::atomic<ThreadPool*>& GlobalSlot() {
  static std::atomic<ThreadPool*> pool{new ThreadPool()};
  return pool;
}
}  // namespace

ThreadPool& ThreadPool::Global() { return *GlobalSlot().load(); }

void ThreadPool::SetGlobalThreads(unsigned num_threads) {
  delete GlobalSlot().exchange(new ThreadPool(num_threads));  // joins the old workers
}

void ParallelFor(int64_t begin, int64_t end, const std::function<void(int64_t)>& fn,
                 bool parallel, int64_t grain) {
  ParallelForChunked(
      begin, end,
      [&fn](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) fn(i);
      },
      parallel, grain);
}

void ParallelForChunked(int64_t begin, int64_t end,
                        const std::function<void(int64_t, int64_t)>& fn, bool parallel,
                        int64_t grain) {
  if (begin >= end) return;
  const int64_t n = end - begin;
  ThreadPool& pool = ThreadPool::Global();
  const int64_t max_chunks = static_cast<int64_t>(pool.num_threads()) * 4;
  // A single-worker pool cannot overlap anything with the caller; chunking
  // through it only buys context switches.
  if (!parallel || t_inside_worker || n <= grain || max_chunks <= 1 ||
      pool.num_threads() <= 1) {
    fn(begin, end);
    return;
  }
  const int64_t chunk = std::max<int64_t>((n + max_chunks - 1) / max_chunks, grain);
  // Per-call latch: counts only this call's chunks, so concurrent callers
  // on the shared pool complete independently. It also holds the first
  // exception thrown by any chunk, rethrown on the calling thread after the
  // chunks drain so callers see the same behavior as the serial path (and
  // no exception ever reaches a worker's thread entry point).
  struct Latch {
    std::mutex mu;
    std::condition_variable cv;
    int64_t remaining;
    std::exception_ptr first_error;
  } latch{{}, {}, (n + chunk - 1) / chunk, nullptr};
  for (int64_t lo = begin; lo < end; lo += chunk) {
    const int64_t hi = std::min(lo + chunk, end);
    pool.Submit([&fn, &latch, lo, hi] {
      std::exception_ptr error;
      try {
        fn(lo, hi);
      } catch (...) {
        error = std::current_exception();
      }
      // Notify while holding the mutex: the caller owns the stack-allocated
      // latch and may destroy it as soon as it observes remaining == 0,
      // which it cannot do before this unlock.
      std::lock_guard<std::mutex> lock(latch.mu);
      if (error && !latch.first_error) latch.first_error = error;
      if (--latch.remaining == 0) latch.cv.notify_one();
    });
  }
  std::unique_lock<std::mutex> lock(latch.mu);
  latch.cv.wait(lock, [&latch] { return latch.remaining == 0; });
  if (latch.first_error) std::rethrow_exception(latch.first_error);
}

}  // namespace duet
