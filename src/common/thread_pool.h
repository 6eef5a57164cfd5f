// A small fixed-size thread pool plus a blocking ParallelFor helper.
//
// The paper parallelizes Algorithm 1 (virtual-tuple sampling) per column and
// the MPSN encoders per column with "multi-threading to avoid the Python GIL
// limitation"; this pool is the C++ substrate for those paths and for
// batch-parallel inference (the stand-in for GPU batching, see DESIGN.md).
#ifndef DUET_COMMON_THREAD_POOL_H_
#define DUET_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace duet {

/// Fixed-size worker pool. Tasks are std::function<void()>. There is no
/// pool-wide barrier: callers that need completion track their own tasks
/// (ParallelFor/ParallelForChunked wait on a per-call latch), so concurrent
/// callers sharing one pool never wait on each other's work.
class ThreadPool {
 public:
  /// Creates `num_threads` workers (0 means std::thread::hardware_concurrency).
  explicit ThreadPool(unsigned num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues one task. If the task lets an exception escape, the pool
  /// swallows it (the worker survives) and bumps escaped_exceptions();
  /// ParallelFor/ParallelForChunked catch inside the task and rethrow on
  /// the calling thread instead, so raw Submit is the only path that can
  /// reach this backstop.
  void Submit(std::function<void()> task);

  unsigned num_threads() const { return static_cast<unsigned>(workers_.size()); }

  /// Cumulative count of exceptions that escaped raw Submit tasks and were
  /// swallowed by the worker backstop. Before this counter, such an
  /// exception unwound the worker thread and terminated the process.
  uint64_t escaped_exceptions() const {
    return escaped_exceptions_.load(std::memory_order_relaxed);
  }

  /// Process-wide pool (lazily constructed, hardware concurrency): the one
  /// executor for kernel chunks and serve::ServingEngine shards alike.
  static ThreadPool& Global();

  /// Replaces the global pool with one of `num_threads` workers (0 =
  /// hardware concurrency). The swap itself is atomic, but the old pool is
  /// deleted (its workers joined) on return, so this must only be called
  /// while no other thread holds Global() — no parallel work in flight and
  /// no engine dispatch in flight (a ServingEngine shards on this pool).
  /// The process's one worker-count knob.
  static void SetGlobalThreads(unsigned num_threads);

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mu_;
  std::condition_variable task_cv_;
  bool stop_ = false;
  std::atomic<uint64_t> escaped_exceptions_{0};
};

/// Runs fn(i) for i in [begin, end) across the pool, splitting the range into
/// contiguous chunks. Falls back to a serial loop for tiny ranges or when
/// `parallel` is false (useful to measure single-thread costs).
///
/// Completion is per call: the caller waits for its own chunks only, never
/// for other callers' tasks on the shared pool. Called from inside a pool
/// worker, the whole range runs inline on that worker.
///
/// Exception contract: if fn throws on any chunk, the first exception is
/// captured, this call's chunks still drain (remaining chunks may or may not
/// run), and the exception is rethrown on the calling thread — identical to
/// the serial path, and never fatal to a pool worker.
void ParallelFor(int64_t begin, int64_t end, const std::function<void(int64_t)>& fn,
                 bool parallel = true, int64_t grain = 1024);

/// Chunked variant: fn(chunk_begin, chunk_end) per contiguous chunk. This is
/// the workhorse for vectorized column kernels. Same exception contract as
/// ParallelFor.
void ParallelForChunked(int64_t begin, int64_t end,
                        const std::function<void(int64_t, int64_t)>& fn,
                        bool parallel = true, int64_t grain = 1024);

}  // namespace duet

#endif  // DUET_COMMON_THREAD_POOL_H_
