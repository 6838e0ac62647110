// Small fixed-size thread pool used to parallelize the DSE hot loop.
//
// Design notes:
//  - parallel_for gives every task a private index; callers write results
//    into per-index slots and reduce serially afterwards, so the outcome is
//    bit-identical regardless of scheduling (the determinism contract the
//    explorer relies on).
//  - The worker count defaults to the SEGA_THREADS environment variable when
//    set to a positive integer, else std::thread::hardware_concurrency().
//  - A pool of size 1 executes everything inline on the calling thread —
//    no worker threads are spawned, which keeps single-core and debugging
//    runs trivially serial.
//  - Nested parallelism is safe and deterministic: a parallel_for issued
//    from inside any pool task (of this or any other pool) runs its whole
//    loop inline on the issuing thread instead of fanning out again.  Outer
//    batches therefore own the hardware, and inner loops degrade to the
//    serial path — exactly what a grid sweep scheduling whole NSGA-II runs
//    as tasks wants.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace sega {

class ThreadPool {
 public:
  /// @p threads <= 0 resolves to default_threads().
  explicit ThreadPool(int threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of threads that can make progress concurrently (>= 1; counts the
  /// calling thread, which participates in parallel_for batches).
  int size() const { return size_; }

  /// Run fn(i) for every i in [0, n); blocks until all calls return.
  /// The calling thread helps execute the batch.  If any invocation throws,
  /// the remaining indices are abandoned and the first exception (by
  /// completion order) is rethrown here.  parallel_for(0, fn) is a no-op.
  /// Indices are claimed from one shared counter in ascending order, so a
  /// caller that wants longest-first scheduling passes its items sorted by
  /// descending cost: each free thread takes the most expensive one left.
  /// Reentrant-safe: when called from inside a pool task (another
  /// parallel_for body, on any pool) the loop runs inline serially on the
  /// calling thread, in index order, so nested parallelism cannot deadlock
  /// or oversubscribe.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// Run fn(begin, end) over contiguous index ranges covering [0, n), each
  /// range a pool task; blocks until all ranges return.  The chunk size aims
  /// for ~4 chunks per thread (so the tail load-balances) and never exceeds
  /// @p max_chunk (so per-chunk scratch stays bounded).  This is the entry
  /// point for batch-oriented work — the cost engine evaluates whole chunks
  /// through CostModel::evaluate_batch instead of single points.  Chunking
  /// never affects results: every index is still covered exactly once, and
  /// callers write per-index slots.  Same reentrancy contract as
  /// parallel_for (nested calls run inline serially).
  void parallel_for_chunks(std::size_t n, std::size_t max_chunk,
                           const std::function<void(std::size_t, std::size_t)>& fn);

  /// True while the calling thread is executing a pool task (any pool).
  static bool inside_pool_task();

  /// SEGA_THREADS env var when a positive integer (clamped to 256), else
  /// hardware_concurrency(), else 1.
  static int default_threads();

  /// Lazily constructed process-wide pool of default_threads() threads.
  static ThreadPool& global();

 private:
  void worker_loop();

  int size_ = 1;
  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::queue<std::function<void()>> queue_;
  bool stop_ = false;
};

}  // namespace sega
