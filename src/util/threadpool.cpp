#include "util/threadpool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <memory>

#include "util/assert.h"
#include "util/strings.h"

namespace sega {

namespace {

int clamp_threads(long value) {
  if (value < 1) return 1;
  if (value > 256) return 256;
  return static_cast<int>(value);
}

// Set while the current thread runs a pool task; nested parallel_for calls
// observe it and fall back to the inline serial loop.
thread_local bool tl_inside_pool_task = false;

/// RAII flag for the scope of one task execution.
struct TaskScope {
  bool previous;
  TaskScope() : previous(tl_inside_pool_task) { tl_inside_pool_task = true; }
  ~TaskScope() { tl_inside_pool_task = previous; }
};

}  // namespace

bool ThreadPool::inside_pool_task() { return tl_inside_pool_task; }

int ThreadPool::default_threads() {
  std::int64_t parsed = 0;
  if (const char* env = std::getenv("SEGA_THREADS");
      env != nullptr && parse_number_strict(env, &parsed) && parsed > 0) {
    return clamp_threads(parsed);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : clamp_threads(static_cast<long>(hw));
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(default_threads());
  return pool;
}

ThreadPool::ThreadPool(int threads) {
  size_ = threads <= 0 ? default_threads() : clamp_threads(threads);
  // The calling thread participates in parallel_for, so a pool of size N
  // needs only N-1 dedicated workers (and size 1 needs none).
  workers_.reserve(static_cast<std::size_t>(size_ - 1));
  for (int i = 0; i < size_ - 1; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& t : workers_) t.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to drain
      task = std::move(queue_.front());
      queue_.pop();
    }
    TaskScope scope;
    task();
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  SEGA_EXPECTS(fn != nullptr);

  // Nested call from inside a pool task: the outer batch already owns the
  // workers, so fan out no further — run the loop inline.  Determinism is
  // unaffected (each index still gets a private slot); only the schedule
  // changes.
  if (tl_inside_pool_task) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  struct Batch {
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::atomic<bool> failed{false};
    std::size_t total = 0;
    std::exception_ptr error;
    std::mutex error_mu;
    std::mutex done_mu;
    std::condition_variable done_cv;
  };
  auto batch = std::make_shared<Batch>();
  batch->total = n;

  const auto run_slice = [fn, batch] {
    TaskScope scope;
    for (;;) {
      const std::size_t i = batch->next.fetch_add(1);
      if (i >= batch->total) return;
      if (!batch->failed.load()) {
        try {
          fn(i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(batch->error_mu);
          if (!batch->error) batch->error = std::current_exception();
          batch->failed.store(true);
        }
      }
      if (batch->done.fetch_add(1) + 1 == batch->total) {
        std::lock_guard<std::mutex> lock(batch->done_mu);
        batch->done_cv.notify_all();
      }
    }
  };

  // Wake at most one helper per remaining index; the calling thread also
  // chews through the batch, so small n never pays for a full fan-out.
  const std::size_t helpers =
      std::min(workers_.size(), n > 1 ? n - 1 : std::size_t{0});
  if (helpers > 0) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      SEGA_EXPECTS(!stop_);
      for (std::size_t i = 0; i < helpers; ++i) queue_.push(run_slice);
    }
    cv_.notify_all();
  }

  run_slice();

  if (helpers > 0) {
    std::unique_lock<std::mutex> lock(batch->done_mu);
    batch->done_cv.wait(
        lock, [&] { return batch->done.load() == batch->total; });
  }
  if (batch->error) std::rethrow_exception(batch->error);
}

void ThreadPool::parallel_for_chunks(
    std::size_t n, std::size_t max_chunk,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (n == 0) return;
  SEGA_EXPECTS(fn != nullptr);
  SEGA_EXPECTS(max_chunk >= 1);
  // A loop that runs inline gains nothing from smaller ranges; one that
  // fans out aims for ~4 chunks per thread so the tail load-balances.
  std::size_t chunk = max_chunk;
  if (size_ > 1 && !tl_inside_pool_task) {
    const std::size_t target = static_cast<std::size_t>(size_) * 4;
    chunk = std::min(max_chunk, (n + target - 1) / target);
  }
  const std::size_t chunks = (n + chunk - 1) / chunk;
  parallel_for(chunks, [&](std::size_t c) {
    const std::size_t begin = c * chunk;
    const std::size_t end = std::min(begin + chunk, n);
    fn(begin, end);
  });
}

}  // namespace sega
