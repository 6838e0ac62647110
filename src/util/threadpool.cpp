#include "util/threadpool.h"

#include <atomic>
#include <cstdlib>
#include <deque>

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

std::future<void> ThreadPool::submit(std::function<void()> task) {
  SEGA_EXPECTS(task != nullptr);
  auto packaged =
      std::make_shared<std::packaged_task<void()>>(std::move(task));
  std::future<void> future = packaged->get_future();
  if (workers_.empty()) {
    // Size-1 pool: run inline.  The packaged_task still captures exceptions
    // into the future, matching the threaded path's contract.
    TaskScope scope;
    (*packaged)();
    return future;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    SEGA_EXPECTS(!stop_);
    queue_.emplace([packaged] { (*packaged)(); });
  }
  cv_.notify_one();
  return future;
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

void ThreadPool::parallel_for_stealing(
    const std::vector<std::size_t>& items,
    const std::function<void(std::size_t)>& fn) {
  if (items.empty()) return;
  SEGA_EXPECTS(fn != nullptr);

  // Nested call from inside a pool task: run inline, in items order — same
  // degradation as parallel_for.
  if (tl_inside_pool_task) {
    for (const std::size_t item : items) fn(item);
    return;
  }

  // One mutex-guarded deque per participant.  The items here are coarse
  // (whole DSE runs, not single evaluations), so a lock per pop/steal is
  // noise next to the work it hands out; no lock-free deque needed.
  struct Steal {
    struct Deque {
      std::mutex mu;
      std::deque<std::size_t> items;
    };
    std::vector<Deque> deques;
    std::atomic<std::size_t> next_participant{0};
    std::atomic<std::size_t> done{0};
    std::atomic<bool> failed{false};
    std::size_t total = 0;
    std::exception_ptr error;
    std::mutex error_mu;
    std::mutex done_mu;
    std::condition_variable done_cv;
  };
  auto state = std::make_shared<Steal>();
  state->total = items.size();

  // The calling thread plus at most one helper per item beyond the first.
  const std::size_t helpers =
      std::min(workers_.size(), items.size() - 1);
  const std::size_t participants = helpers + 1;
  state->deques = std::vector<Steal::Deque>(participants);
  for (std::size_t j = 0; j < items.size(); ++j) {
    state->deques[j % participants].items.push_back(items[j]);
  }

  const auto run_participant = [fn, state, participants] {
    TaskScope scope;
    const std::size_t me = state->next_participant.fetch_add(1);
    for (;;) {
      std::size_t item = 0;
      bool got = false;
      {
        // Own deque: pop the front — the highest-priority item dealt to us.
        Steal::Deque& mine = state->deques[me];
        std::lock_guard<std::mutex> lock(mine.mu);
        if (!mine.items.empty()) {
          item = mine.items.front();
          mine.items.pop_front();
          got = true;
        }
      }
      if (!got) {
        // Steal from the back of the first non-empty victim — the victim's
        // cheapest remaining item, so its own high-priority front is left
        // alone.
        for (std::size_t v = 1; v < participants && !got; ++v) {
          Steal::Deque& victim = state->deques[(me + v) % participants];
          std::lock_guard<std::mutex> lock(victim.mu);
          if (!victim.items.empty()) {
            item = victim.items.back();
            victim.items.pop_back();
            got = true;
          }
        }
      }
      // Every deque empty: nothing left to claim (items never respawn), so
      // this participant is finished even if others still run their last
      // item.
      if (!got) return;
      if (!state->failed.load()) {
        try {
          fn(item);
        } catch (...) {
          std::lock_guard<std::mutex> lock(state->error_mu);
          if (!state->error) state->error = std::current_exception();
          state->failed.store(true);
        }
      }
      if (state->done.fetch_add(1) + 1 == state->total) {
        std::lock_guard<std::mutex> lock(state->done_mu);
        state->done_cv.notify_all();
      }
    }
  };

  if (helpers > 0) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      SEGA_EXPECTS(!stop_);
      for (std::size_t i = 0; i < helpers; ++i) queue_.push(run_participant);
    }
    cv_.notify_all();
  }

  run_participant();

  if (helpers > 0) {
    std::unique_lock<std::mutex> lock(state->done_mu);
    state->done_cv.wait(
        lock, [&] { return state->done.load() == state->total; });
  }
  if (state->error) std::rethrow_exception(state->error);
}

void ThreadPool::parallel_for_chunks(
    std::size_t n, std::size_t max_chunk,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (n == 0) return;
  SEGA_EXPECTS(fn != nullptr);
  SEGA_EXPECTS(max_chunk >= 1);
  std::size_t chunk = (n + static_cast<std::size_t>(size_) * 4 - 1) /
                      (static_cast<std::size_t>(size_) * 4);
  if (chunk < 1) chunk = 1;
  if (chunk > max_chunk) chunk = max_chunk;
  const std::size_t chunks = (n + chunk - 1) / chunk;
  parallel_for(chunks, [&](std::size_t c) {
    const std::size_t begin = c * chunk;
    const std::size_t end = std::min(begin + chunk, n);
    fn(begin, end);
  });
}

}  // namespace sega
