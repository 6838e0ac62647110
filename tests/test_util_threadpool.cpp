#include "util/threadpool.h"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace sega {
namespace {

TEST(ThreadPoolTest, SizeIsAtLeastOne) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1);
  ThreadPool one(1);
  EXPECT_EQ(one.size(), 1);
  ThreadPool four(4);
  EXPECT_EQ(four.size(), 4);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  for (const int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    constexpr std::size_t kN = 1000;
    std::vector<std::atomic<int>> slots(kN);
    pool.parallel_for(kN, [&](std::size_t i) { ++slots[i]; });
    for (std::size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(slots[i].load(), 1) << "index " << i << " threads " << threads;
    }
  }
}

TEST(ThreadPoolTest, ParallelForZeroTasksDoesNotDeadlock) {
  ThreadPool pool(4);
  pool.parallel_for(0, [](std::size_t) { FAIL() << "must not be called"; });
  // And the pool still works afterwards.
  std::atomic<int> counter{0};
  pool.parallel_for(5, [&](std::size_t) { ++counter; });
  EXPECT_EQ(counter.load(), 5);
}

TEST(ThreadPoolTest, ParallelForPropagatesException) {
  for (const int threads : {1, 4}) {
    ThreadPool pool(threads);
    EXPECT_THROW(
        pool.parallel_for(64,
                          [](std::size_t i) {
                            if (i == 13) throw std::runtime_error("unlucky");
                          }),
        std::runtime_error);
    // Usable after the failed batch.
    std::atomic<int> counter{0};
    pool.parallel_for(8, [&](std::size_t) { ++counter; });
    EXPECT_EQ(counter.load(), 8);
  }
}

TEST(ThreadPoolTest, ParallelForResultsAreDeterministic) {
  // Each index owns a slot, so the reduced value is scheduling-independent.
  auto run = [](int threads) {
    ThreadPool pool(threads);
    std::vector<double> slots(500);
    pool.parallel_for(slots.size(),
                      [&](std::size_t i) { slots[i] = 1.0 / (1.0 + i); });
    return std::accumulate(slots.begin(), slots.end(), 0.0);
  };
  const double serial = run(1);
  EXPECT_EQ(serial, run(2));
  EXPECT_EQ(serial, run(8));
}

TEST(ThreadPoolTest, NestedParallelForRunsInlineAndCoversAllIndices) {
  // A parallel_for issued from inside a pool task (the sweep engine's
  // shape: whole NSGA-II runs as tasks) must degrade to the inline serial
  // loop instead of fanning out again — no deadlock, no index lost.
  for (const int threads : {1, 4}) {
    ThreadPool pool(threads);
    constexpr std::size_t kOuter = 16;
    constexpr std::size_t kInner = 32;
    std::vector<std::array<std::atomic<int>, kInner>> slots(kOuter);
    std::vector<int> inline_observed(kOuter, 0);
    pool.parallel_for(kOuter, [&](std::size_t o) {
      EXPECT_TRUE(ThreadPool::inside_pool_task());
      // Any pool's parallel_for must inline here — use the global pool to
      // model the explorer calling into it from a sweep task.
      ThreadPool::global().parallel_for(kInner, [&, o](std::size_t i) {
        ++slots[o][i];
      });
      inline_observed[o] = 1;
    });
    EXPECT_FALSE(ThreadPool::inside_pool_task());
    for (std::size_t o = 0; o < kOuter; ++o) {
      ASSERT_EQ(inline_observed[o], 1);
      for (std::size_t i = 0; i < kInner; ++i) {
        ASSERT_EQ(slots[o][i].load(), 1)
            << "outer " << o << " inner " << i << " threads " << threads;
      }
    }
  }
}

TEST(ThreadPoolTest, ParallelForChunksCoversEveryIndexExactlyOnce) {
  for (const int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    for (const std::size_t n : {std::size_t{1}, std::size_t{7},
                                std::size_t{64}, std::size_t{1000}}) {
      for (const std::size_t max_chunk :
           {std::size_t{1}, std::size_t{13}, std::size_t{64}}) {
        std::vector<std::atomic<int>> hits(n);
        std::atomic<int> bad_ranges{0};
        pool.parallel_for_chunks(n, max_chunk,
                                 [&](std::size_t begin, std::size_t end) {
                                   if (begin >= end || end > n ||
                                       end - begin > max_chunk) {
                                     ++bad_ranges;
                                   }
                                   for (std::size_t i = begin; i < end; ++i) {
                                     ++hits[i];
                                   }
                                 });
        EXPECT_EQ(bad_ranges.load(), 0);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(hits[i].load(), 1)
              << "n " << n << " chunk " << max_chunk << " threads " << threads;
        }
      }
    }
  }
}

TEST(ThreadPoolTest, ParallelForChunksZeroIsANoOp) {
  ThreadPool pool(4);
  bool called = false;
  pool.parallel_for_chunks(0, 64, [&](std::size_t, std::size_t) {
    called = true;
  });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, NestedParallelForChunksRunsInline) {
  ThreadPool pool(4);
  constexpr std::size_t kOuter = 8;
  constexpr std::size_t kInner = 100;
  std::vector<std::array<std::atomic<int>, kInner>> slots(kOuter);
  pool.parallel_for(kOuter, [&](std::size_t o) {
    ThreadPool::global().parallel_for_chunks(
        kInner, 16, [&, o](std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) ++slots[o][i];
        });
  });
  for (std::size_t o = 0; o < kOuter; ++o) {
    for (std::size_t i = 0; i < kInner; ++i) {
      ASSERT_EQ(slots[o][i].load(), 1) << "outer " << o << " inner " << i;
    }
  }
}

TEST(ThreadPoolTest, DefaultThreadsHonorsEnvOverride) {
  // setenv/unsetenv: this test mutates process state, but gtest runs tests
  // in one thread so there is no racing reader.
  const char* saved = std::getenv("SEGA_THREADS");
  const std::string saved_value = saved ? saved : "";

  ::setenv("SEGA_THREADS", "3", 1);
  EXPECT_EQ(ThreadPool::default_threads(), 3);
  ::setenv("SEGA_THREADS", "not-a-number", 1);
  EXPECT_GE(ThreadPool::default_threads(), 1);  // falls back to hardware
  ::setenv("SEGA_THREADS", "0", 1);
  EXPECT_GE(ThreadPool::default_threads(), 1);

  if (saved) {
    ::setenv("SEGA_THREADS", saved_value.c_str(), 1);
  } else {
    ::unsetenv("SEGA_THREADS");
  }
}

}  // namespace
}  // namespace sega
