// Tests for util::ThreadPool — the parallel substrate's contract:
// every index runs exactly once, the single-thread pool is fully inline,
// and exceptions propagate deterministically (lowest failing index wins).
#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

namespace p2pgen {
namespace {

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  util::ThreadPool pool(4);
  constexpr std::size_t kCount = 10000;
  std::vector<std::atomic<int>> hits(kCount);
  pool.run_indexed(kCount, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, SingleThreadPoolRunsInlineInIndexOrder) {
  util::ThreadPool pool(1);
  const auto caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  pool.run_indexed(64, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  std::vector<std::size_t> expected(64);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

TEST(ThreadPool, LowestFailingIndexWins) {
  for (const unsigned threads : {1u, 4u}) {
    util::ThreadPool pool(threads);
    std::atomic<int> ran{0};
    try {
      pool.run_indexed(100, [&](std::size_t i) {
        ran.fetch_add(1, std::memory_order_relaxed);
        if (i == 3 || i == 77) {
          throw std::runtime_error("task " + std::to_string(i));
        }
      });
      FAIL() << "expected an exception (threads=" << threads << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "task 3") << "threads=" << threads;
    }
    // A throwing task never cancels its siblings.
    EXPECT_EQ(ran.load(), 100);
  }
}

TEST(ThreadPool, ImbalancedWorkIsStolen) {
  // One heavy lane, many light ones: with static per-lane assignment the
  // heavy lane's owner would run ~all heavy tasks serially; stealing
  // lets the run finish.  This is a liveness/correctness smoke (timing
  // asserts would flake on loaded CI machines).
  util::ThreadPool pool(4);
  std::atomic<std::uint64_t> total{0};
  pool.run_indexed(257, [&](std::size_t i) {
    std::uint64_t spin = (i % 4 == 0) ? 20000 : 10;
    std::uint64_t acc = 1;
    for (std::uint64_t k = 0; k < spin; ++k) acc = acc * 6364136223846793005ULL + 1;
    total.fetch_add(acc != 0 ? 1 : 0, std::memory_order_relaxed);
  });
  EXPECT_EQ(total.load(), 257u);
}

TEST(ThreadPool, BackToBackBatchesReuseWorkers) {
  util::ThreadPool pool(3);
  std::atomic<std::size_t> hits{0};
  for (int round = 0; round < 50; ++round) {
    pool.run_indexed(37, [&](std::size_t) {
      hits.fetch_add(1, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(hits.load(), 50u * 37u);
}

TEST(ThreadPool, RecommendedThreadsHonorsEnvironment) {
  ::setenv("P2PGEN_THREADS", "3", 1);
  EXPECT_EQ(util::ThreadPool::recommended_threads(), 3u);
  ::unsetenv("P2PGEN_THREADS");
  EXPECT_GE(util::ThreadPool::recommended_threads(), 1u);
}

TEST(ThreadPoolStats, ExecutedCountsSumToTaskCountAndResetOnRead) {
  for (const unsigned threads : {1u, 4u}) {
    util::ThreadPool pool(threads);
    pool.run_indexed(500, [](std::size_t) {});
    auto stats = pool.stats();
    ASSERT_EQ(stats.executed.size(), threads);
    std::uint64_t total = 0;
    for (const auto n : stats.executed) total += n;
    EXPECT_EQ(total, 500u) << "threads=" << threads;
    EXPECT_GE(stats.max_queue_depth, 1u);
    // stats() drains: a second read with no work in between is all zero.
    const auto drained = pool.stats();
    for (const auto n : drained.executed) EXPECT_EQ(n, 0u);
    EXPECT_EQ(drained.steals, 0u);
    EXPECT_EQ(drained.max_queue_depth, 0u);
  }
}

TEST(ThreadPoolStats, InlinePathReportsDealDepthAndNoSteals) {
  util::ThreadPool pool(1);
  pool.run_indexed(123, [](std::size_t) {});
  const auto stats = pool.stats();
  ASSERT_EQ(stats.executed.size(), 1u);
  EXPECT_EQ(stats.executed[0], 123u);
  EXPECT_EQ(stats.steals, 0u);
  // Inline runs count the whole batch as one "deal".
  EXPECT_EQ(stats.max_queue_depth, 123u);
}

TEST(ThreadPoolStats, ParallelDealDepthIsCeilCountOverLanes) {
  util::ThreadPool pool(4);
  pool.run_indexed(10, [](std::size_t) {});  // 10 tasks over 4 lanes
  const auto stats = pool.stats();
  EXPECT_EQ(stats.max_queue_depth, 3u);  // ceil(10 / 4)
}

TEST(ThreadPoolStats, ImbalancedWorkRecordsSteals) {
  // Park the caller inside lane 0's first task until every other task is
  // done: the rest of lane 0's queue can then only drain via steals, so
  // at least one steal is guaranteed (no timing assumptions).
  util::ThreadPool pool(4);
  constexpr std::size_t kCount = 64;
  std::atomic<std::uint64_t> done{0};
  pool.run_indexed(kCount, [&](std::size_t i) {
    if (i == 0) {
      while (done.load(std::memory_order_acquire) + 1 < kCount) {
        std::this_thread::yield();
      }
    }
    done.fetch_add(1, std::memory_order_release);
  });
  const auto stats = pool.stats();
  std::uint64_t total = 0;
  for (const auto n : stats.executed) total += n;
  EXPECT_EQ(total, kCount);
  EXPECT_GT(stats.steals, 0u);
}

TEST(ThreadPool, ZeroTasksIsANoop) {
  util::ThreadPool pool(4);
  pool.run_indexed(0, [](std::size_t) { FAIL(); });
}

}  // namespace
}  // namespace p2pgen
