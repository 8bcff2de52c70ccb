// Tests for util::parallel_for — the shard fan-out's contract: every
// index runs exactly once, one thread runs fully inline in index order,
// and exceptions propagate deterministically (lowest failing index wins,
// every other task still runs).
#include "util/parallel_for.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace p2pgen {
namespace {

TEST(ParallelFor, RunsEveryIndexExactlyOnce) {
  constexpr std::size_t kCount = 10000;
  std::vector<std::atomic<int>> hits(kCount);
  util::parallel_for(kCount, 4, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelFor, OneThreadRunsInlineInIndexOrder) {
  const auto caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  util::parallel_for(64, 1, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  std::vector<std::size_t> expected(64);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

TEST(ParallelFor, OneTaskRunsInline) {
  const auto caller = std::this_thread::get_id();
  int runs = 0;
  util::parallel_for(1, 8, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    EXPECT_EQ(std::this_thread::get_id(), caller);
    ++runs;
  });
  EXPECT_EQ(runs, 1);
}

TEST(ParallelFor, LowestFailingIndexWinsAndEveryTaskRuns) {
  for (const unsigned threads : {1u, 2u, 8u}) {
    std::vector<std::atomic<int>> ran(100);
    try {
      util::parallel_for(100, threads, [&](std::size_t i) {
        ran[i].fetch_add(1, std::memory_order_relaxed);
        if (i == 3 || i == 77) {
          throw std::runtime_error("task " + std::to_string(i));
        }
      });
      FAIL() << "expected an exception (threads=" << threads << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "task 3") << "threads=" << threads;
    }
    // A throwing task never cancels its siblings.
    for (std::size_t i = 0; i < ran.size(); ++i) {
      EXPECT_EQ(ran[i].load(), 1) << "index " << i << ", threads=" << threads;
    }
  }
}

TEST(ParallelFor, ZeroTasksIsANoop) {
  util::parallel_for(0, 4, [](std::size_t) { FAIL(); });
}

TEST(ParallelFor, MoreThreadsThanTasksRunsEachTaskOnce) {
  std::vector<std::atomic<int>> hits(3);
  util::parallel_for(3, 8, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);
}

TEST(ParallelFor, ThreadCountIsCappedByTasksAndTheLimit) {
  // The pure helper parallel_for sizes itself with: no thread starts here.
  EXPECT_EQ(util::fan_out_threads(8, 3), 3u);
  EXPECT_EQ(util::fan_out_threads(2, 100), 2u);
  EXPECT_EQ(util::fan_out_threads(0, 100), 1u);
  EXPECT_EQ(util::fan_out_threads(4, 0), 1u);
  EXPECT_EQ(util::fan_out_threads(1000, 1000), util::kMaxFanOutThreads);
  EXPECT_EQ(util::fan_out_threads(~0u, ~std::size_t{0}),
            util::kMaxFanOutThreads);
  EXPECT_EQ(util::kMaxFanOutThreads, 256u);
}

}  // namespace
}  // namespace p2pgen
