// p2pgen — deterministic work-stealing thread pool.
//
// The parallel execution substrate for sharded simulation and streaming
// decode.  Design constraints, in order:
//
//   1. *Determinism of results.*  The pool schedules work in any order,
//      so callers must never fold results in completion order.
//      run_indexed() gives every task a stable index so outputs go into
//      preallocated slots, which keeps results byte-identical for any
//      pool size, including 1.
//   2. *Degenerate pool is free.*  ThreadPool(1) spawns no threads at
//      all: the calling thread executes every task inline, in index
//      order.  Serial and parallel runs share one code path.
//   3. *Exception safety.*  A throwing task does not take down a worker;
//      the exception of the lowest-indexed failing task is rethrown on
//      the calling thread after the batch completes (again: which
//      exception wins is deterministic).
//
// Scheduling: each worker owns a deque protected by a small mutex.
// Tasks of a batch are dealt round-robin across workers; a worker pops
// from the front of its own deque and, when empty, steals from the back
// of a victim's.  The calling thread participates as a worker for the
// duration of a batch, so a pool of N uses N threads total, not N+1.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string_view>
#include <vector>

namespace p2pgen::util {

class ThreadPool {
 public:
  /// A pool that runs batches on `threads` threads total (the caller
  /// counts as one).  `threads` is clamped to [1, 256].
  explicit ThreadPool(unsigned threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of threads a batch runs on (including the caller).
  unsigned size() const noexcept { return threads_; }

  /// Runs `count` tasks, task(i) for i in [0, count), and waits for all
  /// of them.  Tasks may run in any order and concurrently; write
  /// results into slot i of a preallocated buffer.
  void run_indexed(std::size_t count,
                   const std::function<void(std::size_t)>& task);

  /// Thread count requested by the environment: P2PGEN_THREADS if set
  /// and positive, otherwise std::thread::hardware_concurrency()
  /// (minimum 1).
  static unsigned recommended_threads();

  /// Scheduler counters since the last stats() call.  Unlike every other
  /// number this engine produces, these describe the *actual schedule*
  /// and are therefore not deterministic across runs or thread counts —
  /// they are observability data, never analysis input.
  struct Stats {
    /// Tasks executed per thread slot (slot 0 is the caller).  The sum
    /// IS deterministic: it equals the total task count submitted.
    std::vector<std::uint64_t> executed;
    /// Tasks a thread popped from another thread's queue.
    std::uint64_t steals = 0;
    /// Deepest any per-thread queue has been at batch setup.
    std::size_t max_queue_depth = 0;
  };

  /// Returns the counters accumulated since the previous call and resets
  /// them (reset-on-read), so periodic reporters see per-interval deltas.
  /// Thread-safe, but values are only quiescent between batches.
  Stats stats();

 private:
  struct Worker;
  struct Batch;

  void worker_loop(std::size_t worker_index);
  /// Pops own work or steals; returns false when the batch is drained.
  bool run_one(std::size_t worker_index, Batch& batch);

  unsigned threads_ = 1;
  std::vector<std::unique_ptr<Worker>> workers_;  // threads_ - 1 entries
  struct Shared;
  std::unique_ptr<Shared> shared_;

  // Scheduler counters (see Stats).  Per-slot executed counts are padded
  // out by striding would be overkill here: batches are coarse.
  std::unique_ptr<std::atomic<std::uint64_t>[]> executed_;
  std::atomic<std::uint64_t> steals_{0};
  std::atomic<std::size_t> max_queue_depth_{0};
};

/// Adds a pool's Stats deltas to the global obs registry under
/// `<prefix>.steals`, `<prefix>.tasks_executed`, `<prefix>.executed.w<k>`
/// and the high-water gauge `<prefix>.max_queue_depth`.
void publish_pool_stats(std::string_view prefix, const ThreadPool::Stats& stats);

}  // namespace p2pgen::util
