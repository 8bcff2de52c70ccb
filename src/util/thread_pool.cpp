#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <string>
#include <thread>

#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace p2pgen::util {

/// One stealable queue.  The mutex is per-queue, so contention is only
/// between an owner popping and a thief stealing from the same queue.
struct ThreadPool::Worker {
  std::mutex mutex;
  std::deque<std::size_t> queue;
  std::thread thread;  // unset for the caller's slot (index 0)
};

/// One batch of indexed tasks, owned by the run_indexed() caller's stack.
struct ThreadPool::Batch {
  const std::function<void(std::size_t)>* task = nullptr;
  std::vector<std::unique_ptr<Worker>> queues;  // one per participating thread
  std::atomic<std::size_t> remaining{0};
  /// Pool workers currently inside this batch's drain loop.  The batch
  /// lives on the caller's stack, so the caller must not return while a
  /// worker can still dereference it: completion requires remaining == 0
  /// AND active == 0 (a worker that just ran the last task re-polls the
  /// queues once more before leaving the loop).
  std::atomic<int> active{0};

  std::mutex error_mutex;
  std::exception_ptr error;
  std::size_t error_index = 0;

  std::mutex done_mutex;
  std::condition_variable done_cv;

  void record_error(std::size_t index) {
    std::lock_guard<std::mutex> lock(error_mutex);
    if (!error || index < error_index) {
      error = std::current_exception();
      error_index = index;
    }
  }
};

struct ThreadPool::Shared {
  std::mutex mutex;
  std::condition_variable cv;
  Batch* current = nullptr;
  std::uint64_t generation = 0;
  bool stop = false;

  /// Serializes run_indexed() callers: one batch at a time per pool.
  std::mutex batch_mutex;
};

ThreadPool::ThreadPool(unsigned threads)
    : threads_(std::clamp(threads, 1u, 256u)), shared_(new Shared) {
  executed_ = std::make_unique<std::atomic<std::uint64_t>[]>(threads_);
  for (unsigned i = 0; i < threads_; ++i) {
    executed_[i].store(0, std::memory_order_relaxed);
  }
  workers_.reserve(threads_ - 1);
  for (unsigned i = 0; i + 1 < threads_; ++i) {
    auto worker = std::make_unique<Worker>();
    worker->thread = std::thread([this, i] { worker_loop(i); });
    workers_.push_back(std::move(worker));
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(shared_->mutex);
    shared_->stop = true;
  }
  shared_->cv.notify_all();
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
}

unsigned ThreadPool::recommended_threads() {
  if (const char* env = std::getenv("P2PGEN_THREADS")) {
    const long n = std::atol(env);
    if (n > 0) return static_cast<unsigned>(std::min(n, 256L));
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

bool ThreadPool::run_one(std::size_t thread_index, Batch& batch) {
  const std::size_t n = batch.queues.size();
  // Small batches create fewer queue lanes than the pool has threads
  // (lanes = min(threads, count)); surplus workers have no slot and
  // nothing to steal that the laned threads won't finish.
  if (thread_index >= n) return false;
  std::size_t index = 0;
  bool found = false;

  {  // own queue first, front (LIFO locality is irrelevant; FIFO is fine)
    Worker& own = *batch.queues[thread_index];
    std::lock_guard<std::mutex> lock(own.mutex);
    if (!own.queue.empty()) {
      index = own.queue.front();
      own.queue.pop_front();
      found = true;
    }
  }
  for (std::size_t k = 1; !found && k < n; ++k) {  // then steal from the back
    Worker& victim = *batch.queues[(thread_index + k) % n];
    std::lock_guard<std::mutex> lock(victim.mutex);
    if (!victim.queue.empty()) {
      index = victim.queue.back();
      victim.queue.pop_back();
      found = true;
      steals_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (!found) return false;

  try {
    (*batch.task)(index);
  } catch (...) {
    batch.record_error(index);
  }
  executed_[thread_index].fetch_add(1, std::memory_order_relaxed);
  if (batch.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    std::lock_guard<std::mutex> lock(batch.done_mutex);
    batch.done_cv.notify_all();
  }
  return true;
}

void ThreadPool::worker_loop(std::size_t worker_index) {
  std::uint64_t seen_generation = 0;
  for (;;) {
    Batch* batch = nullptr;
    {
      std::unique_lock<std::mutex> lock(shared_->mutex);
      shared_->cv.wait(lock, [&] {
        return shared_->stop || (shared_->current != nullptr &&
                                 shared_->generation != seen_generation);
      });
      if (shared_->stop) return;
      batch = shared_->current;
      seen_generation = shared_->generation;
      // Register under shared_->mutex: the caller only destroys the batch
      // after clearing `current` under this mutex and seeing active == 0,
      // so the increment can never target a dead batch.
      batch->active.fetch_add(1, std::memory_order_relaxed);
    }
    {
      // Workers occupy queue slots 1..threads_-1; slot 0 is the caller.
      obs::ObsSpan span("pool.worker_drain");
      while (run_one(worker_index + 1, *batch)) {
      }
    }
    {
      // Notify while still holding the mutex: the moment it is released
      // with active == 0, the caller may destroy the stack-owned batch,
      // so no code after the unlock may touch *batch.
      std::lock_guard<std::mutex> lock(batch->done_mutex);
      batch->active.fetch_sub(1, std::memory_order_acq_rel);
      batch->done_cv.notify_all();
    }
  }
}

void ThreadPool::run_indexed(std::size_t count,
                             const std::function<void(std::size_t)>& task) {
  if (count == 0) return;

  if (threads_ == 1 || count == 1) {
    // Inline path: index order, first-thrower wins (it is the lowest
    // index by construction), remaining tasks still run — identical
    // semantics to the parallel path.
    std::exception_ptr error;
    for (std::size_t i = 0; i < count; ++i) {
      try {
        task(i);
      } catch (...) {
        if (!error) error = std::current_exception();
      }
    }
    executed_[0].fetch_add(count, std::memory_order_relaxed);
    std::size_t depth = max_queue_depth_.load(std::memory_order_relaxed);
    while (count > depth && !max_queue_depth_.compare_exchange_weak(
                                depth, count, std::memory_order_relaxed)) {
    }
    if (error) std::rethrow_exception(error);
    return;
  }

  std::lock_guard<std::mutex> batch_lock(shared_->batch_mutex);

  Batch batch;
  batch.task = &task;
  const std::size_t lanes = std::min<std::size_t>(threads_, count);
  batch.queues.reserve(lanes);
  for (std::size_t i = 0; i < lanes; ++i) {
    batch.queues.push_back(std::make_unique<Worker>());
  }
  for (std::size_t i = 0; i < count; ++i) {
    batch.queues[i % lanes]->queue.push_back(i);
  }
  batch.remaining.store(count, std::memory_order_relaxed);
  {
    // Queues only ever shrink after setup, so the deepest any lane gets
    // is its initial deal: ceil(count / lanes).
    const std::size_t deal = (count + lanes - 1) / lanes;
    std::size_t depth = max_queue_depth_.load(std::memory_order_relaxed);
    while (deal > depth && !max_queue_depth_.compare_exchange_weak(
                               depth, deal, std::memory_order_relaxed)) {
    }
  }

  {
    std::lock_guard<std::mutex> lock(shared_->mutex);
    shared_->current = &batch;
    ++shared_->generation;
  }
  shared_->cv.notify_all();

  {
    obs::ObsSpan span("pool.caller_drain");
    while (run_one(0, batch)) {
    }
  }
  // All queues are drained, so late-waking workers have nothing to do:
  // close the batch to new joiners first, then wait until both every task
  // has finished AND every joined worker has left the drain loop — only
  // then is it safe to let the stack-owned batch die.
  {
    std::lock_guard<std::mutex> lock(shared_->mutex);
    shared_->current = nullptr;
  }
  {
    std::unique_lock<std::mutex> lock(batch.done_mutex);
    batch.done_cv.wait(lock, [&] {
      return batch.remaining.load(std::memory_order_acquire) == 0 &&
             batch.active.load(std::memory_order_acquire) == 0;
    });
  }
  if (batch.error) std::rethrow_exception(batch.error);
}

ThreadPool::Stats ThreadPool::stats() {
  Stats out;
  out.executed.resize(threads_);
  for (unsigned i = 0; i < threads_; ++i) {
    out.executed[i] = executed_[i].exchange(0, std::memory_order_relaxed);
  }
  out.steals = steals_.exchange(0, std::memory_order_relaxed);
  out.max_queue_depth = max_queue_depth_.exchange(0, std::memory_order_relaxed);
  return out;
}

void publish_pool_stats(std::string_view prefix,
                        const ThreadPool::Stats& stats) {
  auto& registry = obs::Registry::global();
  const std::string base(prefix);
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < stats.executed.size(); ++i) {
    total += stats.executed[i];
    registry.counter(base + ".executed.w" + std::to_string(i))
        .add(stats.executed[i]);
  }
  registry.counter(base + ".tasks_executed").add(total);
  registry.counter(base + ".steals").add(stats.steals);
  registry.gauge(base + ".max_queue_depth")
      .record_max(static_cast<std::int64_t>(stats.max_queue_depth));
}

}  // namespace p2pgen::util
