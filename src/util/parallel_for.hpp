// p2pgen — the shard fan-out: run `count` independent tasks on a few
// threads and wait for all of them.
//
// Callers give every task its index and write results into slot i of a
// preallocated buffer, so the output never depends on which thread ran
// what: results are byte-identical for any thread count, including 1.
// A throwing task does not stop the others; once every task has run,
// the exception of the lowest-indexed failing task is rethrown on the
// calling thread, so which error wins is deterministic too.
#pragma once

#include <cstddef>
#include <functional>

namespace p2pgen::util {

/// Most threads parallel_for ever starts, the caller included.
inline constexpr unsigned kMaxFanOutThreads = 256;

/// Threads parallel_for runs `count` tasks on when asked for `threads`:
/// min(threads, count, kMaxFanOutThreads), and at least 1.
unsigned fan_out_threads(unsigned threads, std::size_t count) noexcept;

/// Runs task(i) for every i in [0, count) on fan_out_threads(threads,
/// count) threads, the caller being one of them; each thread claims the
/// next index from a shared counter.  With one thread every task runs
/// inline, in index order.
void parallel_for(std::size_t count, unsigned threads,
                  const std::function<void(std::size_t)>& task);

}  // namespace p2pgen::util
