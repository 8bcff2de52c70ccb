#include "util/parallel_for.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>
#include <vector>

namespace p2pgen::util {

unsigned fan_out_threads(unsigned threads, std::size_t count) noexcept {
  const std::size_t n =
      std::min<std::size_t>({threads, count, kMaxFanOutThreads});
  return std::max<unsigned>(static_cast<unsigned>(n), 1);
}

void parallel_for(std::size_t count, unsigned threads,
                  const std::function<void(std::size_t)>& task) {
  // One slot per task: each is written by the one thread that ran it and
  // read only after every thread has joined.
  std::vector<std::exception_ptr> errors(count);
  std::atomic<std::size_t> next{0};
  const auto drain = [&] {
    for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
         i < count; i = next.fetch_add(1, std::memory_order_relaxed)) {
      try {
        task(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };
  {
    std::vector<std::jthread> helpers;
    const unsigned n = fan_out_threads(threads, count);
    helpers.reserve(n - 1);
    for (unsigned t = 1; t < n; ++t) helpers.emplace_back(drain);
    drain();
  }  // the helpers join here
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

}  // namespace p2pgen::util
