#include "calibrate.hpp"

#include <cstdint>
#include <functional>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

#include "spans.hpp"

namespace perfbench {
namespace {

/// Keeps the closures' side effect observable.
volatile std::uint64_t g_sink = 0;

struct Event {
  double at = 0.0;
  std::uint64_t id = 0;
  std::function<void()> fn;
};

struct Later {
  bool operator()(const Event& a, const Event& b) const noexcept {
    return a.at != b.at ? a.at > b.at : a.id > b.id;
  }
};

}  // namespace

double host_ops_per_second(double seconds) {
  constexpr std::size_t kPending = 4096;
  constexpr std::uint64_t kKeys = 50'000;
  std::priority_queue<Event, std::vector<Event>, Later> queue;
  std::unordered_map<std::uint64_t, std::uint64_t> table;
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  auto next = [&x] {  // xorshift64: fixed work on every call
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::uint64_t id = 0;
  std::uint64_t sink = 0;
  for (std::size_t i = 0; i < kPending; ++i) {
    queue.push({static_cast<double>(next() % 1000) * 1e-3, id++, [] {}});
  }
  std::uint64_t ops = 0;
  const auto start = Clock::now();
  for (;;) {
    for (std::size_t k = 0; k < kPending; ++k, ++ops) {
      Event event = std::move(const_cast<Event&>(queue.top()));
      queue.pop();
      event.fn();
      std::string payload(24 + next() % 40, 'q');
      table[next() % kKeys] += payload.size();
      if (next() % 3 == 0) table.erase(next() % kKeys);
      queue.push({event.at + static_cast<double>(next() % 1000) * 1e-3, id++,
                  [payload = std::move(payload), &sink] {
                    sink += payload.size();
                  }});
    }
    const double elapsed = seconds_between(start, Clock::now());
    if (elapsed >= seconds) {
      g_sink = sink;
      return static_cast<double>(ops) / elapsed;
    }
  }
}

}  // namespace perfbench
