#include "sim/simulator.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

namespace p2pgen::sim {

Simulator::Key Simulator::make_key(SimTime at, Handler&& handler) {
  if (at < now_) throw std::invalid_argument("Simulator: cannot schedule in the past");
  if (!handler) throw std::invalid_argument("Simulator: null handler");
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  Slot& s = slots_[slot];
  s.handler = std::move(handler);
  s.live = true;
  ++pending_;
  return Key{at, next_seq_++, slot};
}

void Simulator::release(std::uint32_t slot) {
  Slot& s = slots_[slot];
  if (++s.generation == 0) s.generation = 1;
  free_slots_.push_back(slot);
}

std::uint64_t Simulator::schedule_at(SimTime at, Handler handler) {
  const Key key = make_key(at, std::move(handler));
  heap_push(key);
  return id_of(key.slot);
}

std::uint64_t Simulator::schedule_after(SimTime delay, Handler handler) {
  if (delay < 0.0) throw std::invalid_argument("Simulator: negative delay");
  return schedule_at(now_ + delay, std::move(handler));
}

std::uint64_t Simulator::schedule_in_order(SimTime at, Handler handler) {
  const Key key = make_key(at, std::move(handler));
  if (lane_empty() || !before(key, lane_back())) {
    lane_push(key);
  } else {
    heap_push(key);
  }
  return id_of(key.slot);
}

bool Simulator::cancel(std::uint64_t event_id) {
  const auto slot = static_cast<std::uint32_t>(event_id);
  const auto generation = static_cast<std::uint32_t>(event_id >> 32);
  if (slot >= slots_.size()) return false;
  Slot& s = slots_[slot];
  if (!s.live || s.generation != generation) return false;
  // The key stays queued; the slot is released when it surfaces.
  s.live = false;
  s.handler = nullptr;
  --pending_;
  return true;
}

void Simulator::heap_push(const Key& key) {
  heap_.push_back(key);
  std::size_t i = heap_.size() - 1;
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!before(key, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = key;
}

void Simulator::heap_pop() {
  const Key last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return;
  std::size_t i = 0;
  for (;;) {
    const std::size_t first = 4 * i + 1;
    if (first >= n) break;
    const std::size_t end = first + 4 < n ? first + 4 : n;
    std::size_t best = first;
    for (std::size_t c = first + 1; c < end; ++c) {
      if (before(heap_[c], heap_[best])) best = c;
    }
    if (!before(heap_[best], last)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = last;
}

void Simulator::lane_push(const Key& key) {
  if (lane_size_ == lane_.size()) {
    // Grow to the next power of two, unrolling the ring from its head.
    std::vector<Key> grown(lane_.empty() ? 64 : 2 * lane_.size());
    for (std::size_t i = 0; i < lane_size_; ++i) {
      grown[i] = lane_[(lane_head_ + i) & (lane_.size() - 1)];
    }
    lane_ = std::move(grown);
    lane_head_ = 0;
  }
  lane_[(lane_head_ + lane_size_) & (lane_.size() - 1)] = key;
  ++lane_size_;
}

void Simulator::run_until(SimTime until) {
  for (;;) {
    // The next event is the earlier of the two sorted heads.
    const bool from_lane =
        !lane_empty() && (heap_.empty() || before(lane_front(), heap_.front()));
    if (!from_lane && heap_.empty()) break;
    const Key key = from_lane ? lane_front() : heap_.front();
    if (key.at > until) break;
    if (from_lane) {
      lane_pop();
    } else {
      heap_pop();
    }
    Slot& s = slots_[key.slot];
    if (!s.live) {  // cancelled
      release(key.slot);
      continue;
    }
    Handler handler = std::move(s.handler);
    s.live = false;
    release(key.slot);
    --pending_;
    now_ = key.at;
    ++executed_;
    handler();
  }
  if (until > now_ && std::isfinite(until)) now_ = until;
}

void Simulator::run() { run_until(std::numeric_limits<SimTime>::infinity()); }

}  // namespace p2pgen::sim
