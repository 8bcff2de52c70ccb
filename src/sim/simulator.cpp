#include "sim/simulator.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

namespace p2pgen::sim {

Simulator::Key Simulator::make_key(SimTime at, Handler&& handler) {
  // Negated so a NaN time, which compares false both ways, is refused too.
  if (!(at >= now_)) {
    throw std::invalid_argument(std::isnan(at)
                                    ? "Simulator: NaN time"
                                    : "Simulator: cannot schedule in the past");
  }
  if (!handler) throw std::invalid_argument("Simulator: null handler");
  if (next_seq_ == kSeqLimit) {
    throw std::length_error("Simulator: 2^40 events scheduled");
  }
  std::uint32_t slot;
  if (free_slots_.empty()) {
    if (slots_.size() > kSlotMask) {
      throw std::length_error("Simulator: 2^24 events pending");
    }
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
  // Adding +0.0 turns -0.0 into +0.0 and leaves every other time as is.
  return Key{std::bit_cast<std::uint64_t>(at + 0.0),
             (next_seq_++ << kSlotBits) | slot};
}

void Simulator::release(std::uint32_t slot) {
  Slot& s = slots_[slot];
  if (++s.generation == 0) s.generation = 1;
  free_slots_.push_back(slot);
}

std::uint64_t Simulator::schedule_at(SimTime at, Handler handler) {
  const Key key = make_key(at, std::move(handler));
  heap_push(key);
  return id_of(key.slot());
}

std::uint64_t Simulator::schedule_after(SimTime delay, Handler handler) {
  if (!(delay >= 0.0)) {
    throw std::invalid_argument(std::isnan(delay) ? "Simulator: NaN delay"
                                                  : "Simulator: negative delay");
  }
  return schedule_at(now_ + delay, std::move(handler));
}

std::uint64_t Simulator::schedule_in_order(SimTime at, Handler handler) {
  const Key key = make_key(at, std::move(handler));
  if (lane_empty() || !before(key, lane_back())) {
    lane_push(key);
  } else {
    heap_push(key);
  }
  return id_of(key.slot());
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
  sift_up(heap_.size() - 1, key);
}

void Simulator::sift_up(std::size_t hole, const Key& key) {
  while (hole > kRoot) {
    const std::size_t parent = parent_of(hole);
    if (!before(key, heap_[parent])) break;
    heap_[hole] = heap_[parent];
    hole = parent;
  }
  heap_[hole] = key;
}

std::size_t Simulator::min_of_four(std::size_t first) const noexcept {
  // A tournament: two independent pair comparisons, then the final.  Each
  // result is used as a number, never branched on: which child is
  // smallest is a coin toss the branch predictor would lose.
  const Key* c = &heap_[first];
  const std::size_t left = before(c[1], c[0]);
  const std::size_t right = 2 + std::size_t{before(c[3], c[2])};
  const std::size_t right_wins = before(c[right], c[left]);
  return first + left + (right - left) * right_wins;
}

void Simulator::heap_pop() {
  const Key last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == kRoot) return;
  // Bottom-up: walk the root's hole down to a leaf along the smallest
  // children, then sift the last key up from there.  The last key is
  // nearly always a far-future timer, so it seldom climbs, and the walk
  // saves the comparison against it at every level.
  std::size_t hole = kRoot;
  std::size_t first = first_child(kRoot);
  while (first + 3 < n) {
    const std::size_t best = min_of_four(first);
    heap_[hole] = heap_[best];
    hole = best;
    first = first_child(hole);
  }
  if (first < n) {  // the last parent, with one to three children
    std::size_t best = first;
    for (std::size_t c = first + 1; c < n; ++c) {
      if (before(heap_[c], heap_[best])) best = c;
    }
    heap_[hole] = heap_[best];
    hole = best;
  }
  sift_up(hole, last);
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
        !lane_empty() && (heap_empty() || before(lane_front(), heap_[kRoot]));
    if (!from_lane && heap_empty()) break;
    const Key key = from_lane ? lane_front() : heap_[kRoot];
    const SimTime at = key.time();
    if (at > until) break;
    if (from_lane) {
      lane_pop();
    } else {
      heap_pop();
    }
    const std::uint32_t slot = key.slot();
    Slot& s = slots_[slot];
    if (!s.live) {  // cancelled
      release(slot);
      continue;
    }
    Handler handler = std::move(s.handler);
    s.live = false;
    release(slot);
    --pending_;
    now_ = at;
    ++executed_;
    handler();
  }
  if (until > now_ && std::isfinite(until)) now_ = until;
}

void Simulator::run() { run_until(std::numeric_limits<SimTime>::infinity()); }

}  // namespace p2pgen::sim
