// p2pgen — discrete-event simulation kernel.
//
// A minimal, deterministic event loop: events are (time, sequence) ordered
// closures.  The sequence number breaks ties in scheduling order, so runs
// are exactly reproducible.  Simulated time is in seconds from trace start
// (the measurement node's local midnight of day 0), matching the paper's
// time axes.
//
// The core allocates nothing per event once warm (DESIGN.md §15): handlers
// sit in a slot slab with a free list, the 4-ary heap orders small
// (time, sequence, slot) keys, and transport events whose times never
// decrease bypass the heap on a FIFO lane.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

namespace p2pgen::sim {

/// Simulated time in seconds since trace start.
using SimTime = double;

/// Seconds per day; the time-of-day axes of the paper's figures wrap at
/// this period.
inline constexpr SimTime kSecondsPerDay = 86400.0;

/// Time of day (seconds in [0, 86400)) for an absolute sim time.
constexpr SimTime time_of_day(SimTime t) noexcept {
  const auto days = static_cast<long long>(t / kSecondsPerDay);
  SimTime tod = t - static_cast<SimTime>(days) * kSecondsPerDay;
  if (tod < 0) tod += kSecondsPerDay;
  return tod;
}

/// Hour of the day (0..23) for an absolute sim time.
constexpr int hour_of_day(SimTime t) noexcept {
  return static_cast<int>(time_of_day(t) / 3600.0) % 24;
}

/// Day index (0-based) for an absolute sim time.
constexpr long long day_index(SimTime t) noexcept {
  return static_cast<long long>(t / kSecondsPerDay);
}

/// Deterministic discrete-event scheduler.
class Simulator {
 public:
  using Handler = std::function<void()>;

  /// Current simulated time.
  SimTime now() const noexcept { return now_; }

  /// Schedules `handler` to run at absolute time `at` (>= now()).
  /// Returns a nonzero event id usable with cancel().
  std::uint64_t schedule_at(SimTime at, Handler handler);

  /// Schedules `handler` after `delay` seconds (>= 0).
  std::uint64_t schedule_after(SimTime delay, Handler handler);

  /// schedule_at() for a caller whose successive times rarely decrease
  /// (the transport: every delivery is now + latency, plus a FIFO floor).
  /// Such events skip the heap; one that would fire earlier than the
  /// last event on the lane goes to the heap instead.  The firing order
  /// is exactly the one schedule_at() would give.
  std::uint64_t schedule_in_order(SimTime at, Handler handler);

  /// Cancels a pending event.  Returns true when an event was actually
  /// cancelled; an id that already fired, was already cancelled, or was
  /// never issued returns false and changes nothing.
  bool cancel(std::uint64_t event_id);

  /// Runs events until the queue is empty or the next event is later than
  /// `until`; advances now() to min(until, last event time).
  void run_until(SimTime until);

  /// Runs until the queue drains.
  void run();

  /// Number of pending (non-cancelled) events.
  std::size_t pending() const noexcept { return pending_; }

  /// Total number of events executed so far.
  std::uint64_t executed() const noexcept { return executed_; }

 private:
  // Firing order is (at, seq); `slot` names the handler in the slab.
  struct Key {
    SimTime at;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  static bool before(const Key& a, const Key& b) noexcept {
    return a.at < b.at || (a.at == b.at && a.seq < b.seq);
  }

  // A handler slot.  Event ids are (generation << 32) | slot; releasing a
  // slot bumps its generation, so ids of fired or cancelled events never
  // match a reused slot.  Generations start at 1, so no id is 0.
  struct Slot {
    Handler handler;
    std::uint32_t generation = 1;
    bool live = false;
  };

  Key make_key(SimTime at, Handler&& handler);
  std::uint64_t id_of(std::uint32_t slot) const noexcept {
    return (std::uint64_t{slots_[slot].generation} << 32) | slot;
  }
  void release(std::uint32_t slot);

  void heap_push(const Key& key);
  void heap_pop();

  bool lane_empty() const noexcept { return lane_size_ == 0; }
  const Key& lane_front() const noexcept { return lane_[lane_head_]; }
  const Key& lane_back() const noexcept {
    return lane_[(lane_head_ + lane_size_ - 1) & (lane_.size() - 1)];
  }
  void lane_push(const Key& key);
  void lane_pop() noexcept {
    lane_head_ = (lane_head_ + 1) & (lane_.size() - 1);
    --lane_size_;
  }

  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  std::size_t pending_ = 0;
  std::vector<Key> heap_;  // 4-ary min-heap by before()
  // FIFO ring buffer (power-of-two capacity) sorted by before().
  std::vector<Key> lane_;
  std::size_t lane_head_ = 0;
  std::size_t lane_size_ = 0;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
};

}  // namespace p2pgen::sim
