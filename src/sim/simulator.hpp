// p2pgen — discrete-event simulation kernel.
//
// A minimal, deterministic event loop: events are (time, sequence) ordered
// closures.  The sequence number breaks ties in scheduling order, so runs
// are exactly reproducible.  Simulated time is in seconds from trace start
// (the measurement node's local midnight of day 0), matching the paper's
// time axes.
//
// The core allocates nothing per event once warm (DESIGN.md §15): handlers
// sit in a slot slab with a free list, the 4-ary heap orders 16-byte
// (time, sequence, slot) keys, and transport events whose times never
// decrease bypass the heap on a FIFO lane.
#pragma once

#include <bit>
#include <cstdint>
#include <functional>
#include <new>
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
  /// Returns a nonzero event id usable with cancel().  A time before
  /// now(), a NaN time or a null handler throws std::invalid_argument
  /// (so does each of these in schedule_in_order()).  A 2^24th pending
  /// event, or a 2^40th scheduling call, throws std::length_error.
  std::uint64_t schedule_at(SimTime at, Handler handler);

  /// Schedules `handler` after `delay` seconds (>= 0; a negative or NaN
  /// delay throws std::invalid_argument).
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
  // Firing order is (at, seq).  A key is two words: the bit pattern of
  // the time, and seq << 24 | slot, where `slot` names the handler in the
  // slab.  Schedule times are >= +0.0 (make_key folds -0.0 into +0.0),
  // and for those the bit order of a double is its numeric order, +inf
  // included.  Sequence numbers are unique, so the slot bits never decide.
  static constexpr unsigned kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask =
      (std::uint64_t{1} << kSlotBits) - 1;
  static constexpr std::uint64_t kSeqLimit = std::uint64_t{1} << 40;
  struct Key {
    std::uint64_t at;
    std::uint64_t seq_slot;
    SimTime time() const noexcept { return std::bit_cast<SimTime>(at); }
    std::uint32_t slot() const noexcept {
      return static_cast<std::uint32_t>(seq_slot & kSlotMask);
    }
  };
  // Lexicographic order of the two words, without branches: the borrow
  // of the low words decides only when the high words are equal.  The
  // high word is at most the bit pattern of +inf, so adding the borrow to
  // it cannot overflow.
  static bool before(const Key& a, const Key& b) noexcept {
    return a.at < b.at + std::uint64_t{a.seq_slot < b.seq_slot};
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

  // The heap's storage is 64-byte aligned and its root sits at position
  // 3, so the four children of position p, at 4p - 8 .. 4p - 5, always
  // share one cache line; positions 0..2 are padding.
  template <class T>
  struct CacheLineAllocator {
    using value_type = T;
    CacheLineAllocator() = default;
    template <class U>
    CacheLineAllocator(const CacheLineAllocator<U>&) noexcept {}
    T* allocate(std::size_t n) {
      return static_cast<T*>(
          ::operator new(n * sizeof(T), std::align_val_t{64}));
    }
    void deallocate(T* p, std::size_t) noexcept {
      ::operator delete(p, std::align_val_t{64});
    }
    friend bool operator==(const CacheLineAllocator&,
                           const CacheLineAllocator&) noexcept {
      return true;
    }
  };
  static constexpr std::size_t kRoot = 3;
  static constexpr std::size_t first_child(std::size_t p) noexcept {
    return 4 * p - 8;
  }
  static constexpr std::size_t parent_of(std::size_t p) noexcept {
    return p / 4 + 2;
  }
  bool heap_empty() const noexcept { return heap_.size() == kRoot; }
  void heap_push(const Key& key);
  void heap_pop();
  // Moves parents down from position `hole` until `key` fits there.
  void sift_up(std::size_t hole, const Key& key);
  // The smallest of the four children that start at `first`.
  std::size_t min_of_four(std::size_t first) const noexcept;

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
  // 4-ary min-heap by before(), from position kRoot on.
  std::vector<Key, CacheLineAllocator<Key>> heap_ =
      std::vector<Key, CacheLineAllocator<Key>>(kRoot);
  // FIFO ring buffer (power-of-two capacity) sorted by before().
  std::vector<Key> lane_;
  std::size_t lane_head_ = 0;
  std::size_t lane_size_ = 0;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
};

}  // namespace p2pgen::sim
