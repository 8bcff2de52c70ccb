// p2pgen — metrics registry (observability layer, DESIGN.md §8).
//
// Named counters, gauges and fixed-bucket histograms for every layer of
// the pipeline (simulation, measurement node, fault injector, analysis
// passes).  Design constraints, in order:
//
//   1. *Strictly observational.*  Metrics never feed back into
//      simulation or analysis state: a registry records what happened,
//      it cannot change what happens.  The byte-identity contract of
//      `simulate_trace_sharded` is untouched with instrumentation on,
//      off, or absent (tests/test_obs.cpp enforces this at 1/2/8
//      threads).
//   2. *Hot paths stay hot.*  Counter cells live in thread-local shards,
//      so an increment is one relaxed fetch_add on a cell no other
//      thread writes — no locks, no shared-cache-line contention.
//      Shards are merged only when a snapshot is taken.
//   3. *Disabled means free.*  A default-constructed handle, or any
//      handle of a disabled registry, reduces to a single predictable
//      branch; no TLS lookup, no store.  Binaries that never ask for a
//      snapshot pay nothing on the paths they exercise.
//
// Every counter is a simulation or analysis total, identical for any
// thread count because the *work* is deterministic; no counter describes
// the schedule.  Gauges may (queue depths, peak RSS).
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace p2pgen::obs {

class Registry;

/// Merged view of a registry at one point in time.  Values are summed
/// across all thread-local shards; entries are sorted by name.
struct MetricsSnapshot {
  struct CounterValue {
    std::string name;
    std::uint64_t value = 0;
  };
  struct GaugeValue {
    std::string name;
    std::int64_t value = 0;
  };
  struct HistogramValue {
    std::string name;
    std::vector<double> bounds;          ///< upper bounds, ascending
    std::vector<std::uint64_t> buckets;  ///< bounds.size() + 1 (overflow last)
    std::uint64_t count = 0;             ///< total observations
    std::uint64_t sum = 0;               ///< sum of llround()ed values
  };

  std::vector<CounterValue> counters;
  std::vector<GaugeValue> gauges;
  std::vector<HistogramValue> histograms;

  /// Value of a counter by exact name; 0 when absent.
  std::uint64_t counter_value(std::string_view name) const noexcept;
  /// Value of a gauge by exact name; 0 when absent.
  std::int64_t gauge_value(std::string_view name) const noexcept;

  /// One JSON object: {"counters":{...},"gauges":{...},"histograms":{...}}.
  void write_json(std::ostream& out) const;
  /// Prometheus text exposition ('.' in names becomes '_').
  void write_prometheus(std::ostream& out) const;
};

/// Escapes a Prometheus label value per the text exposition format:
/// backslash -> \\, double quote -> \", newline -> \n.
std::string prometheus_escape_label(std::string_view value);

/// Monotone event counter.  Trivially copyable; a default-constructed
/// handle is unbound and every operation on it is a no-op.
class Counter {
 public:
  Counter() = default;
  void add(std::uint64_t n) const noexcept;
  void inc() const noexcept { add(1); }

 private:
  friend class Registry;
  Counter(Registry* registry, std::uint32_t cell)
      : registry_(registry), cell_(cell) {}
  Registry* registry_ = nullptr;
  std::uint32_t cell_ = 0;
};

/// Point-in-time value (thread counts, queue depths).  Stored centrally
/// (one atomic per gauge): gauges are low-frequency by design.
class Gauge {
 public:
  Gauge() = default;
  void set(std::int64_t v) const noexcept;
  void add(std::int64_t v) const noexcept;
  /// Monotone high-water update: keeps max(current, v).
  void record_max(std::int64_t v) const noexcept;

 private:
  friend class Registry;
  Gauge(Registry* registry, std::uint32_t index)
      : registry_(registry), index_(index) {}
  Registry* registry_ = nullptr;
  std::uint32_t index_ = 0;
};

/// Fixed-bucket histogram: bounds are set at registration and never
/// change, so observe() is a binary search plus two sharded increments.
class Histogram {
 public:
  Histogram() = default;
  void observe(double value) const noexcept;

 private:
  friend class Registry;
  struct Meta;
  Histogram(Registry* registry, const Meta* meta)
      : registry_(registry), meta_(meta) {}
  Registry* registry_ = nullptr;
  const Meta* meta_ = nullptr;
};

/// Metric namespace + storage.  Registration is idempotent by name and
/// thread-safe; handles stay valid for the registry's lifetime.
class Registry {
 public:
  Registry();
  ~Registry();
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// The process-wide registry every built-in instrumentation site uses.
  /// Enabled by default (the cost is a relaxed add on a private cell).
  static Registry& global();

  Counter counter(std::string_view name);
  Gauge gauge(std::string_view name);
  /// `bounds` are ascending upper bucket bounds; values above the last
  /// bound land in the overflow bucket.  Re-registering a histogram name
  /// returns the existing instance (bounds of the first call win).
  Histogram histogram(std::string_view name, std::vector<double> bounds);

  void set_enabled(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }
  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Merges all shards into a snapshot.  Safe to call while other
  /// threads keep incrementing (their updates land in a later snapshot).
  MetricsSnapshot snapshot() const;

  /// Snapshot relative to an earlier one: counters and histogram
  /// buckets/count/sum have `since`'s values subtracted (clamped at 0 if
  /// a reset intervened); metrics absent from `since` pass through
  /// whole; gauges are point-in-time and pass through unchanged.  This
  /// is the per-phase delta benches and the pipeline previously computed
  /// by hand.
  MetricsSnapshot delta(const MetricsSnapshot& since) const;

  /// Zeroes every cell and gauge.  Names and handles stay registered.
  void reset();

 private:
  friend class Counter;
  friend class Gauge;
  friend class Histogram;

  /// Cells per thread-local shard.  Fixed at shard creation so snapshot
  /// can read a shard while its owner keeps writing — no reallocation
  /// ever happens.  4096 cells x 8 B = 32 KiB per writing thread.
  static constexpr std::size_t kMaxCells = 4096;

  struct Shard {
    std::thread::id owner;
    std::unique_ptr<std::atomic<std::uint64_t>[]> cells;
  };

  std::atomic<std::uint64_t>* cells_for_this_thread() const;
  Shard* acquire_shard() const;
  std::uint32_t allocate_cells(std::uint32_t n);
  std::uint64_t sum_cell(std::uint32_t cell) const;

  const std::uint64_t id_;  ///< process-unique, validates the TLS cache
  std::atomic<bool> enabled_{true};

  mutable std::mutex mutex_;
  std::vector<std::pair<std::string, std::uint32_t>> counters_;  // name, cell
  std::vector<std::pair<std::string, std::uint32_t>> gauges_;  // name, index
  std::vector<std::unique_ptr<std::atomic<std::int64_t>>> gauge_values_;
  /// unique_ptr keeps each meta at a stable address: bound Histogram
  /// handles read their meta lock-free while registration appends.
  std::vector<std::unique_ptr<Histogram::Meta>> histograms_;
  std::uint32_t next_cell_ = 0;
  mutable std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace p2pgen::obs
