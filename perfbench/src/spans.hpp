// perfbench — spans recorded by the benchmark around its calls into the
// p2pgen layers.  A span holds a name, a start, an end and the span that
// caused it; spans are kept in memory and written once, when the run
// ends.  A span's self time is its duration minus the part of it that its
// child spans cover.
#pragma once

#include <chrono>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct SpanRecord {
  std::string name;
  double start = 0.0;  ///< seconds since the recorder was created
  double end = 0.0;
  int parent = -1;     ///< index of the causing span, -1 for none
  unsigned thread = 0; ///< 0 = the main thread, k = the thread of shard k
};

/// Thread-safe, append-only span store.  While disabled, open() records
/// nothing and returns -1, so untraced work pays one branch per span.
class SpanRecorder {
 public:
  SpanRecorder() : epoch_(Clock::now()) {}

  void set_enabled(bool on) noexcept { enabled_ = on; }

  /// Seconds since the recorder was created.
  double at(Clock::time_point t) const { return seconds_between(epoch_, t); }
  double now() const { return at(Clock::now()); }

  int open(const std::string& name, int parent, unsigned thread);
  void close(int id);

  std::vector<SpanRecord> snapshot() const;

  /// Share of [from, to] covered by the union of `parent`'s direct
  /// children, in [0, 1].
  double child_coverage(int parent, double from, double to) const;

  /// Writes every span plus a per-name summary (count, total and self
  /// seconds) as one JSON document.
  void write_json(std::ostream& out) const;

 private:
  bool enabled_ = false;
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;  // guarded by mu_
};

/// RAII span: opens on construction, closes on destruction.
class Span {
 public:
  Span(SpanRecorder& recorder, const std::string& name, int parent = -1,
       unsigned thread = 0)
      : recorder_(recorder), id_(recorder.open(name, parent, thread)) {}
  ~Span() { recorder_.close(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  int id() const noexcept { return id_; }

 private:
  SpanRecorder& recorder_;
  int id_;
};

}  // namespace perfbench
