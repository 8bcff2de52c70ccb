// p2pgen — phase/span tracing (observability layer, DESIGN.md §8).
//
// RAII wall-clock timers around pipeline phases: per-shard trace
// simulation, trace merge, the individual filter rules, session
// measures, Appendix fits and ECDF builds.
// Completed spans are collected by a TraceLog and exported two ways:
//
//   * chrome://tracing / Perfetto JSON (write_chrome_json) — load the
//     file in a Chromium browser's about:tracing (or ui.perfetto.dev)
//     to see the pipeline's phases per thread on a timeline;
//   * a plain-text per-phase summary (write_summary) — count, total,
//     mean and max duration per span name.
//
// Spans measure *wall clock* and are therefore never deterministic;
// like the metrics registry they are strictly observational and record
// nothing that feeds back into simulation or analysis state.  The
// global log starts disabled: an ObsSpan constructed against a disabled
// log stores nothing and costs one branch.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace p2pgen::obs {

/// Thread-safe collector of completed spans.
class TraceLog {
 public:
  struct Span {
    std::string name;
    std::uint32_t tid = 0;       ///< small per-thread id (0 = first seen)
    std::uint64_t start_us = 0;  ///< microseconds since the process epoch
    std::uint64_t duration_us = 0;
  };

  /// The process-wide log every built-in ObsSpan site uses.  Disabled by
  /// default: tracing buffers grow without bound while enabled, so it is
  /// opt-in (e.g. measurement_pipeline --trace-json=...).
  static TraceLog& global();

  void set_enabled(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }
  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Microseconds since the process-wide steady-clock epoch.
  static std::uint64_t now_us() noexcept;

  /// Appends a completed span (thread-safe, even while disabled — the
  /// enabled flag only gates the ObsSpan call sites).
  void record(std::string name, std::uint64_t start_us,
              std::uint64_t duration_us);

  std::vector<Span> spans() const;
  std::size_t size() const;
  void clear();

  /// chrome://tracing "trace event" JSON: {"traceEvents":[...]}, one
  /// complete ("ph":"X") event per span, timestamps in microseconds.
  void write_chrome_json(std::ostream& out) const;

  /// Same, with a hook that may append extra trace-event fragments
  /// (e.g. obs::write_qtrace_flow_events) before the closing bracket.
  /// The hook receives (out, any_prior): whether any event has already
  /// been written, so it knows whether its first fragment needs a
  /// leading comma.
  void write_chrome_json(
      std::ostream& out,
      const std::function<void(std::ostream&, bool)>& extra_events) const;

  /// Per-name aggregate table: count, total ms, mean ms, max ms.
  void write_summary(std::ostream& out) const;

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// RAII span: records [construction, destruction) into a TraceLog.
/// When the log is disabled at construction time the span is inert.
class ObsSpan {
 public:
  explicit ObsSpan(std::string_view name) : ObsSpan(name, TraceLog::global()) {}
  ObsSpan(std::string_view name, TraceLog& log);
  ~ObsSpan();

  ObsSpan(const ObsSpan&) = delete;
  ObsSpan& operator=(const ObsSpan&) = delete;

 private:
  TraceLog* log_ = nullptr;  ///< null when the log was disabled
  std::string name_;
  std::uint64_t start_us_ = 0;
};

}  // namespace p2pgen::obs
