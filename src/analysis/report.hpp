// p2pgen — figure-data export.
//
// Writes the data series behind every figure of the paper as CSV files
// plus a gnuplot script (`plots.gp`) that renders the panels with the
// paper's axes (log-log CCDFs, time-of-day bins, rank pmfs).  This is the
// "regenerate the figures" path for people who want plots rather than the
// bench binaries' tables.
#pragma once

#include <iosfwd>
#include <string>

#include "analysis/dataset.hpp"
#include "analysis/filters.hpp"
#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "sim/fault.hpp"
#include "trace/trace_io.hpp"

namespace p2pgen::analysis {

/// Exported file inventory.
struct FigureExport {
  std::string directory;
  std::vector<std::string> files;  // relative names, plots.gp included
};

/// Computes all measures of `dataset` and writes:
///   fig1_geography.csv        hour, region, all_peers, one_hop
///   fig2_shared_files.csv     shared_files, all_peers, one_hop
///   fig3_load.csv             bin_start_hour, region, min, mean, max
///   fig4_passive.csv          hour, region, min, mean, max
///   fig5_passive_duration.csv region, x_minutes, ccdf
///   fig6_queries.csv          region, x, ccdf
///   fig7_first_query.csv      region, x_seconds, ccdf
///   fig8_interarrival.csv     region, x_seconds, ccdf
///   fig9_after_last.csv       region, x_seconds, ccdf
///   fig11_popularity.csv      class, rank, frequency
///   plots.gp                  gnuplot script rendering all panels
/// The directory is created if missing.  Throws std::runtime_error on
/// I/O failure.  Returns the inventory.
FigureExport export_figure_data(const TraceDataset& dataset,
                                const std::string& directory);

/// Fault / robustness counters of a measurement run: what the fault layer
/// injected (sim::FaultCounters), how the measurement node coped, and the
/// session-end-reason mix the trace recorded.  scenario::robustness_rows
/// fills every row but the end mix from the shards' summed counters;
/// add_trace() derives the end mix.
struct RobustnessReport {
  // Injected by the fault layer.
  sim::FaultCounters injected;

  // Transport totals.
  std::uint64_t transport_delivered = 0;
  std::uint64_t transport_dropped = 0;

  // Measurement-node hardening counters.
  std::uint64_t decode_errors = 0;            ///< malformed descriptors caught
  std::uint64_t clean_bytes_before_error = 0; ///< stream progress before each
  std::uint64_t forward_retries = 0;          ///< backoff retries scheduled
  std::uint64_t forward_retries_exhausted = 0;

  // Scenario-layer rows (zero outside the chaos layer).
  std::uint64_t shed_connections = 0;  ///< admission-cap 503 refusals
  std::uint64_t shed_queries = 0;      ///< queries dropped under overload
  std::uint64_t outage_crashes = 0;    ///< peers killed by regional outages

  // Session-end-reason mix observed in the trace.
  std::uint64_t bye_ends = 0;
  std::uint64_t teardown_ends = 0;
  std::uint64_t probe_ends = 0;  ///< silent peers + crashes (idle-probe reaps)
  std::uint64_t error_ends = 0;  ///< abnormal closes after a DecodeError

  /// Accumulates the end-reason mix from a recorded trace.
  void add_trace(const trace::Trace& trace);

  /// True when any fault fired or any hardening path ran.
  bool any_faults() const noexcept;
};

/// Pretty-prints the report as aligned "label: value" rows.
void print_robustness_report(std::ostream& out, const RobustnessReport& report);

/// Unified pipeline health report (DESIGN.md §8): the robustness rows,
/// the Table-2 filter rows, and a snapshot of every obs metric, in one
/// exportable object.  Strictly observational — capture() reads state,
/// it never alters simulation or analysis results.
struct PipelineReport {
  RobustnessReport robustness;
  FilterReport filters;
  obs::MetricsSnapshot metrics;

  /// Merged sim-time timeline (DESIGN.md §13); empty when timelines were
  /// off.  Byte-identical across thread counts, interruption and the
  /// materialized/streaming paths, so report diffs catch any drift in the
  /// time-resolved view, not just the run totals.  Callers fill these
  /// after capture() from whichever run path produced the merged stream.
  std::vector<obs::TimelinePoint> timeline;
  double timeline_tick_seconds = 0.0;

  /// Salvage loss accounting (DESIGN.md §14): what a salvage-mode run
  /// lost to media damage and censored from the analysis.  All-zero when
  /// the run was strict or the spool was clean, so the report shape is
  /// independent of the salvage setting.  Callers fill these after
  /// capture() from whichever path produced them (RecoverySummary or
  /// StreamingResult).
  trace::SalvageReport salvage;
  /// Trace end used to clamp open gap windows (+inf) for display only.
  double salvage_trace_end = 0.0;

  /// Bundles the given reports with a snapshot of the global registry.
  static PipelineReport capture(const RobustnessReport& robustness,
                                const FilterReport& filters);

  /// One JSON object:
  ///   {"robustness":{...},"filters":{...},"timeline":{...},"metrics":{...}}
  /// with every report row as a numeric field.  The timeline block holds
  /// tick_seconds, the series names, and one [time, shard, v0..vN] row
  /// per merged tick (an empty run emits an empty points array, so the
  /// report shape is independent of the timeline setting).
  void write_json(std::ostream& out) const;

  /// Prometheus text exposition of the metrics snapshot.  The robustness
  /// and filter rows are already present as "fault_*", "node_*",
  /// "transport_*" and "filter_*" samples, published by the layers that
  /// produced them.
  void write_prometheus(std::ostream& out) const;
};

}  // namespace p2pgen::analysis
