// p2pgen — filter rules for system-generated queries (paper Section 3.3).
//
// Applied in the paper's order:
//   rule 1: discard QUERYs with empty keywords + SHA1 extension
//           (source-search re-queries for a known file);
//   rule 2: discard QUERYs whose keyword set already occurred in the same
//           session (automatic re-sends);
//   rule 3: discard whole sessions shorter than 64 seconds (software
//           quick-disconnects);
//   rule 4: EXCLUDE (from the interarrival measure only) queries arriving
//           less than 1 second after the previous one;
//   rule 5: EXCLUDE queries whose interarrival equals the previous
//           interarrival (fixed-interval replay).
// Rules 4/5 queries still count for the popularity and #queries/session
// measures — they are genuine user queries issued before the connection.
#pragma once

#include "analysis/dataset.hpp"

namespace p2pgen::analysis {

/// Which rules to apply (ablation bench switches these off).
struct FilterOptions {
  bool rule1_sha1 = true;
  bool rule2_repeats = true;
  bool rule3_short_sessions = true;
  bool rule4_subsecond = true;
  bool rule5_identical_gaps = true;
  double min_session_seconds = 64.0;
  double min_interarrival_seconds = 1.0;
  /// Tolerance for "identical" interarrival times, seconds.
  double identical_gap_epsilon = 1e-3;
};

/// The rows of Table 2.
struct FilterReport {
  std::uint64_t initial_queries = 0;   // hop-1 queries in ended sessions
  std::uint64_t initial_sessions = 0;  // sessions with an observed end
  std::uint64_t rule1_removed = 0;
  std::uint64_t rule2_removed = 0;
  std::uint64_t rule3_removed_queries = 0;
  std::uint64_t rule3_removed_sessions = 0;
  std::uint64_t final_queries = 0;   // surviving rules 1-3
  std::uint64_t final_sessions = 0;  // surviving rule 3
  std::uint64_t rule4_excluded = 0;
  std::uint64_t rule5_excluded = 0;
  std::uint64_t interarrival_queries = 0;  // usable for the IA measure
};

/// Applies the rules in place (marks queries/sessions) and reports counts.
/// Idempotent: re-running with the same options yields the same marks.
FilterReport apply_filters(TraceDataset& dataset, const FilterOptions& options = {});

/// Applies all five rules to ONE session, accumulating its Table-2 rows
/// into `report`.  Sessions are independent under every rule (rule 2's
/// repeat set is per-session), so summing per-session reports over any
/// session order equals apply_filters() exactly.  apply_filters() loops
/// over this; the streaming pass calls it as each session closes.
void apply_filters_to_session(ObservedSession& session,
                              const FilterOptions& options,
                              FilterReport& report);

/// Publishes the Table-2 rows as `filter.*` counters (no-op when the
/// metrics registry is disabled).  apply_filters() calls this itself;
/// the streaming pass calls it once with its summed report.
void publish_filter_metrics(const FilterReport& report);

}  // namespace p2pgen::analysis
