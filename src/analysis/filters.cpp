#include "analysis/filters.hpp"

#include <cmath>
#include <unordered_set>

#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace p2pgen::analysis {
namespace {

// Sessions are independent under every rule (rule 2's repeat set is
// per-session), so the rules run as five steps over one session at a
// time; each step only reads marks left by earlier steps.

/// Rule 1: reset marks, count the initial Table-2 row, and remove SHA1
/// source-search re-queries (empty keyword set).
void apply_rule1(ObservedSession& session, const FilterOptions& options,
                 FilterReport& report) {
  if (!session.has_end) return;  // truncated: never counted
  session.removed = false;
  ++report.initial_sessions;
  report.initial_queries += session.queries.size();
  for (auto& query : session.queries) {
    query.removed_by_rule = 0;
    query.excluded_from_interarrival = false;
    if (options.rule1_sha1 && query.sha1 && query.canonical.empty()) {
      query.removed_by_rule = 1;
      ++report.rule1_removed;
    }
  }
}

/// Rule 2: remove identical keyword sets re-issued within one session.
/// Only rule-1 survivors enter the repeat set (a rule-1 removal never
/// shadows a later genuine query).
void apply_rule2(ObservedSession& session, const FilterOptions& options,
                 FilterReport& report) {
  if (!session.has_end || !options.rule2_repeats) return;
  std::unordered_set<std::string> seen;
  for (auto& query : session.queries) {
    if (query.removed_by_rule != 0) continue;
    if (!seen.insert(query.canonical).second) {
      query.removed_by_rule = 2;
      ++report.rule2_removed;
    }
  }
}

/// Rule 3: drop whole short sessions, and count the final Table-2 row
/// for the survivors.
void apply_rule3(ObservedSession& session, const FilterOptions& options,
                 FilterReport& report) {
  if (!session.has_end) return;
  const bool short_session = options.rule3_short_sessions &&
                             session.duration() < options.min_session_seconds;
  if (short_session) {
    for (auto& query : session.queries) {
      if (query.removed_by_rule != 0) continue;
      query.removed_by_rule = 3;
      ++report.rule3_removed_queries;
    }
    session.removed = true;
    ++report.rule3_removed_sessions;
    return;
  }
  ++report.final_sessions;
  std::size_t surviving = 0;
  for (const auto& query : session.queries) surviving += query.kept() ? 1 : 0;
  report.final_queries += surviving;
}

/// Rule 4: exclude sub-second interarrivals from the interarrival
/// measure.  Marks only; the usable-query count is settled by rule 5,
/// which knows both verdicts.
void apply_rule4(ObservedSession& session, const FilterOptions& options,
                 FilterReport& report) {
  if (!session.has_end || session.removed || !options.rule4_subsecond) return;
  const ObservedQuery* prev = nullptr;
  for (auto& query : session.queries) {
    if (!query.kept()) continue;
    if (prev != nullptr &&
        query.time - prev->time < options.min_interarrival_seconds) {
      query.excluded_from_interarrival = true;
      ++report.rule4_excluded;
    }
    prev = &query;
  }
}

/// Rule 5: exclude fixed-interval replays (gap equal to the previous
/// gap) and count the queries usable for the interarrival measure.  The
/// previous-gap window advances over every kept query — rule-4 exclusions
/// included — so an exclusion never restarts the gap chain.
void apply_rule5(ObservedSession& session, const FilterOptions& options,
                 FilterReport& report) {
  if (!session.has_end || session.removed) return;
  const ObservedQuery* prev = nullptr;
  double prev_gap = -1.0;
  for (auto& query : session.queries) {
    if (!query.kept()) continue;
    if (prev == nullptr) {
      // First query: no interarrival observation either way.
      prev = &query;
      ++report.interarrival_queries;
      continue;
    }
    const double gap = query.time - prev->time;
    if (query.excluded_from_interarrival) {
      // Rule 4 got there first; rule 5 is never double-counted.
    } else if (options.rule5_identical_gaps && prev_gap >= 0.0 &&
               std::abs(gap - prev_gap) <= options.identical_gap_epsilon) {
      query.excluded_from_interarrival = true;
      ++report.rule5_excluded;
    } else {
      ++report.interarrival_queries;
    }
    prev = &query;
    prev_gap = gap;
  }
}

}  // namespace

void publish_filter_metrics(const FilterReport& report) {
  auto& registry = obs::Registry::global();
  if (!registry.enabled()) return;
  registry.counter("filter.initial_queries").add(report.initial_queries);
  registry.counter("filter.initial_sessions").add(report.initial_sessions);
  registry.counter("filter.rule1_removed").add(report.rule1_removed);
  registry.counter("filter.rule2_removed").add(report.rule2_removed);
  registry.counter("filter.rule3_removed_queries")
      .add(report.rule3_removed_queries);
  registry.counter("filter.rule3_removed_sessions")
      .add(report.rule3_removed_sessions);
  registry.counter("filter.final_queries").add(report.final_queries);
  registry.counter("filter.final_sessions").add(report.final_sessions);
  registry.counter("filter.rule4_excluded").add(report.rule4_excluded);
  registry.counter("filter.rule5_excluded").add(report.rule5_excluded);
  registry.counter("filter.interarrival_queries")
      .add(report.interarrival_queries);
}

void apply_filters_to_session(ObservedSession& session,
                              const FilterOptions& options,
                              FilterReport& report) {
  apply_rule1(session, options, report);
  apply_rule2(session, options, report);
  apply_rule3(session, options, report);
  apply_rule4(session, options, report);
  apply_rule5(session, options, report);
}

FilterReport apply_filters(TraceDataset& dataset, const FilterOptions& options) {
  obs::ObsSpan span("analysis.filters");
  FilterReport report;
  for (auto& session : dataset.sessions) {
    apply_filters_to_session(session, options, report);
  }
  publish_filter_metrics(report);
  return report;
}

}  // namespace p2pgen::analysis
