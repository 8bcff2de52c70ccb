#include "analysis/measures.hpp"

#include <algorithm>
#include <cmath>

#include "obs/span.hpp"
#include "sim/simulator.hpp"

namespace p2pgen::analysis {
namespace {

constexpr std::size_t idx(Region r) { return geo::region_index(r); }

std::size_t hour_bin(double t) {
  return static_cast<std::size_t>(sim::hour_of_day(t));
}

DayPeriod period_of(Region region, double t) {
  return core::day_period(region, sim::hour_of_day(t));
}

}  // namespace

std::optional<std::size_t> key_period_of(double t) {
  const int hour = sim::hour_of_day(t);
  for (std::size_t i = 0; i < core::kKeyPeriods.size(); ++i) {
    if (core::kKeyPeriods[i].start_hour == hour) return i;
  }
  return std::nullopt;
}

void GeographyAccumulator::add_session(const ObservedSession& session,
                                       double trace_end) {
  const double end = session.has_end ? session.end : trace_end;
  double t = session.start;
  while (t < end) {
    const double hour_end =
        (std::floor(t / 3600.0) + 1.0) * 3600.0;  // next hour boundary
    const double chunk = std::min(end, hour_end) - t;
    const std::size_t bin = hour_bin(t);
    total_seconds[bin] += chunk;
    if (session.region) region_seconds[idx(*session.region)][bin] += chunk;
    t = std::min(end, hour_end);
  }
}

void GeographyAccumulator::add_sample(const AddressSample& sample) {
  const std::size_t bin = hour_bin(sample.time);
  sample_totals[bin] += 1.0;
  if (sample.region) sample_counts[idx(*sample.region)][bin] += 1.0;
}

GeographyByHour GeographyAccumulator::finalize() const {
  GeographyByHour geo;
  for (std::size_t h = 0; h < 24; ++h) {
    if (total_seconds[h] <= 0.0) continue;
    for (std::size_t r = 0; r < kRegions; ++r) {
      geo.onehop[r][h] = region_seconds[r][h] / total_seconds[h];
    }
  }
  for (std::size_t h = 0; h < 24; ++h) {
    if (sample_totals[h] <= 0.0) continue;
    for (std::size_t r = 0; r < kRegions; ++r) {
      geo.allpeers[r][h] = sample_counts[r][h] / sample_totals[h];
    }
  }
  return geo;
}

GeographyByHour geographic_distribution(const TraceDataset& dataset) {
  GeographyAccumulator acc;
  // One-hop peers: connected-session occupancy in seconds per hour bin.
  for (const auto& session : dataset.sessions) {
    acc.add_session(session, dataset.trace_end);
  }
  // All peers: PONG/QUERYHIT address samples per hour.
  for (const auto& sample : dataset.all_peer_addresses) {
    acc.add_sample(sample);
  }
  return acc.finalize();
}

void SharedFilesAccumulator::add_onehop(std::uint32_t shared_files) {
  if (shared_files <= 100) onehop_counts[shared_files] += 1.0;
  onehop_total += 1.0;
}

void SharedFilesAccumulator::add_allpeer(std::uint32_t shared_files) {
  if (shared_files <= 100) allpeers_counts[shared_files] += 1.0;
  allpeers_total += 1.0;
}

SharedFilesDistribution SharedFilesAccumulator::finalize() const {
  SharedFilesDistribution dist;
  if (onehop_total > 0.0) {
    for (std::size_t k = 0; k <= 100; ++k) {
      dist.onehop[k] = onehop_counts[k] / onehop_total;
    }
  }
  if (allpeers_total > 0.0) {
    for (std::size_t k = 0; k <= 100; ++k) {
      dist.allpeers[k] = allpeers_counts[k] / allpeers_total;
    }
  }
  return dist;
}

SharedFilesDistribution shared_files_distribution(const TraceDataset& dataset) {
  SharedFilesAccumulator acc;
  for (std::uint32_t v : dataset.onehop_shared_files) acc.add_onehop(v);
  for (std::uint32_t v : dataset.all_peer_shared_files) acc.add_allpeer(v);
  return acc.finalize();
}

LoadAccumulator::LoadAccumulator()
    : series_{stats::DayBinSeries(1800), stats::DayBinSeries(1800),
              stats::DayBinSeries(1800), stats::DayBinSeries(1800)} {}

void LoadAccumulator::add_session(const ObservedSession& session) {
  if (session.removed || !session.region) return;
  for (const auto& query : session.queries) {
    if (!query.kept() || query.excluded_from_interarrival) continue;
    series_[idx(*session.region)].add(query.time);
  }
}

LoadByTime LoadAccumulator::finalize() const {
  LoadByTime load;
  for (std::size_t r = 0; r < kRegions; ++r) load.bins[r] = series_[r].stats();
  return load;
}

LoadByTime query_load(const TraceDataset& dataset) {
  LoadAccumulator acc;
  for (const auto& session : dataset.sessions) acc.add_session(session);
  return acc.finalize();
}

PassiveAccumulator::PassiveAccumulator()
    : passive_{stats::DayBinSeries(3600), stats::DayBinSeries(3600),
               stats::DayBinSeries(3600), stats::DayBinSeries(3600)},
      total_{stats::DayBinSeries(3600), stats::DayBinSeries(3600),
             stats::DayBinSeries(3600), stats::DayBinSeries(3600)} {}

void PassiveAccumulator::add_session(const ObservedSession& session) {
  if (session.removed || !session.region) return;
  const std::size_t r = idx(*session.region);
  total_[r].add(session.start);
  if (!session.active()) passive_[r].add(session.start);
}

PassiveFraction PassiveAccumulator::finalize() const {
  PassiveFraction result;
  for (std::size_t r = 0; r < kRegions; ++r) {
    const auto& p_days = passive_[r].per_day();
    const auto& t_days = total_[r].per_day();
    double overall_passive = 0.0;
    double overall_total = 0.0;
    for (std::size_t h = 0; h < 24; ++h) {
      auto& bin = result.bins[r][h];
      double sum = 0.0;
      std::size_t days = 0;
      for (std::size_t d = 0; d < t_days.size(); ++d) {
        const double tot = t_days[d][h];
        if (tot <= 0.0) continue;
        const double pas = d < p_days.size() ? p_days[d][h] : 0.0;
        const double ratio = pas / tot;
        bin.min = std::min(bin.min, ratio);
        bin.max = std::max(bin.max, ratio);
        sum += ratio;
        ++days;
        overall_passive += pas;
        overall_total += tot;
      }
      bin.mean = days > 0 ? sum / static_cast<double>(days) : 0.0;
      if (days == 0) bin.min = 0.0;
    }
    result.overall[r] =
        overall_total > 0.0 ? overall_passive / overall_total : 0.0;
  }
  return result;
}

PassiveFraction passive_fraction(const TraceDataset& dataset) {
  PassiveAccumulator acc;
  for (const auto& session : dataset.sessions) acc.add_session(session);
  return acc.finalize();
}

void accumulate_session_measures(SessionMeasures& m,
                                 const ObservedSession& session) {
  if (session.removed || !session.region) return;
  const std::size_t r = idx(*session.region);

  if (!session.active()) {
    const double d = session.duration();
    m.passive_duration_by_region[r].push_back(d);
    if (const auto kp = key_period_of(session.start)) {
      m.passive_duration_by_key_period[r][*kp].push_back(d);
    }
    const auto dp = static_cast<std::size_t>(period_of(*session.region,
                                                       session.start));
    m.passive_duration_by_day_period[r][dp].push_back(d);
    return;
  }

  const std::size_t n = session.counted_queries();
  m.queries_by_region[r].push_back(static_cast<double>(n));
  if (const auto kp = key_period_of(session.start)) {
    m.queries_by_key_period[r][*kp].push_back(static_cast<double>(n));
  }

  // First/last counted query define the session's query phase.
  const ObservedQuery* first = nullptr;
  const ObservedQuery* last = nullptr;
  const ObservedQuery* prev_kept = nullptr;
  const auto iac = static_cast<std::size_t>(core::interarrival_class(n));
  for (const auto& query : session.queries) {
    if (!query.kept()) continue;
    if (prev_kept != nullptr && !query.excluded_from_interarrival) {
      const double gap = query.time - prev_kept->time;
      m.interarrival_by_region[r].push_back(gap);
      m.interarrival_by_class[r][iac].push_back(gap);
      if (const auto kp = key_period_of(query.time)) {
        m.interarrival_by_key_period[r][*kp].push_back(gap);
      }
      const auto dp =
          static_cast<std::size_t>(period_of(*session.region, query.time));
      m.interarrival_by_day_period[r][dp].push_back(gap);
    }
    prev_kept = &query;
    if (!query.excluded_from_interarrival) {
      if (first == nullptr) first = &query;
      last = &query;
    }
  }
  if (first == nullptr) return;  // defensive: active implies counted > 0

  const double first_gap = first->time - session.start;
  const auto fqc = static_cast<std::size_t>(core::first_query_class(n));
  m.first_query_by_region[r].push_back(first_gap);
  m.first_query_by_class[r][fqc].push_back(first_gap);
  if (const auto kp = key_period_of(session.start)) {
    m.first_query_by_key_period[r][*kp].push_back(first_gap);
  }
  {
    const auto dp =
        static_cast<std::size_t>(period_of(*session.region, session.start));
    m.first_query_by_period_class[r][dp][fqc].push_back(first_gap);
  }

  const double last_gap = session.end - last->time;
  const auto lqc = static_cast<std::size_t>(core::last_query_class(n));
  m.after_last_by_region[r].push_back(last_gap);
  m.after_last_by_class[r][lqc].push_back(last_gap);
  if (const auto kp = key_period_of(last->time)) {
    m.after_last_by_key_period[r][*kp].push_back(last_gap);
  }
  {
    const auto dp =
        static_cast<std::size_t>(period_of(*session.region, last->time));
    m.after_last_by_period_class[r][dp][lqc].push_back(last_gap);
  }
}

SessionMeasures session_measures(const TraceDataset& dataset) {
  obs::ObsSpan span("analysis.session_measures");
  SessionMeasures m;
  for (const auto& session : dataset.sessions) {
    accumulate_session_measures(m, session);
  }
  return m;
}

std::array<std::vector<double>, kRegions> queries_without_rules45(
    const TraceDataset& dataset) {
  std::array<std::vector<double>, kRegions> out;
  for (const auto& session : dataset.sessions) {
    if (session.removed || !session.region) continue;
    const std::size_t n = session.kept_queries();
    if (n == 0) continue;
    out[idx(*session.region)].push_back(static_cast<double>(n));
  }
  return out;
}

}  // namespace p2pgen::analysis
