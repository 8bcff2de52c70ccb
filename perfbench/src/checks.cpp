// perfbench — output checks and small helpers.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <initializer_list>
#include <iomanip>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"

namespace perfbench {
namespace {

namespace pg = p2pgen;

/// Trace digests at the default seed, one per input of the workload.
/// Perf and simplicity changes keep them; a change that alters the
/// simulated trace updates them.
const std::map<std::string, std::vector<std::uint64_t>>& pinned_digests() {
  static const std::map<std::string, std::vector<std::uint64_t>> digests = {
      {"clean-shard", {0xc54b38c76e0c0875ULL}},
      {"hostile-durable",
       {0x99ee9f7cff799dd6ULL, 0x8c603d97a1d06699ULL, 0x47b0746fe9ea4690ULL,
        0xe4530abec345231eULL, 0x3425fa63b068e292ULL, 0xa144d9d4060ed33aULL,
        0x04ab1dcc60180458ULL, 0xd3f67c03ab496e29ULL}},
      {"spool-replay",
       {0x88e959419689b595ULL, 0x0bba1889221135fbULL, 0x07d5da51c09b5b91ULL,
        0xfa085f49904b326eULL, 0xfa70bb924cd131fcULL, 0x524c91e8146a3a0dULL,
        0x5dd7d960deac5d82ULL, 0x7a50a6aee1b00ef7ULL}},
  };
  return digests;
}

bool all_finite(std::initializer_list<double> values) {
  return std::all_of(values.begin(), values.end(),
                     [](double v) { return std::isfinite(v); });
}

bool fits_finite(const pg::analysis::AppendixFits& fits) {
  bool ok = true;
  for (const auto& region : fits.passive) {
    for (const auto& f : region) {
      ok &= all_finite({f.split, f.body_lo, f.body_weight, f.body.mu,
                        f.body.sigma, f.tail.mu, f.tail.sigma});
    }
  }
  for (const auto& f : fits.queries) ok &= all_finite({f.mu, f.sigma});
  for (const auto& region : fits.first_query) {
    for (const auto& period : region) {
      for (const auto& f : period) {
        ok &= all_finite({f.split, f.body_weight, f.body.alpha, f.body.lambda,
                          f.tail.mu, f.tail.sigma});
      }
    }
  }
  for (const auto& region : fits.interarrival) {
    for (const auto& f : region) {
      ok &= all_finite(
          {f.split, f.body_weight, f.body.mu, f.body.sigma, f.tail_alpha});
    }
  }
  for (const auto& region : fits.after_last) {
    for (const auto& period : region) {
      for (const auto& f : period) ok &= all_finite({f.mu, f.sigma});
    }
  }
  return ok;
}

std::string hex(std::uint64_t v) {
  std::ostringstream out;
  out << std::hex << std::setw(16) << std::setfill('0') << v;
  return out.str();
}

}  // namespace

void Checks::expect(bool ok, const std::string& what) {
  if (ok) return;
  rep_ok_ = false;
  // The first few failures explain the run; the rest only count.
  if (++reported_ <= 10) std::cerr << "perfbench: check failed: " << what << "\n";
}

void check_analysis(Checks& checks, const pg::analysis::FilterReport& f,
                    const pg::analysis::AppendixFits& fits,
                    const pg::core::WorkloadModel& model) {
  checks.expect(f.initial_queries > 0 && f.final_queries > 0,
                "the filter funnel is empty");
  checks.expect(f.initial_queries == f.rule1_removed + f.rule2_removed +
                                         f.rule3_removed_queries +
                                         f.final_queries,
                "filter funnel: queries do not add up");
  checks.expect(
      f.initial_sessions == f.rule3_removed_sessions + f.final_sessions,
      "filter funnel: sessions do not add up");
  checks.expect(f.final_queries == f.rule4_excluded + f.rule5_excluded +
                                       f.interarrival_queries,
                "filter funnel: interarrival queries do not add up");
  checks.expect(fits_finite(fits), "an Appendix fit is not finite");
  try {
    model.validate();
  } catch (const std::exception& e) {
    checks.expect(false, std::string("refit model does not validate: ") +
                             e.what());
  }
}

void check_digest(Checks& checks, const Options& options, unsigned input,
                  std::uint64_t digest) {
  if (options.seed != kDefaultSeed) return;
  const auto it = pinned_digests().find(options.workload);
  const std::uint64_t want =
      it == pinned_digests().end() || input >= it->second.size()
          ? 0
          : it->second[input];
  checks.expect(digest == want, "trace digest " + hex(digest) + " of input " +
                                    std::to_string(input) + " != pinned " +
                                    hex(want));
}

void check_tally(Checks& checks, const Tally& sink,
                 const pg::trace::TraceStats& stats,
                 std::optional<std::uint64_t> sessions_ended) {
  checks.expect(sink.sessions_started == stats.direct_connections,
                "sink saw " + std::to_string(sink.sessions_started) +
                    " sessions start, the program counts " +
                    std::to_string(stats.direct_connections));
  checks.expect(sink.queries == stats.query_messages,
                "sink saw " + std::to_string(sink.queries) +
                    " QUERY messages, the program counts " +
                    std::to_string(stats.query_messages));
  if (sessions_ended) {
    checks.expect(sink.sessions_ended == *sessions_ended,
                  "sink saw " + std::to_string(sink.sessions_ended) +
                      " sessions end, the program counts " +
                      std::to_string(*sessions_ended));
  }
}

Tally& Tally::operator+=(const Tally& other) {
  events += other.events;
  sessions_started += other.sessions_started;
  sessions_ended += other.sessions_ended;
  queries += other.queries;
  return *this;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::uint64_t tree_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (std::filesystem::recursive_directory_iterator it(dir, ec), end;
       !ec && it != end; it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

}  // namespace perfbench
