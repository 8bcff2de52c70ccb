// p2pgen — query popularity model (paper Section 4.6).
//
// Queries are partitioned into SEVEN classes by which regions issue them:
// three region-exclusive classes, three pairwise-intersection classes, and
// one three-way intersection (Table 3 gives the class sizes).  Within a
// class, per-day popularity is Zipf-like (Figure 11); the intersection
// class has a flattened head and is fit by a two-piece Zipf.  The set of
// popular queries drifts from day to day (Figure 10), which the model
// captures with a per-day replacement probability for each rank slot.
#pragma once

#include <array>
#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "core/conditions.hpp"
#include "stats/rng.hpp"
#include "stats/zipf.hpp"

namespace p2pgen::core {

/// The seven query classes of Section 4.6.
enum class QueryClass : std::uint8_t {
  kNaOnly = 0,
  kEuOnly = 1,
  kAsiaOnly = 2,
  kNaEu = 3,
  kNaAsia = 4,
  kEuAsia = 5,
  kAll = 6,
};

inline constexpr std::size_t kQueryClassCount = 7;

constexpr std::string_view query_class_name(QueryClass c) noexcept {
  switch (c) {
    case QueryClass::kNaOnly: return "NA only";
    case QueryClass::kEuOnly: return "EU only";
    case QueryClass::kAsiaOnly: return "Asia only";
    case QueryClass::kNaEu: return "NA+EU";
    case QueryClass::kNaAsia: return "NA+Asia";
    case QueryClass::kEuAsia: return "EU+Asia";
    case QueryClass::kAll: return "NA+EU+Asia";
  }
  return "?";
}

/// True when peers from `region` may issue queries of class `c`.
constexpr bool class_visible_from(QueryClass c, Region region) noexcept {
  switch (region) {
    case Region::kNorthAmerica:
      return c == QueryClass::kNaOnly || c == QueryClass::kNaEu ||
             c == QueryClass::kNaAsia || c == QueryClass::kAll;
    case Region::kEurope:
      return c == QueryClass::kEuOnly || c == QueryClass::kNaEu ||
             c == QueryClass::kEuAsia || c == QueryClass::kAll;
    case Region::kAsia:
      return c == QueryClass::kAsiaOnly || c == QueryClass::kNaAsia ||
             c == QueryClass::kEuAsia || c == QueryClass::kAll;
    case Region::kOther:
      return c == QueryClass::kAll;
  }
  return false;
}

/// Parameters of one query class.
struct QueryClassParams {
  /// Number of distinct queries in the class per day (Table 3, 1-day
  /// column defines the defaults).
  std::size_t catalog_size = 100;

  /// Zipf-like rank distribution inside the class.  When `two_piece` is
  /// false only alpha_body is used; otherwise ranks 1..split follow
  /// alpha_body and the rest alpha_tail (Figure 11(c)).
  bool two_piece = false;
  std::size_t split = 45;
  double alpha_body = 0.386;
  double alpha_tail = 4.67;

  /// Builds the rank distribution for this class.
  stats::ZipfLike make_rank_distribution() const;
};

/// Full popularity model.
struct PopularityModel {
  std::array<QueryClassParams, kQueryClassCount> classes{};

  /// P(query class | issuing region): for each region, a distribution over
  /// the four classes visible from it (others must be zero).  The paper's
  /// §4.6 example: a North American query is NA-only with probability
  /// 0.97 and in the NA/EU intersection with probability 0.03.
  std::array<std::array<double, kQueryClassCount>, geo::kRegionCount>
      class_probability{};

  /// Per-day probability that a rank slot's query is replaced by a fresh
  /// one (hot-set drift, Figure 10).
  double daily_drift = 0.65;

  /// Validates invariants (probabilities sum to 1 over visible classes,
  /// drift in [0,1], catalogs non-empty).  Throws std::invalid_argument.
  void validate() const;

  /// Paper-calibrated defaults (Table 3 one-day class sizes, Figure 11
  /// Zipf parameters, §4.6 class probabilities).
  static PopularityModel paper_default();
};

/// Draws (class, rank) pairs and materializes the query *strings* while
/// evolving the per-day catalogs with hot-set drift.  Deterministic in the
/// seed.  Days must be accessed in non-decreasing order.
class QueryVocabulary {
 public:
  QueryVocabulary(const PopularityModel& model, std::uint64_t seed);

  /// Samples the class of a query issued from `region` (Figure 12 step
  /// (c)(ii)).
  QueryClass sample_class(Region region, stats::Rng& rng) const;

  /// Samples a rank within a class (Figure 12 step (c)(iii)).
  std::size_t sample_rank(QueryClass cls, stats::Rng& rng) const;

  /// The query string occupying `rank` of `cls` on `day` (0-based day
  /// index).  Catalog evolution is materialized lazily per day and the
  /// full history is kept, so out-of-order day access (overlapping
  /// sessions, heavy-tail query timings) always reads the correct day's
  /// catalog.
  ///
  /// The returned reference stays valid, and its text unchanged, for the
  /// vocabulary's lifetime: a day's catalog is never modified once built,
  /// and materializing later days only moves the per-day arrays, whose
  /// vectors keep their buffers.  Peer plans hold these references
  /// instead of copies (behavior::PlannedSend).
  const std::string& query_string(QueryClass cls, std::size_t rank,
                                  std::size_t day);

  /// Convenience: sample a full query for a peer in `region` on `day`
  /// (a catalog reference, as above).
  const std::string& sample_query(Region region, std::size_t day,
                                  stats::Rng& rng);

  /// Latest day whose catalog has been materialized.
  std::size_t current_day() const noexcept { return days_.size() - 1; }
  const PopularityModel& model() const noexcept { return model_; }

  /// Catalog evolution is capped at this many days; queries timed beyond
  /// it (heavy-tail samples far past any realistic measurement window)
  /// reuse the final catalog.  Default 400 days.
  void set_max_day(std::size_t max_day) noexcept { max_day_ = max_day; }

 private:
  /// One day's catalogs: per class, rank -> query string.  Its move
  /// constructor is noexcept, so days_ moves (never copies) it on growth.
  using DayCatalogs = std::array<std::vector<std::string>, kQueryClassCount>;

  void ensure_day(std::size_t day);
  std::string fresh_query(QueryClass cls);

  PopularityModel model_;
  std::array<stats::ZipfLike, kQueryClassCount> rank_dist_;
  std::vector<DayCatalogs> days_;  // index = day, materialized lazily
  stats::Rng drift_rng_;
  std::size_t max_day_ = 400;
  std::uint64_t next_query_serial_ = 0;
};

}  // namespace p2pgen::core
