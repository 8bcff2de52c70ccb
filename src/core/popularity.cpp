#include "core/popularity.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <type_traits>

namespace p2pgen::core {
namespace {

/// Deterministically renders a serial number as a pronounceable pseudo-word
/// so synthetic query strings look like keyword searches, e.g. "rokatu".
std::string pseudo_word(std::uint64_t serial) {
  static constexpr std::string_view kSyllables[] = {
      "ba", "ke", "ro", "mi", "ta", "lu", "so", "ne", "vi", "da",
      "po", "zu", "fa", "ri", "go", "he", "wa", "ju", "ce", "ny"};
  constexpr std::uint64_t kBase = std::size(kSyllables);
  std::string word;
  std::uint64_t v = serial;
  do {
    word += kSyllables[v % kBase];
    v /= kBase;
  } while (v != 0);
  return word;
}

}  // namespace

stats::ZipfLike QueryClassParams::make_rank_distribution() const {
  if (catalog_size == 0) {
    throw std::invalid_argument("QueryClassParams: empty catalog");
  }
  if (two_piece && split > 0 && split < catalog_size) {
    return stats::ZipfLike::two_piece(catalog_size, split, alpha_body, alpha_tail);
  }
  return stats::ZipfLike::single(catalog_size, alpha_body);
}

void PopularityModel::validate() const {
  if (!(daily_drift >= 0.0 && daily_drift <= 1.0)) {
    throw std::invalid_argument("PopularityModel: drift must be in [0,1]");
  }
  for (const auto& params : classes) {
    if (params.catalog_size == 0) {
      throw std::invalid_argument("PopularityModel: empty class catalog");
    }
  }
  for (Region region : geo::kAllRegions) {
    double total = 0.0;
    for (std::size_t c = 0; c < kQueryClassCount; ++c) {
      const double p = class_probability[geo::region_index(region)][c];
      if (p < 0.0) {
        throw std::invalid_argument("PopularityModel: negative class probability");
      }
      if (p > 0.0 && !class_visible_from(static_cast<QueryClass>(c), region)) {
        throw std::invalid_argument(
            "PopularityModel: class not visible from region has probability > 0");
      }
      total += p;
    }
    if (total < 0.999 || total > 1.001) {
      throw std::invalid_argument(
          "PopularityModel: class probabilities must sum to 1 per region");
    }
  }
}

PopularityModel PopularityModel::paper_default() {
  PopularityModel m;
  auto& cls = m.classes;

  // Catalog sizes from Table 3's one-day column, reduced to exclusive
  // classes by inclusion-exclusion:
  //   NA distinct 1990, EU 1934, Asia 153, NA∩EU 56, NA∩Asia 5,
  //   EU∩Asia 5, all three 2.
  cls[static_cast<std::size_t>(QueryClass::kNaOnly)] = {1931, false, 0, 0.386, 0.0};
  cls[static_cast<std::size_t>(QueryClass::kEuOnly)] = {1875, false, 0, 0.223, 0.0};
  cls[static_cast<std::size_t>(QueryClass::kAsiaOnly)] = {145, false, 0, 0.30, 0.0};
  // Figure 11(c): two-piece Zipf with alpha_body = 0.453 (ranks 1..45) and
  // alpha_tail = 4.67 (ranks 46..100) for the NA/EU intersection.
  cls[static_cast<std::size_t>(QueryClass::kNaEu)] = {54, true, 45, 0.453, 4.67};
  cls[static_cast<std::size_t>(QueryClass::kNaAsia)] = {3, false, 0, 0.40, 0.0};
  cls[static_cast<std::size_t>(QueryClass::kEuAsia)] = {3, false, 0, 0.40, 0.0};
  cls[static_cast<std::size_t>(QueryClass::kAll)] = {2, false, 0, 0.40, 0.0};

  auto set_prob = [&m](Region region, QueryClass c, double p) {
    m.class_probability[geo::region_index(region)][static_cast<std::size_t>(c)] = p;
  };
  // Section 4.6: "For North American peers, a query is in the set of North
  // American queries with a probability of 0.97, and with probability 0.03
  // in the intersection set" — refined over the four visible classes using
  // the Table 3 size ratios.
  set_prob(Region::kNorthAmerica, QueryClass::kNaOnly, 0.968);
  set_prob(Region::kNorthAmerica, QueryClass::kNaEu, 0.027);
  set_prob(Region::kNorthAmerica, QueryClass::kNaAsia, 0.003);
  set_prob(Region::kNorthAmerica, QueryClass::kAll, 0.002);

  set_prob(Region::kEurope, QueryClass::kEuOnly, 0.966);
  set_prob(Region::kEurope, QueryClass::kNaEu, 0.029);
  set_prob(Region::kEurope, QueryClass::kEuAsia, 0.003);
  set_prob(Region::kEurope, QueryClass::kAll, 0.002);

  set_prob(Region::kAsia, QueryClass::kAsiaOnly, 0.921);
  set_prob(Region::kAsia, QueryClass::kNaAsia, 0.033);
  set_prob(Region::kAsia, QueryClass::kEuAsia, 0.033);
  set_prob(Region::kAsia, QueryClass::kAll, 0.013);

  set_prob(Region::kOther, QueryClass::kAll, 1.0);

  m.daily_drift = 0.65;
  m.validate();
  return m;
}

QueryVocabulary::QueryVocabulary(const PopularityModel& model, std::uint64_t seed)
    : model_(model),
      rank_dist_{stats::ZipfLike::single(1, 0.0), stats::ZipfLike::single(1, 0.0),
                 stats::ZipfLike::single(1, 0.0), stats::ZipfLike::single(1, 0.0),
                 stats::ZipfLike::single(1, 0.0), stats::ZipfLike::single(1, 0.0),
                 stats::ZipfLike::single(1, 0.0)},
      drift_rng_(seed) {
  model_.validate();
  DayCatalogs day0;
  for (std::size_t c = 0; c < kQueryClassCount; ++c) {
    rank_dist_[c] = model_.classes[c].make_rank_distribution();
    auto& catalog = day0[c];
    catalog.reserve(model_.classes[c].catalog_size);
    for (std::size_t r = 0; r < model_.classes[c].catalog_size; ++r) {
      catalog.push_back(fresh_query(static_cast<QueryClass>(c)));
    }
  }
  days_.push_back(std::move(day0));
}

std::string QueryVocabulary::fresh_query(QueryClass cls) {
  // Two pseudo-words plus a class-scoped serial word: unique forever, and
  // canonical_keywords() leaves these strings unchanged modulo word order.
  const std::uint64_t serial = next_query_serial_++;
  std::ostringstream os;
  os << pseudo_word(serial * 2654435761ULL % 2000003ULL) << ' '
     << pseudo_word(serial) << static_cast<int>(cls);
  return os.str();
}

QueryClass QueryVocabulary::sample_class(Region region, stats::Rng& rng) const {
  const auto& probs = model_.class_probability[geo::region_index(region)];
  double u = rng.uniform();
  for (std::size_t c = 0; c < kQueryClassCount; ++c) {
    u -= probs[c];
    if (u < 0.0) return static_cast<QueryClass>(c);
  }
  // Rounding fallthrough: return the last visible class.
  for (std::size_t c = kQueryClassCount; c-- > 0;) {
    if (probs[c] > 0.0) return static_cast<QueryClass>(c);
  }
  return QueryClass::kAll;
}

std::size_t QueryVocabulary::sample_rank(QueryClass cls, stats::Rng& rng) const {
  return rank_dist_[static_cast<std::size_t>(cls)].sample(rng);
}

void QueryVocabulary::ensure_day(std::size_t day) {
  // Days beyond max_day_ (heavy-tail timing outliers) reuse the final
  // catalog; all earlier days stay accessible so out-of-order lookups
  // read the right snapshot.
  day = std::min(day, max_day_);
  // query_string() hands out references that must survive this growth.
  static_assert(std::is_nothrow_move_constructible_v<DayCatalogs>);
  while (days_.size() <= day) {
    // Hot-set drift: every rank slot independently re-draws a fresh query
    // with probability daily_drift (Figure 10).
    DayCatalogs next = days_.back();
    for (std::size_t c = 0; c < kQueryClassCount; ++c) {
      for (auto& slot : next[c]) {
        if (drift_rng_.bernoulli(model_.daily_drift)) {
          slot = fresh_query(static_cast<QueryClass>(c));
        }
      }
    }
    days_.push_back(std::move(next));
  }
}

const std::string& QueryVocabulary::query_string(QueryClass cls, std::size_t rank,
                                                 std::size_t day) {
  ensure_day(day);
  const auto& catalog =
      days_[std::min(day, days_.size() - 1)][static_cast<std::size_t>(cls)];
  if (rank == 0 || rank > catalog.size()) {
    throw std::out_of_range("QueryVocabulary: rank out of range");
  }
  return catalog[rank - 1];
}

const std::string& QueryVocabulary::sample_query(Region region, std::size_t day,
                                                 stats::Rng& rng) {
  const QueryClass cls = sample_class(region, rng);
  const std::size_t rank = sample_rank(cls, rng);
  return query_string(cls, rank, day);
}

}  // namespace p2pgen::core
