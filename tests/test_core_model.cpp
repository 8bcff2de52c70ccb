// Tests for the workload model: conditioning taxonomy, popularity model,
// vocabulary drift, and the paper-default parameter set.
#include <gtest/gtest.h>

#include <set>

#include "core/model.hpp"

namespace p2pgen::core {
namespace {

TEST(Conditions, QueryCountClasses) {
  EXPECT_EQ(first_query_class(0), FirstQueryClass::kFewerThanThree);
  EXPECT_EQ(first_query_class(2), FirstQueryClass::kFewerThanThree);
  EXPECT_EQ(first_query_class(3), FirstQueryClass::kExactlyThree);
  EXPECT_EQ(first_query_class(4), FirstQueryClass::kMoreThanThree);

  EXPECT_EQ(last_query_class(1), LastQueryClass::kOne);
  EXPECT_EQ(last_query_class(2), LastQueryClass::kTwoToSeven);
  EXPECT_EQ(last_query_class(7), LastQueryClass::kTwoToSeven);
  EXPECT_EQ(last_query_class(8), LastQueryClass::kMoreThanSeven);

  EXPECT_EQ(interarrival_class(2), InterarrivalClass::kTwo);
  EXPECT_EQ(interarrival_class(5), InterarrivalClass::kThreeToSeven);
  EXPECT_EQ(interarrival_class(8), InterarrivalClass::kMoreThanSeven);
}

TEST(Conditions, DayPeriodFollowsRegionalLocalTime) {
  // NA evening (Dortmund night) is NA peak.
  EXPECT_EQ(day_period(Region::kNorthAmerica, 20), DayPeriod::kPeak);
  EXPECT_EQ(day_period(Region::kNorthAmerica, 3), DayPeriod::kPeak);
  EXPECT_EQ(day_period(Region::kNorthAmerica, 12), DayPeriod::kNonPeak);
  // EU afternoon/evening is EU peak.
  EXPECT_EQ(day_period(Region::kEurope, 15), DayPeriod::kPeak);
  EXPECT_EQ(day_period(Region::kEurope, 3), DayPeriod::kNonPeak);
  // Asia's peak lands in the Dortmund morning.
  EXPECT_EQ(day_period(Region::kAsia, 8), DayPeriod::kPeak);
  EXPECT_EQ(day_period(Region::kAsia, 22), DayPeriod::kNonPeak);
  // Hour wraps.
  EXPECT_EQ(day_period(Region::kNorthAmerica, 27),
            day_period(Region::kNorthAmerica, 3));
}

TEST(Conditions, KeyPeriodsMatchSection42) {
  ASSERT_EQ(kKeyPeriods.size(), 4u);
  EXPECT_EQ(kKeyPeriods[0].start_hour, 3);
  EXPECT_EQ(kKeyPeriods[1].start_hour, 11);
  EXPECT_EQ(kKeyPeriods[2].start_hour, 13);
  EXPECT_EQ(kKeyPeriods[3].start_hour, 19);
}

TEST(PopularityModel, PaperDefaultValidates) {
  const auto model = PopularityModel::paper_default();
  EXPECT_NO_THROW(model.validate());
  // Table 3 one-day sizes, exclusive classes.
  EXPECT_EQ(model.classes[static_cast<std::size_t>(QueryClass::kNaOnly)]
                .catalog_size,
            1931u);
  EXPECT_EQ(model.classes[static_cast<std::size_t>(QueryClass::kAll)]
                .catalog_size,
            2u);
}

TEST(PopularityModel, ValidateCatchesBadProbabilities) {
  auto model = PopularityModel::paper_default();
  // Asia peers cannot issue NA-only queries.
  model.class_probability[geo::region_index(Region::kAsia)]
                         [static_cast<std::size_t>(QueryClass::kNaOnly)] = 0.1;
  EXPECT_THROW(model.validate(), std::invalid_argument);
}

TEST(PopularityModel, ValidateCatchesBadDrift) {
  auto model = PopularityModel::paper_default();
  model.daily_drift = 1.5;
  EXPECT_THROW(model.validate(), std::invalid_argument);
}

TEST(ClassVisibility, MatchesSevenClassStructure) {
  EXPECT_TRUE(class_visible_from(QueryClass::kNaOnly, Region::kNorthAmerica));
  EXPECT_FALSE(class_visible_from(QueryClass::kNaOnly, Region::kEurope));
  EXPECT_TRUE(class_visible_from(QueryClass::kNaEu, Region::kEurope));
  EXPECT_FALSE(class_visible_from(QueryClass::kNaEu, Region::kAsia));
  for (Region r : geo::kAllRegions) {
    EXPECT_TRUE(class_visible_from(QueryClass::kAll, r));
  }
}

TEST(QueryVocabulary, ClassSamplingRespectsVisibility) {
  QueryVocabulary vocab(PopularityModel::paper_default(), 1);
  stats::Rng rng(2);
  for (int i = 0; i < 2000; ++i) {
    const QueryClass cls = vocab.sample_class(Region::kAsia, rng);
    EXPECT_TRUE(class_visible_from(cls, Region::kAsia));
  }
}

TEST(QueryVocabulary, RanksInCatalogRange) {
  QueryVocabulary vocab(PopularityModel::paper_default(), 3);
  stats::Rng rng(4);
  for (int i = 0; i < 2000; ++i) {
    const std::size_t rank = vocab.sample_rank(QueryClass::kNaOnly, rng);
    EXPECT_GE(rank, 1u);
    EXPECT_LE(rank, 1931u);
  }
}

TEST(QueryVocabulary, StringsAreStableWithinADay) {
  QueryVocabulary vocab(PopularityModel::paper_default(), 5);
  const std::string a = vocab.query_string(QueryClass::kNaOnly, 1, 0);
  const std::string b = vocab.query_string(QueryClass::kNaOnly, 1, 0);
  EXPECT_EQ(a, b);
}

TEST(QueryVocabulary, DriftReplacesExpectedFractionOfSlots) {
  auto model = PopularityModel::paper_default();
  model.daily_drift = 0.65;
  QueryVocabulary vocab(model, 6);
  std::vector<std::string> day0;
  for (std::size_t r = 1; r <= 500; ++r) {
    day0.push_back(vocab.query_string(QueryClass::kNaOnly, r, 0));
  }
  std::size_t kept = 0;
  for (std::size_t r = 1; r <= 500; ++r) {
    kept += vocab.query_string(QueryClass::kNaOnly, r, 1) == day0[r - 1] ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(kept) / 500.0, 0.35, 0.07);
}

TEST(QueryVocabulary, ZeroDriftKeepsCatalogForever) {
  auto model = PopularityModel::paper_default();
  model.daily_drift = 0.0;
  QueryVocabulary vocab(model, 7);
  const std::string day0 = vocab.query_string(QueryClass::kEuOnly, 3, 0);
  EXPECT_EQ(vocab.query_string(QueryClass::kEuOnly, 3, 30), day0);
}

TEST(QueryVocabulary, ClassStringsAreDisjoint) {
  QueryVocabulary vocab(PopularityModel::paper_default(), 8);
  std::set<std::string> seen;
  for (std::size_t c = 0; c < kQueryClassCount; ++c) {
    const auto cls = static_cast<QueryClass>(c);
    const std::size_t n =
        vocab.model().classes[c].catalog_size;
    for (std::size_t r = 1; r <= std::min<std::size_t>(n, 50); ++r) {
      const auto [it, inserted] = seen.insert(vocab.query_string(cls, r, 0));
      EXPECT_TRUE(inserted) << *it;
    }
  }
}

TEST(QueryVocabulary, CatalogStringsKeepTheirAddresses) {
  // Peer plans hold references into the catalogs, so materializing later
  // days must neither move nor rewrite a string handed out earlier.
  QueryVocabulary vocab(PopularityModel::paper_default(), 11);
  std::vector<const std::string*> refs;
  std::vector<std::string> copies;
  for (std::size_t day = 0; day < 3; ++day) {
    for (std::size_t r = 1; r <= 40; ++r) {
      refs.push_back(&vocab.query_string(QueryClass::kNaOnly, r, day));
      copies.push_back(*refs.back());
    }
  }
  (void)vocab.query_string(QueryClass::kNaOnly, 1, 60);  // days_ regrows
  std::size_t i = 0;
  for (std::size_t day = 0; day < 3; ++day) {
    for (std::size_t r = 1; r <= 40; ++r, ++i) {
      EXPECT_EQ(&vocab.query_string(QueryClass::kNaOnly, r, day), refs[i]);
      EXPECT_EQ(*refs[i], copies[i]);
    }
  }
}

TEST(QueryVocabulary, EarlierDayRequestsDoNotThrow) {
  QueryVocabulary vocab(PopularityModel::paper_default(), 9);
  (void)vocab.query_string(QueryClass::kAll, 1, 5);
  EXPECT_NO_THROW(vocab.query_string(QueryClass::kAll, 1, 2));
  EXPECT_EQ(vocab.current_day(), 5u);
}

TEST(QueryVocabulary, MaxDayCapsEvolution) {
  QueryVocabulary vocab(PopularityModel::paper_default(), 10);
  vocab.set_max_day(3);
  (void)vocab.query_string(QueryClass::kAll, 1, 1000000000);  // must not hang
  EXPECT_EQ(vocab.current_day(), 3u);
}

TEST(WorkloadModel, PaperDefaultValidates) {
  EXPECT_NO_THROW(WorkloadModel::paper_default().validate());
}

TEST(WorkloadModel, RegionMixRowsSumToOne) {
  const auto mix = paper_region_mix();
  for (int h = 0; h < 24; ++h) {
    double total = 0.0;
    for (double f : mix[static_cast<std::size_t>(h)]) total += f;
    EXPECT_NEAR(total, 1.0, 1e-9) << "hour " << h;
  }
}

TEST(WorkloadModel, MixAnchorsFromSection41) {
  const auto mix = paper_region_mix();
  // "75, 15, 5 at 00:00" and "60, 20, 15 at 12:00" (NA, EU, Asia).
  EXPECT_NEAR(mix[0][geo::region_index(Region::kNorthAmerica)], 0.75, 0.02);
  EXPECT_NEAR(mix[0][geo::region_index(Region::kEurope)], 0.15, 0.02);
  EXPECT_NEAR(mix[12][geo::region_index(Region::kNorthAmerica)], 0.60, 0.02);
  EXPECT_NEAR(mix[12][geo::region_index(Region::kEurope)], 0.20, 0.02);
  EXPECT_NEAR(mix[12][geo::region_index(Region::kAsia)], 0.14, 0.02);
}

TEST(WorkloadModel, ValidateCatchesMissingDistribution) {
  auto model = WorkloadModel::paper_default();
  model.queries_per_session[0] = nullptr;
  EXPECT_THROW(model.validate(), std::invalid_argument);
}

TEST(WorkloadModel, ValidateCatchesBadMixRow) {
  auto model = WorkloadModel::paper_default();
  model.region_mix[5][0] += 0.5;
  EXPECT_THROW(model.validate(), std::invalid_argument);
}

TEST(WorkloadModel, PassiveFractionsMatchFigure4) {
  const auto model = WorkloadModel::paper_default();
  const double na = model.passive_fraction[geo::region_index(Region::kNorthAmerica)];
  const double eu = model.passive_fraction[geo::region_index(Region::kEurope)];
  const double as = model.passive_fraction[geo::region_index(Region::kAsia)];
  EXPECT_GT(na, 0.80);
  EXPECT_LT(na, 0.85);
  EXPECT_GT(eu, 0.75);
  EXPECT_LT(eu, 0.80);
  EXPECT_GT(as, 0.80);
  EXPECT_LT(as, 0.90);
  // Europe is the least passive region (Figure 4).
  EXPECT_LT(eu, na);
  EXPECT_LT(eu, as);
}

}  // namespace
}  // namespace p2pgen::core
