#include "analysis/model_fit.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <span>

#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace p2pgen::analysis {
namespace {

using core::DayPeriod;
using core::Region;
using stats::BimodalLogNormalFit;
using stats::BimodalLogNormalParetoFit;
using stats::BimodalWeibullLogNormalFit;

/// Can a body/tail split be fit on this sample?
bool splittable(std::span<const double> sample, double split,
                std::size_t min_samples) {
  if (sample.size() < min_samples) return false;
  std::size_t body = 0;
  for (double x : sample) body += x <= split ? 1 : 0;
  return body >= 2 && sample.size() - body >= 2;
}

}  // namespace

AppendixFits fit_appendix_tables(const SessionMeasures& measures,
                                 const FitSplits& splits,
                                 std::size_t min_samples) {
  obs::ObsSpan span("analysis.appendix_fits");
  AppendixFits fits;

  for (std::size_t r = 0; r < kRegions; ++r) {
    // Table A.2 (rounding-censored MLE: counts are discretized).
    if (measures.queries_by_region[r].size() >= min_samples) {
      fits.queries[r] =
          stats::fit_lognormal_discretized(measures.queries_by_region[r]);
    } else {
      fits.queries[r] = {0.0, 0.0};  // sigma 0 = not fit
    }
  }

  std::vector<double> positive_gaps;  // a Table A.3 cell without zero gaps
  for (std::size_t r = 0; r < kRegions; ++r) {
    for (std::size_t p = 0; p < core::kDayPeriodCount; ++p) {
      // Table A.1.
      const auto& passive = measures.passive_duration_by_day_period[r][p];
      if (splittable(passive, splits.passive_split, min_samples)) {
        fits.passive[r][p] = stats::fit_bimodal_lognormal(
            passive, splits.passive_split, splits.passive_body_lo);
      } else {
        fits.passive[r][p] = BimodalLogNormalFit{};  // body_weight 0 = not fit
      }

      // Table A.3.
      const double first_split = p == static_cast<std::size_t>(DayPeriod::kPeak)
                                     ? splits.first_peak_split
                                     : splits.first_nonpeak_split;
      for (std::size_t c = 0; c < core::kFirstQueryClassCount; ++c) {
        std::span<const double> sample =
            measures.first_query_by_period_class[r][p][c];
        const auto nonpositive = static_cast<std::uint64_t>(std::count_if(
            sample.begin(), sample.end(), [](double x) { return x <= 0.0; }));
        if (nonpositive > 0) {
          positive_gaps.clear();
          std::copy_if(sample.begin(), sample.end(),
                       std::back_inserter(positive_gaps),
                       [](double x) { return x > 0.0; });
          sample = positive_gaps;
        }
        if (splittable(sample, first_split, min_samples)) {
          fits.first_query[r][p][c] =
              stats::fit_bimodal_weibull_lognormal(sample, first_split);
          fits.first_query_nonpositive += nonpositive;
        } else {
          fits.first_query[r][p][c] = BimodalWeibullLogNormalFit{};
        }
      }

      // Table A.4 (period-level, as printed in the paper's table).
      const auto& ia = measures.interarrival_by_day_period[r][p];
      if (splittable(ia, splits.interarrival_split, min_samples)) {
        fits.interarrival[r][p] =
            stats::fit_bimodal_lognormal_pareto(ia, splits.interarrival_split);
      } else {
        fits.interarrival[r][p] = BimodalLogNormalParetoFit{};
      }

      // Table A.5.
      for (std::size_t c = 0; c < core::kLastQueryClassCount; ++c) {
        const auto& sample = measures.after_last_by_period_class[r][p][c];
        if (sample.size() >= min_samples) {
          // Guard against zero gaps (end exactly at last query).
          std::vector<double> positive;
          positive.reserve(sample.size());
          for (double x : sample) positive.push_back(std::max(x, 1e-3));
          fits.after_last[r][p][c] = stats::fit_lognormal(positive);
        } else {
          fits.after_last[r][p][c] = {0.0, 0.0};
        }
      }
    }
  }
  if (fits.first_query_nonpositive > 0) {
    obs::Registry::global()
        .counter("fit.first_query_nonpositive")
        .add(fits.first_query_nonpositive);
  }
  return fits;
}

core::WorkloadModel fit_workload_model(const TraceDataset& dataset,
                                       const core::WorkloadModel& fallback) {
  return fit_workload_model_from_parts(
      geographic_distribution(dataset), passive_fraction(dataset),
      fit_appendix_tables(session_measures(dataset)),
      DailyQueryTables(dataset), fallback);
}

core::WorkloadModel fit_workload_model_from_parts(
    const GeographyByHour& geography, const PassiveFraction& passive,
    const AppendixFits& fits, const DailyQueryTables& tables,
    const core::WorkloadModel& fallback) {
  core::WorkloadModel model = fallback;  // inherit anything we cannot fit

  // ---- Region mix (Figure 1), from one-hop occupancy ------------------
  for (std::size_t h = 0; h < 24; ++h) {
    double total = 0.0;
    for (std::size_t r = 0; r < kRegions; ++r) total += geography.onehop[r][h];
    if (total <= 0.0) continue;  // no data for this hour: keep fallback row
    for (std::size_t r = 0; r < kRegions; ++r) {
      // Renormalize so unknown-origin mass is spread proportionally.
      model.region_mix[h][r] = geography.onehop[r][h] / total;
    }
  }

  // ---- Passive fractions (Figure 4) ------------------------------------
  for (std::size_t r = 0; r < kRegions; ++r) {
    if (passive.overall[r] > 0.0) model.passive_fraction[r] = passive.overall[r];
  }

  // ---- Appendix distribution fits --------------------------------------
  for (std::size_t r = 0; r < kRegions; ++r) {
    if (fits.queries[r].sigma > 0.0) {
      model.queries_per_session[r] =
          stats::make_lognormal(fits.queries[r].mu, fits.queries[r].sigma);
    }
    for (std::size_t p = 0; p < core::kDayPeriodCount; ++p) {
      if (fits.passive[r][p].body_weight > 0.0) {
        model.passive_duration[r][p] = fits.passive[r][p].to_distribution();
      }
      for (std::size_t c = 0; c < core::kFirstQueryClassCount; ++c) {
        if (fits.first_query[r][p][c].body_weight > 0.0) {
          model.first_query[r][p][c] =
              fits.first_query[r][p][c].to_distribution();
        }
      }
      if (fits.interarrival[r][p].body_weight > 0.0) {
        // The paper's Table A.4 does not condition interarrival on the
        // query-count class except for Europe; the fitted model uses the
        // period-level fit for every class slot.
        for (std::size_t c = 0; c < core::kInterarrivalClassCount; ++c) {
          model.interarrival[r][p][c] =
              fits.interarrival[r][p].to_distribution();
        }
      }
      for (std::size_t c = 0; c < core::kLastQueryClassCount; ++c) {
        if (fits.after_last[r][p][c].sigma > 0.0) {
          model.after_last[r][p][c] = stats::make_lognormal(
              fits.after_last[r][p][c].mu, fits.after_last[r][p][c].sigma);
        }
      }
    }
  }

  // ---- Popularity model (Table 3 / Figures 10-11) -----------------------
  if (tables.days() >= 2) {
    const auto sizes = query_class_sizes(tables, {1});
    const auto pop = popularity_distributions(tables);
    if (!sizes.empty() && sizes[0].na > 0.0 && sizes[0].eu > 0.0 &&
        sizes[0].asia > 0.0) {
      const auto& s = sizes[0];
      auto& classes = model.popularity.classes;
      auto set_class = [&classes](core::QueryClass c, double size,
                                  double alpha) {
        auto& params = classes[static_cast<std::size_t>(c)];
        params.catalog_size = std::max<std::size_t>(
            2, static_cast<std::size_t>(std::llround(size)));
        if (alpha > 0.0) params.alpha_body = alpha;
      };
      // Exclusive sizes by inclusion-exclusion.
      set_class(core::QueryClass::kNaOnly, s.na - s.na_eu - s.na_asia + s.all3,
                pop.na_only.zipf_alpha);
      set_class(core::QueryClass::kEuOnly, s.eu - s.na_eu - s.eu_asia + s.all3,
                pop.eu_only.zipf_alpha);
      set_class(core::QueryClass::kAsiaOnly,
                s.asia - s.na_asia - s.eu_asia + s.all3, 0.0);
      set_class(core::QueryClass::kNaEu, s.na_eu - s.all3,
                pop.intersection_body_alpha);
      {
        auto& na_eu =
            classes[static_cast<std::size_t>(core::QueryClass::kNaEu)];
        if (pop.intersection_tail_alpha > 0.0 &&
            na_eu.catalog_size > na_eu.split + 1) {
          na_eu.two_piece = true;
          na_eu.alpha_tail = pop.intersection_tail_alpha;
        } else {
          na_eu.two_piece = false;
        }
      }
      set_class(core::QueryClass::kNaAsia, s.na_asia - s.all3, 0.0);
      set_class(core::QueryClass::kEuAsia, s.eu_asia - s.all3, 0.0);
      set_class(core::QueryClass::kAll, s.all3, 0.0);
    }
    const double drift = estimate_daily_drift(tables, Region::kNorthAmerica);
    if (drift > 0.0 && drift < 1.0) model.popularity.daily_drift = drift;
  }

  model.validate();
  return model;
}

}  // namespace p2pgen::analysis
