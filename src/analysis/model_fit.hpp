// p2pgen — fitting the workload model from a measured trace.
//
// This closes the paper's loop: Sections 4.1–4.6 measure the conditional
// distributions; the Appendix fits analytic models to them; Figure 12
// generates synthetic workloads from those fits.  fit_workload_model()
// performs the Appendix step on OUR measured dataset, producing a
// core::WorkloadModel whose parameters can be compared against the
// paper's published tables (bench_tableA*) and fed straight back into the
// generator.
#pragma once

#include "analysis/measures.hpp"
#include "analysis/popularity_analysis.hpp"
#include "core/model.hpp"
#include "stats/fit.hpp"

namespace p2pgen::analysis {

/// Fitted parameters for every Appendix table, kept in their raw form so
/// the benches can print paper-vs-measured rows.
struct AppendixFits {
  /// Table A.1 — passive session duration, [region][period].
  std::array<std::array<stats::BimodalLogNormalFit, core::kDayPeriodCount>,
             kRegions>
      passive{};

  /// Table A.2 — #queries per active session, [region].
  std::array<stats::LogNormalFit, kRegions> queries{};

  /// Table A.3 — time until first query, [region][period][class].
  std::array<std::array<std::array<stats::BimodalWeibullLogNormalFit,
                                   core::kFirstQueryClassCount>,
                        core::kDayPeriodCount>,
             kRegions>
      first_query{};

  /// First-query gaps <= 0 (a query in the same tick as its connection)
  /// left out of the Table A.3 cells that were fit: the Weibull body has
  /// no mass at 0 (DESIGN.md §4).
  std::uint64_t first_query_nonpositive = 0;

  /// Table A.4 — interarrival, [region][period].
  std::array<std::array<stats::BimodalLogNormalParetoFit,
                        core::kDayPeriodCount>,
             kRegions>
      interarrival{};

  /// Table A.5 — time after last query, [region][period][class].
  std::array<std::array<std::array<stats::LogNormalFit,
                                   core::kLastQueryClassCount>,
                        core::kDayPeriodCount>,
             kRegions>
      after_last{};
};

/// Split points used by the Appendix models (seconds).
struct FitSplits {
  double passive_split = 120.0;     // Table A.1: body <= 2 minutes
  double passive_body_lo = 64.0;    // rule 3 floor
  double first_peak_split = 45.0;   // Table A.3 peak rows
  double first_nonpeak_split = 120.0;
  double interarrival_split = 103.0;  // Table A.4: Pareto beta
};

/// Fits every Appendix table from the measured samples.  Conditions with
/// fewer than `min_samples` observations fall back to the corresponding
/// paper_default() slot (recorded as sigma = 0 sentinel in the fit).
/// When first_query_nonpositive comes out non-zero it is also added to
/// the "fit.first_query_nonpositive" counter; standing runs have none,
/// so the counter does not exist there.
AppendixFits fit_appendix_tables(const SessionMeasures& measures,
                                 const FitSplits& splits = {},
                                 std::size_t min_samples = 50);

/// Builds a complete generator-ready WorkloadModel from a measured
/// dataset: Appendix fits + region mix (Figure 1) + passive fractions
/// (Figure 4) + popularity model (Table 3 / Figures 10–11).  Conditions
/// with insufficient data inherit the fallback model's entries
/// (default: core::WorkloadModel::paper_default()).
core::WorkloadModel fit_workload_model(const TraceDataset& dataset,
                                       const core::WorkloadModel& fallback =
                                           core::WorkloadModel::paper_default());

/// The same assembly from parts a caller already holds (the streaming
/// pass, the pipeline): fit_workload_model() is exactly this on a dataset.
core::WorkloadModel fit_workload_model_from_parts(
    const GeographyByHour& geography, const PassiveFraction& passive,
    const AppendixFits& fits, const DailyQueryTables& tables,
    const core::WorkloadModel& fallback =
        core::WorkloadModel::paper_default());

}  // namespace p2pgen::analysis
