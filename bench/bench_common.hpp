// p2pgen — shared support for the reproduction bench binaries.
//
// Every bench regenerates one table or figure of the paper from the same
// simulated measurement trace (DESIGN.md §3).  The trace is produced once
// per configuration — as P2PGEN_SHARDS independently-seeded replica
// shards (DESIGN.md §7) — and cached as a durable checkpoint (DESIGN.md
// §9) in the working directory, "p2pgen_bench_ckpt_<run identity>".  The
// identity names the model and every input that shapes the trace, so
// traces from different configurations are never silently reused; a
// checkpoint that fails to load is simulated again.  The merged trace is
// byte-identical for any thread count.  Scale knobs:
//   P2PGEN_DAYS=<n>    — simulated days per shard (default 2)
//   P2PGEN_FULL=1      — paper scale: 40 days (overrides P2PGEN_DAYS)
//   P2PGEN_SHARDS=<n>  — replica shards merged into the trace (default 1)
//   P2PGEN_THREADS=<n> — threads for the shard fan-out
//                        (default: hardware concurrency)
//   P2PGEN_NO_CACHE=1  — always re-simulate
// A malformed P2PGEN_DAYS, P2PGEN_SHARDS or P2PGEN_THREADS ends the bench
// with a one-line error (exit 1) before anything is simulated.
#pragma once

#include <iostream>
#include <string>
#include <vector>

#include "analysis/filters.hpp"
#include "analysis/measures.hpp"
#include "analysis/model_fit.hpp"
#include "analysis/popularity_analysis.hpp"
#include "behavior/trace_simulation.hpp"
#include "stats/ecdf.hpp"

namespace p2pgen::bench {

/// The bench scale configuration resolved from the environment.
struct BenchScale {
  double days = 2.0;  // per shard
  double arrival_rate = 1.2;
  std::uint64_t seed = 20040315;
  bool full = false;
  unsigned shards = 1;
  unsigned threads = 1;
};

/// Reads the scale from the environment (see file comment).
BenchScale bench_scale();

/// The simulation config the standard bench trace is built from (per
/// shard; the seed is the master seed the shard seeds are split from).
behavior::TraceSimulationConfig bench_simulation_config(
    const BenchScale& scale);

/// Simulates (or loads from its cached checkpoint) the standard
/// measurement trace.
const trace::Trace& bench_trace();

/// The standard trace as a filtered dataset, plus the filter report.
struct BenchData {
  analysis::TraceDataset dataset;
  analysis::FilterReport report;
};
const BenchData& bench_data();

/// Session measures of the standard dataset (computed once).
const analysis::SessionMeasures& bench_measures();

/// Pretty-printing helpers ------------------------------------------------

/// Prints a banner naming the experiment.
void print_header(const std::string& experiment, const std::string& what);

/// Prints a labelled CCDF family evaluated on a shared log grid:
/// one row per x with one column per labelled sample set.
void print_ccdf_family(const std::string& x_label,
                       const std::vector<std::string>& labels,
                       const std::vector<const std::vector<double>*>& samples,
                       double lo_floor = 1.0, std::size_t points = 24);

/// Prints a "paper vs measured" comparison row.
void print_compare(const std::string& label, double paper, double measured);

}  // namespace p2pgen::bench
