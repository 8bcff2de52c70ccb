// perfbench — layer micro-timings for the traced run, fed from the
// workload's own per-shard traces: spool append at three sync cadences
// and read-back, merge, digest, stats, the materialized analysis steps,
// the codec over the workload's message mix, the scheduler under a hold
// model with the workload's per-session gaps, and the session sampler at
// the workload's session start times.
#include <filesystem>
#include <optional>
#include <unordered_map>
#include <variant>

#include "analysis/dataset.hpp"
#include "analysis/measures.hpp"
#include "bench.hpp"
#include "core/generator.hpp"
#include "geo/geoip.hpp"
#include "gnutella/codec.hpp"
#include "sim/simulator.hpp"
#include "stats/rng.hpp"
#include "trace/spool.hpp"
#include "trace/trace_io.hpp"

namespace perfbench {
namespace {

namespace pg = p2pgen;
namespace fs = std::filesystem;

/// Caps on the inputs of the codec and scheduler timings, so a traced run
/// of the largest workload stays within a few seconds and a few hundred MB.
constexpr std::size_t kMaxMessages = 200'000;
constexpr std::size_t kMaxHoldEvents = 1'000'000;
/// Pending events in the scheduler hold model, about the live queue of a
/// shard at 200 connection slots.
constexpr std::size_t kHoldPopulation = 2048;

/// Seconds `fn` takes.
template <class F>
double time_it(SpanRecorder& spans, const char* name, int parent, F&& fn) {
  Span span(spans, name, parent);
  const auto t0 = Clock::now();
  fn();
  return seconds_between(t0, Clock::now());
}

double per_s(double count, double seconds) {
  return seconds > 0.0 ? count / seconds : 0.0;
}

/// The wire message a trace MessageEvent records.  The trace keeps no hit
/// results, route patches or BYE reasons, so those payloads stay empty.
pg::gnutella::Message to_message(const pg::trace::MessageEvent& e) {
  using namespace pg::gnutella;
  Message m;
  for (std::size_t i = 0; i < 8; ++i) {
    m.guid.bytes[i] = static_cast<std::uint8_t>(e.guid_hash >> (8 * i));
  }
  m.ttl = e.ttl;
  m.hops = e.hops;
  switch (e.type) {
    case MessageType::kPing: m.payload = PingPayload{}; break;
    case MessageType::kPong:
      m.payload = PongPayload{6346, e.source_ip, e.shared_files, 0};
      break;
    case MessageType::kQuery:
      m.payload = QueryPayload{0, e.query, e.sha1 ? "urn:sha1:X" : ""};
      break;
    case MessageType::kQueryHit: {
      QueryHitPayload hit;
      hit.ip = e.source_ip;
      m.payload = hit;
      break;
    }
    case MessageType::kBye: m.payload = ByePayload{}; break;
    case MessageType::kRouteTableUpdate: m.payload = RouteTablePayload{}; break;
  }
  return m;
}

/// Classic hold model: a constant population of pending events, each of
/// which schedules the next one a workload gap later.  With kWithMessage
/// every closure carries a Message, as the simulator's do.
template <bool kWithMessage>
struct Hold {
  pg::sim::Simulator sim;
  const std::vector<double>& gaps;
  const std::vector<pg::gnutella::Message>& messages;
  std::size_t next = 0;
  std::uint64_t fired = 0;
  std::uint64_t hops = 0;

  void schedule() {
    if (next >= gaps.size()) return;
    const double gap = gaps[next];
    if constexpr (kWithMessage) {
      sim.schedule_after(gap, [this, m = messages[next % messages.size()]] {
        hops += m.hops;
        fire();
      });
    } else {
      sim.schedule_after(gap, [this] { fire(); });
    }
    ++next;
  }
  void fire() {
    ++fired;
    schedule();
  }
  std::uint64_t run() {
    for (std::size_t i = 0; i < kHoldPopulation; ++i) schedule();
    sim.run();
    return fired;
  }
};

}  // namespace

void micro_timings(const Options& options, const WorkloadRun& run,
                   SpanRecorder& spans, Checks& checks,
                   std::vector<Metric>& metrics) {
  checks.begin_rep();
  Span root(spans, "micro");
  const int parent = root.id();
  auto put = [&](const std::string& name, double value, const char* unit) {
    metrics.push_back({name, value, unit});
  };

  std::uint64_t n_events = 0;
  std::uint64_t encoded_bytes = 0;
  {
    std::string buf;
    for (const auto& shard : run.shard_traces) {
      for (const auto& e : shard.events()) {
        buf.clear();
        pg::trace::append_event_binary(e, buf);
        encoded_bytes += buf.size();
        ++n_events;
      }
    }
  }
  const double encoded_mb = static_cast<double>(encoded_bytes) / 1e6;
  const double m_events = static_cast<double>(n_events) / 1e6;

  // Spool append at the three sync cadences; the last one is read back.
  const fs::path root_dir = fs::path(options.work_dir) / "micro-spool";
  fs::remove_all(root_dir);
  std::string last_dir;
  std::uint64_t last_bytes = 0;
  for (const std::uint64_t cadence : {0u, 4096u, 65536u}) {
    last_dir = (root_dir / ("sync" + std::to_string(cadence))).string();
    const pg::trace::SpoolConfig config{std::uint64_t{1} << 16, cadence};
    const double t = time_it(spans, "trace.spool.append", parent, [&] {
      pg::trace::SpoolWriter writer(last_dir, config);
      for (const auto& shard : run.shard_traces) {
        for (const auto& e : shard.events()) writer.append(e);
      }
      writer.close();
    });
    last_bytes = tree_bytes(last_dir);
    put("trace.spool.append_mb_per_s.sync" + std::to_string(cadence),
        per_s(static_cast<double>(last_bytes) / 1e6, t), "MB/s");
  }
  pg::trace::Trace read_back;
  const double read_t = time_it(spans, "trace.spool.read", parent, [&] {
    read_back = pg::trace::read_spool(last_dir);
  });
  checks.expect(read_back.size() == n_events, "spool read-back lost events");
  read_back = {};
  fs::remove_all(root_dir);
  put("trace.spool.read_mb_per_s",
      per_s(static_cast<double>(last_bytes) / 1e6, read_t), "MB/s");

  // Merge, digest and stats over the merged trace.
  std::vector<pg::trace::Trace> copies = run.shard_traces;
  pg::trace::Trace merged;
  const double merge_t = time_it(spans, "trace.merge", parent, [&] {
    merged = pg::trace::merge_traces(std::move(copies));
  });
  put("trace.merge_mb_per_s", per_s(encoded_mb, merge_t), "MB/s");
  std::uint64_t digest = 0;
  const double digest_t = time_it(spans, "trace.digest", parent, [&] {
    digest = pg::trace::binary_digest(merged);
  });
  checks.expect(digest == run.digest,
                "digest of the merged shard traces differs from the run's");
  put("trace.digest_mb_per_s", per_s(encoded_mb, digest_t), "MB/s");
  pg::trace::TraceStats stats;
  put("trace.stats_s",
      time_it(spans, "trace.stats", parent, [&] { stats = merged.stats(); }),
      "s");

  // The materialized analysis steps, per million events.
  const auto geodb = pg::geo::GeoIpDatabase::synthetic();
  std::optional<pg::analysis::TraceDataset> dataset;
  const double dataset_t =
      time_it(spans, "analysis.build_dataset", parent,
              [&] { dataset.emplace(pg::analysis::build_dataset(merged, geodb)); });
  pg::analysis::FilterReport filters;
  const double filters_t = time_it(spans, "analysis.filters", parent, [&] {
    filters = pg::analysis::apply_filters(*dataset);
  });
  pg::analysis::SessionMeasures measures;
  const double measures_t = time_it(spans, "analysis.measures", parent, [&] {
    measures = pg::analysis::session_measures(*dataset);
  });
  pg::analysis::AppendixFits fits;
  const double fits_t = time_it(spans, "analysis.fits", parent, [&] {
    fits = pg::analysis::fit_appendix_tables(measures);
  });
  checks.expect(filters.final_queries == run.filters.final_queries &&
                    filters.initial_queries == run.filters.initial_queries &&
                    filters.interarrival_queries ==
                        run.filters.interarrival_queries,
                "materialized filter report differs from the run's");
  dataset.reset();
  put("analysis.build_dataset_s", dataset_t / m_events, "s/Mevent");
  put("analysis.filters_s", filters_t / m_events, "s/Mevent");
  put("analysis.measures_s", measures_t / m_events, "s/Mevent");
  put("analysis.fits_s", fits_t / m_events, "s/Mevent");

  // Codec over the workload's message mix; gaps between events of one
  // session feed the scheduler; session starts feed the sampler.
  std::vector<pg::gnutella::Message> messages;
  std::vector<double> gaps;
  std::vector<double> starts;
  {
    std::unordered_map<std::uint64_t, double> last;
    for (const auto& event : merged.events()) {
      if (const auto* m = std::get_if<pg::trace::MessageEvent>(&event)) {
        if (messages.size() < kMaxMessages) messages.push_back(to_message(*m));
      } else if (const auto* s = std::get_if<pg::trace::SessionStart>(&event)) {
        starts.push_back(s->time);
      }
      const std::uint64_t session = std::visit(
          [](const auto& e) { return e.session_id; }, event);
      const double t = pg::trace::event_time(event);
      const auto [it, fresh] = last.try_emplace(session, t);
      if (!fresh) {
        if (gaps.size() < kMaxHoldEvents) gaps.push_back(t - it->second);
        it->second = t;
      }
    }
  }
  merged = {};
  std::vector<std::vector<std::uint8_t>> wire(messages.size());
  const double encode_t = time_it(spans, "gnutella.encode", parent, [&] {
    for (std::size_t i = 0; i < messages.size(); ++i) {
      wire[i] = pg::gnutella::encode(messages[i]);
    }
  });
  std::vector<pg::gnutella::Message> decoded(messages.size());
  const double decode_t = time_it(spans, "gnutella.decode", parent, [&] {
    for (std::size_t i = 0; i < wire.size(); ++i) {
      decoded[i] = pg::gnutella::decode(wire[i]);
    }
  });
  checks.expect(decoded == messages, "codec round trip changed a message");
  wire = {};
  decoded = {};
  put("gnutella.encode_per_s",
      per_s(static_cast<double>(messages.size()), encode_t), "1/s");
  put("gnutella.decode_per_s",
      per_s(static_cast<double>(messages.size()), decode_t), "1/s");

  std::uint64_t fired = 0;
  const double hold_t = time_it(spans, "sim.scheduler", parent, [&] {
    fired = Hold<false>{{}, gaps, messages}.run();
  });
  std::uint64_t fired_msg = 0;
  const double hold_msg_t = time_it(spans, "sim.scheduler.msg", parent, [&] {
    fired_msg = Hold<true>{{}, gaps, messages}.run();
  });
  checks.expect(fired == gaps.size() && fired_msg == gaps.size() &&
                    !messages.empty(),
                "scheduler hold model lost events");
  put("sim.scheduler.push_pop_per_s",
      per_s(static_cast<double>(fired), hold_t), "1/s");
  put("sim.scheduler.push_pop_msg_per_s",
      per_s(static_cast<double>(fired_msg), hold_msg_t), "1/s");

  pg::core::SessionSampler sampler(pg::core::WorkloadModel::paper_default(),
                                   options.seed);
  pg::stats::Rng rng(options.seed);
  std::size_t sampled_queries = 0;
  const double sampler_t = time_it(spans, "core.sampler", parent, [&] {
    for (const double start : starts) {
      sampled_queries += sampler.sample_session(start, rng).queries.size();
    }
  });
  checks.expect(starts.empty() || sampled_queries > 0,
                "the session sampler produced no queries");
  put("core.sampler.sessions_per_s",
      per_s(static_cast<double>(starts.size()), sampler_t), "1/s");
  checks.end_rep();
}

}  // namespace perfbench
