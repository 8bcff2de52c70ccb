// Recovery suite for the deterministic checkpoint layer (DESIGN.md §9).
// The contract under test: a durable run SIGKILLed at ANY point and then
// resumed leaves a checkpoint whose merged trace (load_checkpoint) is
// byte-identical to an uninterrupted run's, at any thread count — the
// spool is the redo log, the manifest pins run identity and each done
// shard's record count, and the replayed prefix is digest-verified
// against the durable one.  Also covers the neighbor-churn self-healing
// of the measurement node (deterministic, counted, off by default).
#include "behavior/checkpoint.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/streaming.hpp"
#include "behavior/trace_simulation.hpp"
#include "geo/geoip.hpp"
#include "obs/metrics.hpp"
#include "obs/qtrace.hpp"
#include "obs/sidecar.hpp"
#include "obs/timeline.hpp"
#include "stats/rng.hpp"
#include "trace/spool_reader.hpp"
#include "trace/trace_io.hpp"
#include "util/crc32.hpp"

#if defined(__unix__)
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace p2pgen {
namespace {

namespace fs = std::filesystem;

behavior::TraceSimulationConfig tiny_fault_config() {
  behavior::TraceSimulationConfig config;
  config.duration_days = 0.02;  // ~29 simulated minutes per shard
  config.arrival_rate = 1.0;
  config.seed = 20040315;
  config.faults.loss_prob = 0.03;
  config.faults.corrupt_prob = 0.01;
  config.faults.duplicate_prob = 0.02;
  config.faults.crash_rate = 1.0 / 3600.0;
  config.faults.half_open_prob = 0.05;
  config.faults.half_open_after_mean = 300.0;
  return config;
}

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/p2pgen_ckpt_" + name;
  fs::remove_all(dir);
  return dir;
}

std::string serialize(const trace::Trace& trace) {
  std::ostringstream os;
  trace::write_binary(trace, os);
  return os.str();
}

/// A durable run read back whole: the checkpoint's one producer, then
/// its strict reader.
trace::Trace durable_run(const core::WorkloadModel& model,
                         const behavior::TraceSimulationConfig& config,
                         unsigned shards, unsigned threads,
                         const behavior::DurabilityConfig& durability,
                         behavior::RecoverySummary* summary = nullptr,
                         std::vector<behavior::ShardStats>* stats = nullptr) {
  behavior::simulate_to_spools(model, config, shards, threads, durability,
                               summary, stats);
  return behavior::load_checkpoint(durability.dir);
}

/// The salvage-mode oracle of a checkpoint: every shard read with
/// read_spool_salvage, reports tagged with their shard and merged in
/// shard order, traces merged like merge_traces.
trace::Trace salvage_checkpoint(const std::string& dir, unsigned shards,
                                trace::SalvageReport* report) {
  std::vector<trace::Trace> traces;
  for (unsigned k = 0; k < shards; ++k) {
    trace::SalvageReport shard_report;
    traces.push_back(trace::read_spool_salvage(
        behavior::checkpoint_shard_dirs(dir, shards)[k], &shard_report));
    report->merge_shard(std::move(shard_report), k);
  }
  return trace::merge_traces(std::move(traces));
}

TEST(Checkpoint, DurableRunMatchesPlainRunAtAnyThreadCount) {
  const auto model = core::WorkloadModel::paper_default();
  const auto config = tiny_fault_config();
  const trace::Trace plain =
      behavior::simulate_trace_sharded(model, config, 3, 2);
  ASSERT_GT(plain.size(), 0u);

  // The fsync cadence never changes a byte: 0 syncs only at shard end.
  for (const std::uint64_t sync : {std::uint64_t{0}, std::uint64_t{4096},
                                   std::uint64_t{65536}}) {
    for (const unsigned threads : {1u, 2u, 8u}) {
      SCOPED_TRACE(std::to_string(threads) + " threads, sync every " +
                   std::to_string(sync));
      const std::string dir = fresh_dir("threads" + std::to_string(threads));
      behavior::DurabilityConfig durability;
      durability.dir = dir;
      durability.sync_interval_records = sync;
      behavior::RecoverySummary summary;
      const trace::Trace durable =
          durable_run(model, config, 3, threads, durability, &summary);
      EXPECT_EQ(serialize(durable), serialize(plain));
      // A fresh run recovers nothing and replays nothing.
      EXPECT_EQ(summary.records_recovered, 0u);
      EXPECT_EQ(summary.events_replayed, 0u);
      EXPECT_EQ(summary.shards_completed_prior, 0u);
      // ... but checkpoints the manifest once per shard plus once at init.
      EXPECT_EQ(summary.checkpoints_written, 4u);
      fs::remove_all(dir);
    }
  }
}

TEST(Checkpoint, ResumeFromCompletedCheckpointLoadsWithoutResimulating) {
  const auto model = core::WorkloadModel::paper_default();
  const auto config = tiny_fault_config();
  const std::string dir = fresh_dir("complete");

  behavior::DurabilityConfig durability;
  durability.dir = dir;
  const trace::Trace first = durable_run(model, config, 2, 2, durability);
  ASSERT_TRUE(behavior::checkpoint_exists(dir));

  durability.resume = true;
  behavior::RecoverySummary summary;
  std::vector<behavior::ShardStats> stats;
  const trace::Trace second =
      durable_run(model, config, 2, 2, durability, &summary, &stats);
  EXPECT_EQ(serialize(second), serialize(first));
  EXPECT_EQ(summary.shards_completed_prior, 2u);
  EXPECT_EQ(summary.events_replayed, 0u);
  // Done shards are not read by the producer at all ...
  EXPECT_EQ(summary.records_recovered, 0u);
  EXPECT_EQ(summary.segments_scanned, 0u);
  // ... yet each reports the record count its MANIFEST keeps.
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_GT(stats[0].events, 0u);
  EXPECT_GT(stats[1].events, 0u);
  EXPECT_EQ(stats[0].events + stats[1].events, first.size());
  fs::remove_all(dir);
}

TEST(Checkpoint, DoneShardWithoutARecordCountIsReplayedToGainOne) {
  // A MANIFEST from before record counts marks shards done without one:
  // the resume re-verifies such a shard by replay instead of trusting it.
  const auto model = core::WorkloadModel::paper_default();
  const auto config = tiny_fault_config();
  const std::string dir = fresh_dir("no_records");
  behavior::DurabilityConfig durability;
  durability.dir = dir;
  const trace::Trace first = durable_run(model, config, 2, 2, durability);

  const std::string manifest_path = dir + "/MANIFEST";
  const auto manifest_lines = [&] {
    std::ifstream in(manifest_path);
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);) lines.push_back(line);
    return lines;
  };
  {
    std::ostringstream kept;
    for (const auto& line : manifest_lines()) {
      if (line.rfind("records ", 0) != 0) kept << line << "\n";
    }
    std::ofstream out(manifest_path, std::ios::trunc);
    out << kept.str();
  }

  durability.resume = true;
  behavior::RecoverySummary summary;
  std::vector<behavior::ShardStats> stats;
  const trace::Trace second =
      durable_run(model, config, 2, 2, durability, &summary, &stats);
  EXPECT_EQ(serialize(second), serialize(first));
  EXPECT_EQ(summary.shards_completed_prior, 0u);
  EXPECT_EQ(summary.events_replayed, first.size());
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].events + stats[1].events, first.size());
  std::size_t records_lines = 0;
  for (const auto& line : manifest_lines()) {
    if (line.rfind("records ", 0) == 0) ++records_lines;
  }
  EXPECT_EQ(records_lines, 2u);
  fs::remove_all(dir);
}

TEST(Checkpoint, CompletedSpoolCutOnAFrameBoundaryIsRefused) {
  // Every frame before the cut is intact, so only the record count the
  // MANIFEST keeps for a done shard can tell the spool is short.
  const auto model = core::WorkloadModel::paper_default();
  const auto config = tiny_fault_config();
  const std::string dir = fresh_dir("frame_cut");
  behavior::DurabilityConfig durability;
  durability.dir = dir;
  behavior::simulate_to_spools(model, config, 2, 2, durability);

  const std::string shard1 = behavior::checkpoint_shard_dirs(dir, 2)[1];
  const std::string segment = trace::spool_segment_paths(shard1).back();
  std::uint64_t cut = trace::kSpoolHeaderBytes;
  {
    // Walk half the segment's [len][crc][payload] frames.
    std::ifstream in(segment, std::ios::binary);
    const auto size = fs::file_size(segment);
    while (cut < size / 2) {
      std::uint32_t len = 0;
      in.seekg(static_cast<std::streamoff>(cut));
      in.read(reinterpret_cast<char*>(&len), sizeof(len));
      cut += 8 + len;
    }
  }
  fs::resize_file(segment, cut);
  EXPECT_FALSE(trace::scan_spool(shard1, false).report.torn);

  const auto expect_refused = [](const auto& read) {
    try {
      read();
      FAIL() << "a short completed spool was read";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("completed shard 1 holds "), std::string::npos)
          << what;
      EXPECT_NE(what.find("MANIFEST recorded"), std::string::npos) << what;
    }
  };
  // The materialized reader ...
  expect_refused([&] { (void)behavior::load_checkpoint(dir); });
  // ... and the resume + streaming analysis, fed the counts the resume
  // reports for its done shards.
  durability.resume = true;
  std::vector<behavior::ShardStats> stats;
  const auto spool_dirs = behavior::simulate_to_spools(
      model, config, 2, 2, durability, nullptr, &stats);
  analysis::StreamingOptions options;
  for (const auto& s : stats) options.shard_records.push_back(s.events);
  for (const unsigned threads : {1u, 2u}) {
    options.threads = threads;
    expect_refused([&] {
      (void)analysis::analyze_spools(spool_dirs,
                                     geo::GeoIpDatabase::synthetic(), options);
    });
  }
  fs::remove_all(dir);
}

TEST(Checkpoint, ResumeWithoutACheckpointIsRefused) {
  const auto model = core::WorkloadModel::paper_default();
  behavior::DurabilityConfig durability;
  durability.dir = fresh_dir("norun");
  durability.resume = true;
  EXPECT_THROW(behavior::simulate_to_spools(model, tiny_fault_config(), 2, 1,
                                            durability),
               std::runtime_error);
}

TEST(Checkpoint, MismatchedIdentityIsRefused) {
  const auto model = core::WorkloadModel::paper_default();
  const auto config = tiny_fault_config();
  const std::string dir = fresh_dir("identity");
  behavior::DurabilityConfig durability;
  durability.dir = dir;
  behavior::simulate_to_spools(model, config, 2, 2, durability);

  // A different seed is a different run: resuming must refuse rather
  // than splice two different traces together.
  auto other = config;
  other.seed += 1;
  EXPECT_THROW(behavior::simulate_to_spools(model, other, 2, 2, durability),
               std::runtime_error);
  // So is a different shard count.
  EXPECT_THROW(behavior::simulate_to_spools(model, config, 3, 2, durability),
               std::runtime_error);
  // Identity covers the fault layer too.
  auto faultless = config;
  faultless.faults = sim::FaultConfig{};
  EXPECT_THROW(
      behavior::simulate_to_spools(model, faultless, 2, 2, durability),
      std::runtime_error);
  fs::remove_all(dir);
}

TEST(Checkpoint, RunIdentityDigestSeparatesConfigs) {
  const auto model = core::WorkloadModel::paper_default();
  const auto config = tiny_fault_config();
  const std::uint64_t base = behavior::run_identity_digest(model, config, 2);
  EXPECT_EQ(behavior::run_identity_digest(model, config, 2), base);

  auto seed = config;
  seed.seed += 1;
  EXPECT_NE(behavior::run_identity_digest(model, seed, 2), base);
  EXPECT_NE(behavior::run_identity_digest(model, config, 3), base);
  auto replenish = config;
  replenish.node.replenish = true;
  EXPECT_NE(behavior::run_identity_digest(model, replenish, 2), base);
}

#if defined(__unix__)
TEST(Checkpoint, SigkillAtRandomizedPointsThenResumeIsByteIdentical) {
  const auto model = core::WorkloadModel::paper_default();
  const auto config = tiny_fault_config();
  const trace::Trace plain =
      behavior::simulate_trace_sharded(model, config, 2, 2);
  const std::string expected = serialize(plain);

  const std::string dir = fresh_dir("sigkill");
  behavior::DurabilityConfig durability;
  durability.dir = dir;
  // A small fsync cadence so even an early kill leaves a durable prefix
  // whose torn tail the recovery scan has to deal with.
  durability.sync_interval_records = 256;

  // Forks a child that runs the durable simulation to completion unless
  // the parent kills it first.  Any failure must not look like a pass.
  const auto spawn = [&](const behavior::DurabilityConfig& target) {
    const pid_t pid = fork();
    if (pid == 0) {
      try {
        behavior::simulate_to_spools(model, config, 2, 2, target);
        _exit(0);
      } catch (...) {
        _exit(1);
      }
    }
    return pid;
  };

  // Time one uninterrupted run first: fixed delays either outlast a run
  // on a fast host (the victim finishes, and the torn-tail and
  // prefix-replay paths go untested) or kill it before it wrote anything
  // on a slow one.
  double run_ms = 0.0;
  {
    behavior::DurabilityConfig timed = durability;
    timed.dir = fresh_dir("sigkill_timed");
    const auto start = std::chrono::steady_clock::now();
    const pid_t pid = spawn(timed);
    ASSERT_GE(pid, 0);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
    run_ms = std::chrono::duration<double, std::milli>(
                 std::chrono::steady_clock::now() - start)
                 .count();
    fs::remove_all(timed.dir);
  }

  // Kill the durable run at randomized points inside that run time a few
  // times in a row; each resume picks up whatever the previous victim
  // left behind.  A round whose victim left a shard unfinished, with
  // records in its spool, hands the next run a partially written shard
  // to resume.
  stats::Rng rng(7);
  int partial_rounds = 0;
  bool last_round_partial = false;
  for (int round = 0; round < 3; ++round) {
    const pid_t pid = spawn(durability);
    ASSERT_GE(pid, 0);
    const auto delay_us =
        static_cast<useconds_t>(run_ms * rng.uniform(0.2, 0.7) * 1000.0);
    ::usleep(delay_us);
    ::kill(pid, SIGKILL);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    // Either we killed it mid-run or it finished cleanly first; both are
    // valid starting states for a resume.
    ASSERT_TRUE(WIFSIGNALED(status) ||
                (WIFEXITED(status) && WEXITSTATUS(status) == 0));
    last_round_partial = false;
    if (behavior::checkpoint_exists(dir) &&
        !behavior::read_checkpoint_status(dir).complete) {
      // Both shards start together, so an unfinished shard has written
      // records whenever any spool holds some.
      for (const auto& shard : behavior::checkpoint_shard_dirs(dir, 2)) {
        if (!fs::exists(shard)) continue;
        for (const auto& segment : trace::spool_segment_paths(shard)) {
          if (fs::file_size(segment) > trace::kSpoolHeaderBytes) {
            last_round_partial = true;
          }
        }
      }
    }
    if (last_round_partial) ++partial_rounds;
  }
  EXPECT_GT(partial_rounds, 0) << "no kill landed mid-run (uninterrupted run "
                               << run_ms << " ms)";

  behavior::RecoverySummary summary;
  const trace::Trace resumed =
      durable_run(model, config, 2, 2, durability, &summary);
  EXPECT_EQ(serialize(resumed), expected);
  // The resume found durable state: spool segments of an interrupted
  // shard, or shards a victim finished (those are not read);
  // records_truncated stays within one torn frame per shard per scan by
  // construction (asserted structurally in test_spool, not re-counted
  // here).
  EXPECT_GT(summary.segments_scanned + summary.shards_completed_prior, 0u);
  // The final resume starts from whatever the last victim left; when
  // that was a partially written shard, its records are recovered, not
  // simulated again from scratch.
  if (last_round_partial) {
    EXPECT_GT(summary.records_recovered, 0u);
  }

  // And a second resume sees both shards complete.
  behavior::RecoverySummary again;
  const trace::Trace reloaded =
      durable_run(model, config, 2, 2, durability, &again);
  EXPECT_EQ(serialize(reloaded), expected);
  EXPECT_EQ(again.shards_completed_prior, 2u);
  fs::remove_all(dir);
}
#endif  // defined(__unix__)

// Neighbor-churn self-healing -------------------------------------------

behavior::TraceSimulationConfig replenish_config() {
  auto config = tiny_fault_config();
  // Crash hard and often so the neighbor set decays visibly, and heal
  // with a fast backoff so the tiny window shows replenishment.
  config.faults.crash_rate = 1.0 / 120.0;
  config.node.replenish = true;
  config.node.replenish_target = 20;
  config.node.replenish_backoff_base = 0.5;
  config.node.replenish_backoff_max = 8.0;
  return config;
}

TEST(Replenish, SelfHealingIsDeterministicAndCounted) {
  const auto model = core::WorkloadModel::paper_default();
  const auto config = replenish_config();

  std::vector<std::string> bytes;
  std::uint64_t spawns = 0;
  std::uint64_t scheduled = 0;
  std::uint64_t requests = 0;
  for (int run = 0; run < 2; ++run) {
    trace::Trace trace;
    behavior::TraceSimulation simulation(model, config, trace);
    simulation.run();
    bytes.push_back(serialize(trace));
    spawns = simulation.node().replenish_spawns();
    scheduled = simulation.node().replenish_scheduled();
    requests = 0;
    for (const auto count : simulation.node().replenish_by_reason()) {
      requests += count;
    }
  }
  EXPECT_EQ(bytes[0], bytes[1]);
  // Crashes at this rate starve the neighbor set, so healing must have
  // actually fired — these are the recovery.replenish.* obs counters.
  EXPECT_GT(requests, 0u);
  EXPECT_GT(scheduled, 0u);
  EXPECT_GT(spawns, 0u);
  // Backoff arms one timer at a time: never more timers than requests.
  EXPECT_LE(scheduled, requests + spawns);
}

TEST(Replenish, DisabledReplenishIsByteIdenticalToPreRecoveryBehavior) {
  const auto model = core::WorkloadModel::paper_default();
  auto off = tiny_fault_config();
  auto off_with_hook = off;  // replenish stays false: the hook is inert

  trace::Trace a;
  {
    behavior::TraceSimulation simulation(model, off, a);
    simulation.run();
    EXPECT_EQ(simulation.node().replenish_spawns(), 0u);
    EXPECT_EQ(simulation.node().replenish_scheduled(), 0u);
  }
  trace::Trace b;
  {
    behavior::TraceSimulation simulation(model, off_with_hook, b);
    simulation.run();
  }
  EXPECT_EQ(serialize(a), serialize(b));
  ASSERT_GT(a.size(), 0u);
}

TEST(Replenish, DurableRunWithReplenishStillResumesByteIdentical) {
  const auto model = core::WorkloadModel::paper_default();
  const auto config = replenish_config();
  const trace::Trace plain =
      behavior::simulate_trace_sharded(model, config, 2, 1);

  const std::string dir = fresh_dir("replenish");
  behavior::DurabilityConfig durability;
  durability.dir = dir;
  const trace::Trace durable = durable_run(model, config, 2, 2, durability);
  EXPECT_EQ(serialize(durable), serialize(plain));

  durability.resume = true;
  const trace::Trace resumed = durable_run(model, config, 2, 2, durability);
  EXPECT_EQ(serialize(resumed), serialize(plain));
  fs::remove_all(dir);
}

// Salvage-mode durability and sidecar self-healing (DESIGN.md §14) ------

std::vector<char> read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<char>(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
}

void write_bytes(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

/// XORs one byte of `path` in place (offset < file size).
void flip_byte(const std::string& path, std::uint64_t offset,
               unsigned char mask) {
  std::vector<char> bytes = read_bytes(path);
  ASSERT_LT(offset, bytes.size()) << path;
  bytes[offset] = static_cast<char>(bytes[offset] ^ mask);
  write_bytes(path, bytes);
}

/// Byte offset (and size through `frame_size`) of frame `n` of a spool
/// segment, walked from the length headers.
std::uint64_t nth_frame_offset(const std::string& segment_path, std::size_t n,
                               std::uint64_t* frame_size) {
  const std::vector<char> bytes = read_bytes(segment_path);
  std::uint64_t pos = trace::kSpoolHeaderBytes;
  for (std::size_t i = 0;; ++i) {
    EXPECT_LE(pos + 8, bytes.size()) << "segment has fewer than " << n
                                     << " frames";
    std::uint32_t len = 0;
    std::memcpy(&len, bytes.data() + pos, sizeof(len));
    if (i == n) {
      if (frame_size != nullptr) *frame_size = 8 + len;
      return pos;
    }
    pos += 8 + len;
  }
}

behavior::TraceSimulationConfig sidecar_config() {
  auto config = tiny_fault_config();
  config.qtrace.sample_rate = 1.0;
  config.timeline.tick_seconds = 60.0;
  return config;
}

std::string sidecar_path(const std::string& dir, unsigned shards,
                         unsigned shard) {
  return behavior::checkpoint_shard_dirs(dir, shards)[shard] + "/" +
         behavior::kShardSidecarName;
}

TEST(CheckpointSalvage, DamagedSidecarsAreRebuiltDeterministically) {
  const auto model = core::WorkloadModel::paper_default();
  const auto config = sidecar_config();
  const std::string dir = fresh_dir("sidecar");
  behavior::DurabilityConfig durability;
  durability.dir = dir;
  const trace::Trace first = durable_run(model, config, 2, 2, durability);

  // Bit-flip one byte inside shard 0's sidecar: the CRC trailer must
  // reject the load, and the resume must rebuild it by replaying the
  // shard (digest-verified against its intact spool).
  const std::string path = sidecar_path(dir, 2, 0);
  const std::vector<char> sidecar_first = read_bytes(path);
  ASSERT_GT(sidecar_first.size(), 64u);
  flip_byte(path, sidecar_first.size() / 2, 0x40);

  durability.resume = true;
  behavior::RecoverySummary summary;
  const trace::Trace second =
      durable_run(model, config, 2, 2, durability, &summary);
  EXPECT_EQ(serialize(second), serialize(first));
  EXPECT_EQ(summary.sidecars_rebuilt, 1u);  // one shard, its one sidecar
  EXPECT_GT(summary.events_replayed, 0u);   // the rebuild is a real replay

  // The rebuilt sidecar is byte-identical to the original.
  EXPECT_EQ(read_bytes(path), sidecar_first);

  // A further resume finds a valid sidecar and rebuilds nothing.
  behavior::RecoverySummary again;
  behavior::simulate_to_spools(model, config, 2, 2, durability, &again);
  EXPECT_EQ(again.sidecars_rebuilt, 0u);
  EXPECT_EQ(again.shards_completed_prior, 2u);
  fs::remove_all(dir);
}

/// Every published qtrace.* and timeline.* metric, by name.
std::map<std::string, std::string> stream_metrics(
    const obs::MetricsSnapshot& snapshot) {
  const auto wanted = [](const std::string& name) {
    return name.rfind("qtrace.", 0) == 0 || name.rfind("timeline.", 0) == 0;
  };
  std::map<std::string, std::string> out;
  for (const auto& c : snapshot.counters) {
    if (wanted(c.name)) out[c.name] = std::to_string(c.value);
  }
  for (const auto& g : snapshot.gauges) {
    if (wanted(g.name)) out[g.name] = std::to_string(g.value);
  }
  for (const auto& h : snapshot.histograms) {
    if (!wanted(h.name)) continue;
    std::ostringstream os;
    for (const auto b : h.buckets) os << b << ",";
    os << "count=" << h.count << " sum=" << h.sum;
    out[h.name] = os.str();
  }
  return out;
}

/// What a run returned and published of its two observational streams.
struct Streams {
  std::uint64_t qtrace_digest = 0;
  std::uint64_t timeline_digest = 0;
  std::size_t hops = 0;
  std::size_t ticks = 0;
  std::map<std::string, std::string> metrics;
  bool operator==(const Streams&) const = default;
};

Streams in_memory_streams(const core::WorkloadModel& model,
                          const behavior::TraceSimulationConfig& config) {
  auto& registry = obs::Registry::global();
  registry.reset();
  std::vector<obs::QueryHopEvent> qtrace;
  std::vector<obs::TimelinePoint> timeline;
  behavior::simulate_trace_sharded(model, config, 2, 2, nullptr, &qtrace,
                                   &timeline);
  return {obs::qtrace_digest(qtrace), obs::timeline_digest(timeline),
          qtrace.size(), timeline.size(),
          stream_metrics(registry.snapshot())};
}

Streams checkpoint_streams(const core::WorkloadModel& model,
                           const behavior::TraceSimulationConfig& config,
                           const behavior::DurabilityConfig& durability,
                           behavior::RecoverySummary* summary) {
  auto& registry = obs::Registry::global();
  registry.reset();
  std::vector<obs::QueryHopEvent> qtrace;
  std::vector<obs::TimelinePoint> timeline;
  const auto dirs = behavior::simulate_to_spools(
      model, config, 2, 2, durability, summary, nullptr, &qtrace, &timeline);
  (void)analysis::analyze_spools(dirs, geo::GeoIpDatabase::synthetic());
  return {obs::qtrace_digest(qtrace), obs::timeline_digest(timeline),
          qtrace.size(), timeline.size(),
          stream_metrics(registry.snapshot())};
}

TEST(CheckpointSidecar, DeletedSidecarOfADoneShardIsRebuilt) {
  obs::Registry::global().set_enabled(true);
  const auto model = core::WorkloadModel::paper_default();
  const auto config = sidecar_config();
  const Streams want = in_memory_streams(model, config);
  ASSERT_GT(want.hops, 0u);
  ASSERT_GT(want.ticks, 0u);

  const std::string dir = fresh_dir("sidecar_deleted");
  behavior::DurabilityConfig durability;
  durability.dir = dir;
  EXPECT_EQ(checkpoint_streams(model, config, durability, nullptr), want);

  // A missing sidecar is not an empty one: the shard is replayed.
  const std::string path = sidecar_path(dir, 2, 1);
  const std::vector<char> original = read_bytes(path);
  ASSERT_TRUE(fs::remove(path));
  durability.resume = true;
  behavior::RecoverySummary summary;
  EXPECT_EQ(checkpoint_streams(model, config, durability, &summary), want);
  EXPECT_EQ(summary.sidecars_rebuilt, 1u);
  EXPECT_EQ(summary.shards_completed_prior, 1u);
  EXPECT_EQ(read_bytes(path), original);
  fs::remove_all(dir);
}

TEST(CheckpointSidecar, ResumeAtAnotherRateAndTickRebuildsEveryDoneShard) {
  obs::Registry::global().set_enabled(true);
  const auto model = core::WorkloadModel::paper_default();
  auto first = sidecar_config();
  first.qtrace.sample_rate = 0.25;
  first.timeline.tick_seconds = 300.0;
  const std::string dir = fresh_dir("sidecar_stale");
  behavior::DurabilityConfig durability;
  durability.dir = dir;
  EXPECT_EQ(checkpoint_streams(model, first, durability, nullptr),
            in_memory_streams(model, first));

  // Each stream's setting is checked on its own, and every changed one
  // makes each done shard's sidecar stale.
  durability.resume = true;
  auto rate_only = first;
  rate_only.qtrace.sample_rate = 0.5;
  auto both = first;
  both.qtrace.sample_rate = 1.0;
  both.timeline.tick_seconds = 60.0;
  for (const auto& config : {rate_only, both}) {
    const Streams want = in_memory_streams(model, config);
    behavior::RecoverySummary summary;
    EXPECT_EQ(checkpoint_streams(model, config, durability, &summary), want);
    EXPECT_EQ(summary.sidecars_rebuilt, 2u);
    EXPECT_EQ(summary.shards_completed_prior, 0u);

    // The rebuilt sidecars are current: the next resume replays nothing.
    behavior::RecoverySummary again;
    EXPECT_EQ(checkpoint_streams(model, config, durability, &again), want);
    EXPECT_EQ(again.sidecars_rebuilt, 0u);
    EXPECT_EQ(again.shards_completed_prior, 2u);
  }

  // A stream that is off is not checked: the timeline alone still
  // matches the sidecars written at `both`.
  auto timeline_only = both;
  timeline_only.qtrace.sample_rate = 0.0;
  behavior::RecoverySummary summary;
  EXPECT_EQ(checkpoint_streams(model, timeline_only, durability, &summary),
            in_memory_streams(model, timeline_only));
  EXPECT_EQ(summary.sidecars_rebuilt, 0u);
  fs::remove_all(dir);
}

TEST(CheckpointSidecar, ResumeWithBothStreamsOffPublishesNothing) {
  obs::Registry::global().set_enabled(true);
  const auto model = core::WorkloadModel::paper_default();
  const auto config = sidecar_config();
  const std::string dir = fresh_dir("sidecar_off");
  behavior::DurabilityConfig durability;
  durability.dir = dir;
  checkpoint_streams(model, config, durability, nullptr);

  auto off = config;
  off.qtrace.sample_rate = 0.0;
  off.timeline.tick_seconds = 0.0;
  const Streams want = in_memory_streams(model, off);
  durability.resume = true;
  behavior::RecoverySummary summary;
  const Streams got = checkpoint_streams(model, off, durability, &summary);
  EXPECT_EQ(got, want);
  EXPECT_EQ(got.hops, 0u);
  EXPECT_EQ(got.ticks, 0u);
  for (const auto& [name, value] : got.metrics) {
    EXPECT_TRUE(value == "0" || value.find("count=0 ") != std::string::npos)
        << name << " = " << value;
  }
  EXPECT_EQ(summary.sidecars_rebuilt, 0u);
  EXPECT_EQ(summary.shards_completed_prior, 2u);
  fs::remove_all(dir);
}

/// Every nonzero counter of `snapshot`, by name (a reset registry keeps
/// the names it has seen, at 0).
std::map<std::string, std::uint64_t> counters_of(
    const obs::MetricsSnapshot& snapshot) {
  std::map<std::string, std::uint64_t> out;
  for (const auto& c : snapshot.counters) {
    if (c.value != 0) out[c.name] = c.value;
  }
  return out;
}

TEST(CheckpointSidecar, PlainResumePublishesTheInMemoryRunsCounters) {
  auto& registry = obs::Registry::global();
  registry.set_enabled(true);
  const auto model = core::WorkloadModel::paper_default();
  for (const auto& config : {tiny_fault_config(), sidecar_config()}) {
    registry.reset();
    std::vector<behavior::ShardStats> in_memory;
    behavior::simulate_trace_sharded(model, config, 2, 2, &in_memory);
    auto want = counters_of(registry.snapshot());
    // The in-memory merge counts the merged trace; with a checkpoint the
    // streaming analysis does.
    ASSERT_EQ(want.erase("sim.merged_events"), 1u);
    ASSERT_GT(want.at("fault.messages_lost"), 0u);

    const std::string dir = fresh_dir("resume_counters");
    behavior::DurabilityConfig durability;
    durability.dir = dir;
    behavior::simulate_to_spools(model, config, 2, 2, durability);
    durability.resume = true;
    registry.reset();
    behavior::RecoverySummary summary;
    std::vector<behavior::ShardStats> resumed;
    behavior::simulate_to_spools(model, config, 2, 2, durability, &summary,
                                 &resumed);
    EXPECT_EQ(summary.shards_completed_prior, 2u);
    EXPECT_EQ(summary.events_replayed, 0u);

    // Every counter of the run, at its value; beyond them the resume
    // publishes only its own recovery summary.
    auto got = counters_of(registry.snapshot());
    std::erase_if(got, [&](const auto& entry) {
      if (want.contains(entry.first)) return false;
      EXPECT_EQ(entry.first.rfind("recovery.", 0), 0u) << entry.first;
      return true;
    });
    EXPECT_EQ(got, want);

    // The shard records behind the robustness rows agree field by field.
    const behavior::ShardStats a = behavior::sum_shard_stats(in_memory);
    const behavior::ShardStats b = behavior::sum_shard_stats(resumed);
    EXPECT_EQ(a.events, b.events);
    behavior::for_each_counter(
        [](std::string_view name, std::uint64_t x, std::uint64_t y) {
          EXPECT_EQ(x, y) << name;
        },
        a, b);
    fs::remove_all(dir);
  }
}

TEST(CheckpointSidecar, OlderOrMiscountedSidecarIsRebuilt) {
  const auto model = core::WorkloadModel::paper_default();
  const auto config = tiny_fault_config();
  const std::string dir = fresh_dir("sidecar_older");
  behavior::DurabilityConfig durability;
  durability.dir = dir;
  const trace::Trace first = durable_run(model, config, 2, 2, durability);
  const std::string path = sidecar_path(dir, 2, 0);
  const std::vector<char> original = read_bytes(path);
  const auto write_bytes = [&](std::vector<char> bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  };

  // A sidecar of version 1 (CRC re-sealed, so only the version tells),
  // one that counts other records than the MANIFEST and one with another
  // counter list are each stale: the shard is replayed, the sidecar
  // rewritten as it was.
  const std::vector<std::function<void()>> forgeries = {
      [&] {
        std::vector<char> bytes = original;
        bytes[4] = 1;
        const std::uint32_t crc =
            util::crc32(bytes.data() + 4, bytes.size() - 8);
        for (int b = 0; b < 4; ++b) {
          bytes[bytes.size() - 4 + b] = static_cast<char>(crc >> (8 * b));
        }
        write_bytes(bytes);
      },
      [&] {
        obs::Sidecar sidecar = *obs::load_sidecar(path);
        ++sidecar.events;
        obs::save_sidecar(path, sidecar);
      },
      [&] {
        obs::Sidecar sidecar = *obs::load_sidecar(path);
        sidecar.counters.pop_back();
        obs::save_sidecar(path, sidecar);
      }};
  durability.resume = true;
  for (std::size_t i = 0; i < forgeries.size(); ++i) {
    SCOPED_TRACE("forgery " + std::to_string(i));
    forgeries[i]();
    ASSERT_NE(read_bytes(path), original);
    behavior::RecoverySummary summary;
    const trace::Trace again =
        durable_run(model, config, 2, 2, durability, &summary);
    EXPECT_EQ(serialize(again), serialize(first));
    EXPECT_EQ(summary.sidecars_rebuilt, 1u);
    EXPECT_EQ(summary.shards_completed_prior, 1u);
    EXPECT_EQ(read_bytes(path), original);
  }
  fs::remove_all(dir);
}

TEST(CheckpointSalvage, StopReasonRoundTripsAndResumeClearsIt) {
  const auto model = core::WorkloadModel::paper_default();
  const auto config = tiny_fault_config();
  const std::string dir = fresh_dir("stopreason");
  behavior::DurabilityConfig durability;
  durability.dir = dir;
  behavior::simulate_to_spools(model, config, 2, 1, durability);

  behavior::write_checkpoint_stop_reason(dir, "enospc",
                                         "spool: short write (disk full?)");
  behavior::CheckpointStatus status = behavior::read_checkpoint_status(dir);
  EXPECT_EQ(status.n_shards, 2u);
  EXPECT_EQ(status.shards_done, 2u);
  EXPECT_TRUE(status.complete);
  EXPECT_EQ(status.stop_reason, "enospc");
  EXPECT_EQ(status.stop_detail, "spool: short write (disk full?)");

  // Resuming a stopped run means the operator fixed the cause; a stale
  // stop must not spook the next runwatch/supervise.
  durability.resume = true;
  behavior::simulate_to_spools(model, config, 2, 1, durability);
  status = behavior::read_checkpoint_status(dir);
  EXPECT_TRUE(status.complete);
  EXPECT_TRUE(status.stop_reason.empty());
  EXPECT_TRUE(status.stop_detail.empty());
  fs::remove_all(dir);
}

// A manifest that parses only partly must be refused, never read as a
// run with fewer shards or fewer finished ones.
void expect_manifest_refused(const std::string& name, const std::string& body) {
  const std::string dir = fresh_dir("manifest_" + name);
  fs::create_directories(dir);
  {
    std::ofstream out(dir + "/MANIFEST", std::ios::trunc);
    out << "p2pgen-checkpoint v1\n" << body;
  }
  EXPECT_THROW(behavior::read_checkpoint_status(dir), std::runtime_error)
      << body;
  fs::remove_all(dir);
}

TEST(CheckpointManifest, WellFormedManifestReads) {
  const std::string dir = fresh_dir("manifest_ok");
  fs::create_directories(dir);
  {
    std::ofstream out(dir + "/MANIFEST", std::ios::trunc);
    out << "p2pgen-checkpoint v1\nidentity 42\nshards 3\ndone 0\ndone 2\n";
  }
  const behavior::CheckpointStatus status =
      behavior::read_checkpoint_status(dir);
  EXPECT_EQ(status.n_shards, 3u);
  EXPECT_EQ(status.shards_done, 2u);
  EXPECT_FALSE(status.complete);
  fs::remove_all(dir);
}

TEST(CheckpointManifest, NonNumericIdentityIsRefused) {
  expect_manifest_refused("identity_nan", "identity abc\nshards 2\ndone 0\n");
}

TEST(CheckpointManifest, NonNumericShardsIsRefused) {
  expect_manifest_refused("shards_nan", "identity 42\nshards two\ndone 0\n");
}

TEST(CheckpointManifest, MissingIdentityLineIsRefused) {
  expect_manifest_refused("no_identity", "shards 2\ndone 0\n");
}

TEST(CheckpointManifest, MissingShardsLineIsRefused) {
  expect_manifest_refused("no_shards", "identity 42\n");
}

TEST(CheckpointManifest, DoneIndexOutOfRangeIsRefused) {
  expect_manifest_refused("done_range", "identity 42\nshards 2\ndone 2\n");
}

TEST(CheckpointSalvage, CleanCheckpointSalvageResumeIsBitIdenticalToStrict) {
  const auto model = core::WorkloadModel::paper_default();
  const auto config = tiny_fault_config();
  const std::string dir = fresh_dir("salvage_clean");
  behavior::DurabilityConfig durability;
  durability.dir = dir;
  const trace::Trace first = durable_run(model, config, 3, 2, durability);

  durability.resume = true;
  for (const unsigned threads : {1u, 2u, 8u}) {
    behavior::DurabilityConfig salvage = durability;
    salvage.salvage = true;
    behavior::RecoverySummary summary;
    behavior::simulate_to_spools(model, config, 3, threads, salvage, &summary);
    trace::SalvageReport report;
    const trace::Trace salvaged = salvage_checkpoint(dir, 3, &report);
    EXPECT_EQ(serialize(behavior::load_checkpoint(dir)), serialize(first))
        << threads << " threads";
    EXPECT_EQ(serialize(salvaged), serialize(first)) << threads << " threads";
    EXPECT_FALSE(report.damaged());
    EXPECT_EQ(report.frames_lost, 0u);
    EXPECT_EQ(summary.spools_reset, 0u);
    EXPECT_EQ(summary.sidecars_rebuilt, 0u);
  }
  fs::remove_all(dir);
}

TEST(CheckpointSalvage, DamagedDoneSpoolLosesOnlyTheDamagedFrame) {
  const auto model = core::WorkloadModel::paper_default();
  const auto config = tiny_fault_config();
  const std::string dir = fresh_dir("salvage_done");
  behavior::DurabilityConfig durability;
  durability.dir = dir;
  const trace::Trace first = durable_run(model, config, 2, 2, durability);

  // One corrupted payload byte in an interior frame of shard 1's spool.
  const std::string shard1 = behavior::checkpoint_shard_dirs(dir, 2)[1];
  const std::string segment = trace::spool_segment_paths(shard1).front();
  std::uint64_t frame_size = 0;
  const std::uint64_t offset = nth_frame_offset(segment, 10, &frame_size);
  flip_byte(segment, offset + 12, 0x20);

  // A strict read refuses: a completed shard's spool must never tear.
  durability.resume = true;
  EXPECT_THROW(durable_run(model, config, 2, 2, durability),
               std::runtime_error);

  // A salvage resume leaves the done shard alone, and its salvage read
  // loses exactly that frame's record, the loss quarantined and tagged
  // with its shard and sim-time gap window.
  durability.salvage = true;
  behavior::RecoverySummary summary;
  behavior::simulate_to_spools(model, config, 2, 2, durability, &summary);
  EXPECT_EQ(summary.shards_completed_prior, 2u);
  trace::SalvageReport report;
  const trace::Trace salvaged = salvage_checkpoint(dir, 2, &report);
  EXPECT_EQ(salvaged.size(), first.size() - 1);
  EXPECT_TRUE(report.damaged());
  EXPECT_EQ(report.frames_lost, 1u);
  ASSERT_EQ(report.ranges.size(), 1u);
  const trace::SalvageRange& range = report.ranges[0];
  EXPECT_EQ(range.shard, 1u);
  EXPECT_EQ(range.byte_begin, offset);
  EXPECT_EQ(range.byte_end, offset + frame_size);
  EXPECT_LE(range.time_before, range.time_after);

  // The same damage salvages identically after a second resume.
  behavior::simulate_to_spools(model, config, 2, 2, durability);
  trace::SalvageReport again;
  EXPECT_EQ(serialize(salvage_checkpoint(dir, 2, &again)), serialize(salvaged));
  EXPECT_EQ(again.frames_lost, 1u);
  fs::remove_all(dir);
}

TEST(CheckpointSalvage, DamagedUnfinishedSpoolIsTruncatedAndResimulated) {
  const auto model = core::WorkloadModel::paper_default();
  const auto config = tiny_fault_config();
  const std::string dir = fresh_dir("salvage_unfinished");
  behavior::DurabilityConfig durability;
  durability.dir = dir;
  durability.segment_max_records = 512;  // several segments per shard
  const trace::Trace first = durable_run(model, config, 2, 2, durability);

  // Rewrite the MANIFEST with shard 1 no longer done (as if the run was
  // killed mid-shard), then damage an interior segment of its spool.
  const std::string manifest_path = dir + "/MANIFEST";
  {
    std::ifstream in(manifest_path);
    std::ostringstream kept;
    std::string line;
    while (std::getline(in, line)) {
      if (line != "done 1") kept << line << "\n";
    }
    std::ofstream out(manifest_path, std::ios::trunc);
    out << kept.str();
  }
  const std::string shard1 = behavior::checkpoint_shard_dirs(dir, 2)[1];
  const std::vector<std::string> segments = trace::spool_segment_paths(shard1);
  ASSERT_GT(segments.size(), 2u);
  flip_byte(segments[0], trace::kSpoolHeaderBytes + 100, 0x11);

  // Strict resume refuses the interior damage outright.
  durability.resume = true;
  EXPECT_THROW(behavior::simulate_to_spools(model, config, 2, 2, durability),
               std::runtime_error);

  // Salvage resume truncates the unfinished spool to its clean prefix
  // and re-simulates: byte-identical output, ZERO loss — the strict
  // reader accepts the result.
  durability.salvage = true;
  behavior::RecoverySummary summary;
  const trace::Trace resumed =
      durable_run(model, config, 2, 2, durability, &summary);
  EXPECT_EQ(serialize(resumed), serialize(first));
  EXPECT_EQ(summary.spools_reset, 1u);
  EXPECT_GT(summary.bytes_truncated, 0u);
  EXPECT_GT(summary.events_replayed, 0u);
  fs::remove_all(dir);
}

#if defined(__unix__)
TEST(CheckpointSalvage, WriteErrorCheckpointsAndStopsCleanly) {
  if (::geteuid() == 0) {
    GTEST_SKIP() << "running as root: permission bits are not enforced";
  }
  const auto model = core::WorkloadModel::paper_default();
  const auto config = tiny_fault_config();
  const trace::Trace plain =
      behavior::simulate_trace_sharded(model, config, 2, 2);

  // Shard 1's spool directory is unwritable: the first append fails the
  // way a full or failing volume would, and the run must checkpoint and
  // stop cleanly with the reason in the MANIFEST.
  const std::string dir = fresh_dir("cleanstop");
  const std::string shard1 = behavior::checkpoint_shard_dirs(dir, 2)[1];
  fs::create_directories(shard1);
  fs::permissions(shard1, fs::perms::owner_read | fs::perms::owner_exec,
                  fs::perm_options::replace);

  behavior::DurabilityConfig durability;
  durability.dir = dir;
  try {
    behavior::simulate_to_spools(model, config, 2, 2, durability);
    FAIL() << "expected CheckpointStopped";
  } catch (const behavior::CheckpointStopped& stopped) {
    EXPECT_EQ(stopped.reason(), "io-error");
  }
  behavior::CheckpointStatus status = behavior::read_checkpoint_status(dir);
  EXPECT_EQ(status.stop_reason, "io-error");
  EXPECT_FALSE(status.stop_detail.empty());
  EXPECT_FALSE(status.complete);

  // "Free disk space" and resume: the run completes byte-identically and
  // the stale stop reason is cleared.
  fs::permissions(shard1, fs::perms::owner_all, fs::perm_options::replace);
  durability.resume = true;
  const trace::Trace resumed = durable_run(model, config, 2, 2, durability);
  EXPECT_EQ(serialize(resumed), serialize(plain));
  status = behavior::read_checkpoint_status(dir);
  EXPECT_TRUE(status.complete);
  EXPECT_TRUE(status.stop_reason.empty());
  fs::remove_all(dir);
}
#endif  // defined(__unix__)

}  // namespace
}  // namespace p2pgen
