// p2pgen — deterministic checkpoint / resume for sharded simulations.
//
// The simulator's event queue holds arbitrary closures, so a literal
// state snapshot is impossible.  Durability instead comes from the
// determinism contract (sharded_simulation.hpp): every shard is a pure
// function of (model, config, shard_index), so the durable trace spool
// (trace/spool.hpp) acts as a redo log.  Each shard streams its events
// into an fsync'd per-shard spool; a MANIFEST records the run identity,
// which shards finished and how many records each finished spool holds
// (a done spool that reads back shorter is refused, not analysed).
// After a crash — SIGKILL included — resume
//
//   * leaves finished shards alone (no re-simulation, no re-read: the
//     analysis validates their spools against the MANIFEST counts),
//   * re-simulates unfinished shards from scratch, digest-verifying the
//     replayed prefix against the durable prefix recovered from the
//     spool, then appending beyond it,
//
// and the checkpoint's spools are byte-identical to an uninterrupted
// run's, at any thread count.  A torn spool tail (the unsynced final
// frame) is truncated by the recovery scan; at most that one record is
// re-written by replay, never lost.
//
// The spools hold the trace and nothing else: a finished shard's
// counters, sampled query hops and timeline ticks live in its sidecar,
// which only this module reads and writes.  The producer publishes the
// counters and returns the merged streams itself, so a resume reports
// what the uninterrupted run reported and the analysis never sees a
// sidecar.
//
// simulate_to_spools() is the one producer; analysis::analyze_spools()
// is the one analysis of a checkpoint, and load_checkpoint() the small
// strict reader that materializes one for oracles and caches.
#pragma once

#include <string>
#include <vector>

#include "behavior/sharded_simulation.hpp"
#include "trace/spool.hpp"

namespace p2pgen::behavior {

/// File name of a shard's sidecar in its spool directory.
inline constexpr const char* kShardSidecarName = "sidecar.bin";

/// Where and how often the durable run persists state.
struct DurabilityConfig {
  /// Checkpoint directory; holds MANIFEST plus one spool directory per
  /// shard ("shard-NNNN/").  Created if missing.
  std::string dir;

  /// fsync the shard spool every this many appended records.  0 syncs
  /// only at shard completion (fastest, loses the whole unfinished shard
  /// on a crash — it is re-simulated, so nothing is wrong, just slower).
  std::uint64_t sync_interval_records = 65536;

  /// Records per spool segment before the writer rolls to a new file: an
  /// on-disk concern only.  The streaming analysis decodes in chunks of
  /// analysis::kDecodeChunkRecords whatever the segment size, and maps
  /// one segment per shard at a time.  Durable spools default to much
  /// smaller segments than the raw SpoolConfig: big enough to amortize
  /// the per-file cost, small enough that a multi-day shard spans many of
  /// them and a damaged file loses little.
  std::uint64_t segment_max_records = std::uint64_t{1} << 16;

  /// Require an existing, identity-matching MANIFEST (the --resume flag):
  /// resuming against a different model/config/shard-count is refused
  /// instead of silently producing a franken-trace.
  bool resume = false;

  /// Wall-clock run-health channel (DESIGN.md §13): when > 0, a
  /// background thread rewrites "<dir>/heartbeat.json" atomically every
  /// this many wall-seconds with per-shard sim-time progress, events/sec,
  /// current + peak RSS and an ETA — what tools/runwatch.py tails while a
  /// long run is going.  Wall-clock and therefore never deterministic;
  /// it shares the observational contract (0 = off = byte-identical).
  double heartbeat_interval_seconds = 0.0;

  /// Salvage mode (DESIGN.md §14): tolerate media damage with bounded,
  /// *accounted* loss instead of refusing to run.  A damaged spool of an
  /// unfinished shard is truncated to its clean prefix and re-simulated
  /// (no loss at all); a damaged spool of a *finished* shard is left for
  /// the analysis to read in salvage mode, where the lost frames and
  /// their sim-time gap windows are censored against.  With zero damage
  /// this path is bit-identical to the default strict one.
  bool salvage = false;
};

/// What recovery found and did, summed over shards.
struct RecoverySummary {
  std::uint64_t segments_scanned = 0;
  /// Valid records found in unfinished shards' spools (finished shards
  /// are not read).
  std::uint64_t records_recovered = 0;
  std::uint64_t records_truncated = 0;   ///< torn tail frames dropped
  std::uint64_t bytes_truncated = 0;
  std::uint64_t events_replayed = 0;     ///< prefix events re-simulated
  std::uint64_t checkpoints_written = 0; ///< durable sync points persisted
  std::uint64_t checkpoints_loaded = 0;  ///< shards with recovered state
  std::uint64_t shards_completed_prior = 0;  ///< finished before this run
  /// Done shards replayed because their sidecar was missing, damaged,
  /// older, at odds with the MANIFEST count or made at another qtrace
  /// rate or timeline tick.
  std::uint64_t sidecars_rebuilt = 0;
  std::uint64_t spools_reset = 0;  ///< damaged unfinished spools truncated
};

/// Thrown when the durable run checkpoints and stops *cleanly* instead
/// of crashing — disk full (ENOSPC) or another unrecoverable write error
/// on the redo log.  Everything written so far is durable, the MANIFEST
/// carries the machine-readable reason() ("enospc" / "io-error"), and a
/// later --resume continues exactly where the run stopped.
class CheckpointStopped : public std::runtime_error {
 public:
  CheckpointStopped(const std::string& what, std::string reason)
      : std::runtime_error(what), reason_(std::move(reason)) {}

  const std::string& reason() const noexcept { return reason_; }

 private:
  std::string reason_;
};

/// Machine-readable state of a checkpoint directory, as recorded in its
/// MANIFEST — what tools/runwatch.py and tools/supervise.py key off.
struct CheckpointStatus {
  unsigned n_shards = 0;
  unsigned shards_done = 0;
  bool complete = false;      ///< every shard marked done
  std::string stop_reason;    ///< "" unless the run stopped cleanly
  std::string stop_detail;    ///< human-readable failure site
};

/// Reads the MANIFEST under `dir`.  Throws std::runtime_error when there
/// is no checkpoint there or the manifest is malformed.
CheckpointStatus read_checkpoint_status(const std::string& dir);

/// Records a clean-stop reason in the MANIFEST (atomic rewrite).  The
/// durable runner calls this when it stops on a write error; exposed so
/// tests and tools can exercise the same path.  Resuming clears it.
void write_checkpoint_stop_reason(const std::string& dir,
                                  const std::string& reason,
                                  const std::string& detail);

/// Identity of a durable run: FNV-1a over the serialized model, every
/// simulation-config field that influences the trace, the fault-layer
/// digest and the shard count.  Two runs merge-compatibly iff equal.
std::uint64_t run_identity_digest(const core::WorkloadModel& model,
                                  const TraceSimulationConfig& config,
                                  unsigned n_shards);

/// True when `dir` holds a MANIFEST from a previous durable run.
bool checkpoint_exists(const std::string& dir);

/// The durable run: every shard's events end up in its fsync'd spool
/// under `durability.dir` and completed shards are recorded in the
/// MANIFEST with their record counts, so a killed run resumes instead of
/// restarting.  NO trace is materialized in memory — peak RSS stays
/// O(one shard's live simulation), not O(trace).  Shards already marked
/// done are not even re-read; their `stats` entry is the record their
/// sidecar keeps, with the MANIFEST record count in `events`, which the
/// caller hands to analysis::analyze_spools
/// (StreamingOptions::shard_records) so a done spool that reads back a
/// different count is refused.  Returns the
/// per-shard spool directories in shard order (what analyze_spools
/// expects).  Publishes "recovery.*" counters to the obs registry.
/// Throws std::runtime_error when `durability.resume` is set but no
/// checkpoint exists, or when the existing checkpoint's identity does not
/// match (model/config/shards), and CheckpointStopped on a clean stop.
///
/// The shards' summed counters and the merged qtrace and timeline are
/// published (publish_shards), and the streams returned through `qtrace`
/// / `timeline`, exactly as simulate_trace_sharded does, for any resume
/// history.  Each shard's counters, hops and ticks are written to its
/// sidecar (kShardSidecarName, obs/sidecar.hpp) before the MANIFEST marks
/// it done.  A done shard's sidecar is used only if it exists, passes its
/// CRC, is of this version, counts the MANIFEST's records and was made at
/// this run's setting of every stream that is on; otherwise the shard is
/// replayed and the sidecar rebuilt (RecoverySummary::sidecars_rebuilt).
/// A stream that is off is neither read nor published.
std::vector<std::string> simulate_to_spools(
    const core::WorkloadModel& model, const TraceSimulationConfig& base,
    unsigned n_shards, unsigned n_threads, const DurabilityConfig& durability,
    RecoverySummary* summary = nullptr,
    std::vector<ShardStats>* stats = nullptr,
    std::vector<obs::QueryHopEvent>* qtrace = nullptr,
    std::vector<obs::TimelinePoint>* timeline = nullptr);

/// Reads a complete checkpoint back as one merged trace — the same trace
/// simulate_trace_sharded returns for its run.  Simulates nothing.  Each
/// shard's spool is read strictly (read_spool); throws std::runtime_error
/// when a shard is not marked done, its spool has a torn tail, or it
/// holds a different number of records than its MANIFEST recorded, and
/// TraceIoError on interior damage.  The materialized oracle of a
/// checkpoint: tests, the bench trace cache and bench_streaming use it.
trace::Trace load_checkpoint(const std::string& dir);

/// Per-shard spool directories of a checkpoint ("<dir>/shard-NNNN"), in
/// shard order.  Pure path arithmetic; nothing is read.
std::vector<std::string> checkpoint_shard_dirs(const std::string& dir,
                                               unsigned n_shards);

}  // namespace p2pgen::behavior
