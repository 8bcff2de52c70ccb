// p2pgen — the shard sidecar: everything one shard knows besides its
// trace — its counter block, query-lifecycle hops and timeline ticks — in
// one CRC-checked file (DESIGN.md §14).
//
// The checkpoint producer (behavior/checkpoint) writes one per finished
// shard next to its spool, so a resume can publish the shard's counters,
// qtrace and timeline without simulating it again; the measurement
// pipeline's --query-trace dump writes one holding only the merged hops.
// The file records the sampling rate and tick it was made at, so a reader
// can tell a sidecar of other settings from a current one.
//
// Wire format, all little-endian:
//
//   "p2sc" | u32 version | u64 qtrace rate bits | u64 timeline tick bits |
//   u32 series count | u32 counter count | u64 hop count |
//   u64 point count | u64 events | counter count * u64 |
//   hop count * kQueryHopRecordBytes | point count *
//   kTimelinePointRecordBytes | u32 CRC-32 of every byte after the magic
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "obs/qtrace.hpp"
#include "obs/timeline.hpp"

namespace p2pgen::obs {

/// One shard's counters and observational streams, and the settings the
/// streams were recorded at.  A stream that was off has setting 0 and no
/// records.
struct Sidecar {
  double qtrace_rate = 0.0;
  double timeline_tick = 0.0;
  /// Trace records the shard emitted (0 in a file that is not a shard's).
  std::uint64_t events = 0;
  /// The shard's counters, in behavior::for_each_counter order.
  std::vector<std::uint64_t> counters;
  std::vector<QueryHopEvent> qtrace;
  std::vector<TimelinePoint> timeline;
};

/// Writes `sidecar` to `path` through util::write_file_durably (tmp,
/// fsync, rename, directory fsync).  Throws std::runtime_error on a write
/// failure.
void save_sidecar(const std::string& path, const Sidecar& sidecar);

/// Reads the sidecar at `path`; nullopt when there is no such file.
/// Throws std::runtime_error on a damaged or older one: a bad magic,
/// version or series count, counts that do not match the file size
/// (checked before any record is allocated), a CRC mismatch or an
/// unknown hop kind.
std::optional<Sidecar> load_sidecar(const std::string& path);

}  // namespace p2pgen::obs
