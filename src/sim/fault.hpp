// p2pgen — deterministic fault injection for the overlay transport.
//
// The real Gnutella overlay delivered crashed peers, half-open
// connections, lost descriptors and malformed wire data daily; the
// paper's measurement methodology (idle probe, TCP teardown session
// boundaries) exists precisely to cope with them.  This layer recreates
// that hostile network inside the simulator so the measurement node's
// failure-handling paths are exercised for real:
//
//   * message loss         — a descriptor silently vanishes in flight;
//   * byte corruption      — the descriptor's wire form is delivered with
//                            flipped bytes, so the receiver's codec must
//                            take the DecodeError path;
//   * duplication          — a descriptor is delivered twice;
//   * latency jitter       — per-message extra delay, which reorders
//                            descriptors across connections (within one
//                            connection the transport keeps TCP's FIFO
//                            order: the stream is delayed, never shuffled);
//   * abrupt node crash    — a peer dies silently: no close event, no
//                            further sends; only the idle-probe rule can
//                            detect it (~30 s late, paper Section 3.2);
//   * half-open connection — one direction of a link silently dies while
//                            the other keeps working.
//
// All randomness flows through a dedicated stats::Rng stream, so a run
// with faults is exactly reproducible from its seed, and a FaultConfig
// with every probability at zero draws nothing at all — the simulation is
// then byte-identical to one without a fault layer installed.
#pragma once

#include <cstdint>
#include <vector>

#include "stats/rng.hpp"

namespace p2pgen::sim {

/// Fault probabilities and rates.  Everything defaults to "off".
struct FaultConfig {
  double loss_prob = 0.0;       ///< P[a descriptor in flight is dropped].
  double corrupt_prob = 0.0;    ///< P[a descriptor's wire bytes are flipped].
  double duplicate_prob = 0.0;  ///< P[a descriptor is delivered twice].
  double jitter_seconds = 0.0;  ///< extra uniform [0, jitter) delay per message.
  double crash_rate = 0.0;      ///< per-second hazard of an abrupt peer crash.
  double half_open_prob = 0.0;  ///< P[a connection goes half-open at some point].
  double half_open_after_mean = 120.0;  ///< mean seconds until the direction dies.

  /// True when any fault can actually fire.
  bool enabled() const noexcept {
    return loss_prob > 0.0 || corrupt_prob > 0.0 || duplicate_prob > 0.0 ||
           jitter_seconds > 0.0 || crash_rate > 0.0 || half_open_prob > 0.0;
  }
};

/// Order-sensitive FNV-1a hash over the exact bit patterns of every
/// FaultConfig field.  Used in cache keys (bench_common) so traces
/// simulated under different fault configurations are never mistaken for
/// one another: any change to any field — including adding new fields to
/// the hash — changes the digest.
std::uint64_t fault_config_digest(const FaultConfig& config) noexcept;

/// What the fault layer did during a run.
struct FaultCounters {
  std::uint64_t messages_lost = 0;        ///< dropped by injected loss
  std::uint64_t messages_corrupted = 0;   ///< delivered with flipped bytes
  std::uint64_t messages_duplicated = 0;  ///< extra copies delivered
  std::uint64_t messages_delayed = 0;     ///< nonzero jitter applied
  std::uint64_t node_crashes = 0;         ///< peers killed abruptly
  std::uint64_t half_open_links = 0;      ///< directions silently killed
  std::uint64_t sends_into_dead_link = 0; ///< sends swallowed by crash/half-open
};

/// Per-connection fault schedule, sampled once at connect time.
struct LinkFaultPlan {
  double crash_at = -1.0;      ///< absolute sim time of the crash; < 0: never
  double half_open_at = -1.0;  ///< absolute sim time the link half-opens; < 0: never
  bool half_open_from_a = true;  ///< which direction dies (a->b when true)
};

/// Decision oracle consulted by the Network on every connect and send.
/// Owns the fault RNG stream and the counters.  Pure policy: it schedules
/// nothing itself, so the Network stays the single owner of event timing.
class FaultInjector {
 public:
  FaultInjector(FaultConfig config, std::uint64_t seed)
      : config_(config), rng_(seed) {}

  const FaultConfig& config() const noexcept { return config_; }
  bool enabled() const noexcept { return config_.enabled(); }

  /// Swaps the active fault regime (the scenario layer's piecewise fault
  /// schedules).  The RNG stream and counters carry over: a regime switch
  /// changes which probabilities future draws use, never the stream
  /// itself, so scheduled runs stay deterministic.
  void set_config(const FaultConfig& config) noexcept { config_ = config; }

  /// Per-message decisions.  Each draws from the fault stream only when
  /// the corresponding probability is nonzero, so an all-zero config
  /// consumes no randomness.
  bool drop_message() {
    return config_.loss_prob > 0.0 && rng_.bernoulli(config_.loss_prob);
  }
  bool corrupt_message() {
    return config_.corrupt_prob > 0.0 && rng_.bernoulli(config_.corrupt_prob);
  }
  bool duplicate_message() {
    return config_.duplicate_prob > 0.0 &&
           rng_.bernoulli(config_.duplicate_prob);
  }
  /// Extra delay in [0, jitter_seconds).
  double jitter() {
    return config_.jitter_seconds > 0.0
               ? rng_.uniform(0.0, config_.jitter_seconds)
               : 0.0;
  }

  /// Samples the per-connection fault schedule.
  LinkFaultPlan plan_link(double now);

  /// Flips 1..4 bytes of `wire` in place (wire must be non-empty).
  void corrupt_bytes(std::vector<std::uint8_t>& wire);

  FaultCounters& counters() noexcept { return counters_; }
  const FaultCounters& counters() const noexcept { return counters_; }

 private:
  FaultConfig config_;
  stats::Rng rng_;
  FaultCounters counters_;
};

}  // namespace p2pgen::sim
