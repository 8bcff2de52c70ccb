// p2pgen — the measurement ultrapeer (paper Section 3).
//
// A faithful re-implementation of the paper's modified mutella client:
// an ultrapeer accepting up to 200 simultaneous connections, performing
// the 0.6 handshake (recording the peer's User-Agent), time-stamping
// every received descriptor into a TraceSink, answering PINGs, running
// the GUID routing table for duplicate suppression / reverse routing,
// optionally forwarding queries to other ultrapeer neighbors, and
// detecting silent peers with the 15 s idle + 15 s probe rule — which
// overestimates silent session ends by ~30 s, exactly as the paper notes.
//
// The node is hardened against the hostile-overlay faults the real
// mutella faced (sim/fault.hpp): corrupted wire data is run through a
// per-connection stream assembler and a DecodeError tears down just that
// connection (recorded as EndReason::kError), crashed peers are reaped by
// the idle probe, and forward-fanout passes that come up short retry with
// bounded exponential backoff.
#pragma once

#include <array>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "gnutella/codec.hpp"
#include "gnutella/qrp.hpp"
#include "gnutella/routing.hpp"
#include "sim/network.hpp"
#include "trace/trace.hpp"

namespace p2pgen::obs {
class QueryTracer;
class TimelineRecorder;
}  // namespace p2pgen::obs

namespace p2pgen::behavior {

class MeasurementNode final : public sim::Node {
 public:
  struct Config {
    std::size_t max_connections = 200;
    double idle_threshold = 15.0;  // seconds of silence before probing
    double probe_timeout = 15.0;   // seconds to wait for the probe answer
    std::string user_agent = "mutella-0.4.5";
    std::uint32_t ip = 0;
    std::uint32_t shared_files = 0;  // passive node shares nothing
    /// If > 0, received first-seen queries are forwarded to up to this
    /// many other established ultrapeer connections (TTL permitting).
    int forward_fanout = 0;
    /// When a forward pass reaches fewer than forward_fanout neighbors
    /// (connections lost under it), retry the remainder up to this many
    /// times with exponential backoff.  0 disables retries (and keeps
    /// runs byte-identical to the pre-fault-layer behavior).
    int forward_retry_max = 0;
    /// First retry delay, seconds; doubles on each further attempt.
    double forward_retry_base = 2.0;
    /// Cap on the forward-retry backoff delay, seconds; <= 0 keeps the
    /// delay uncapped (the pre-unification behavior, byte-identical).
    /// All node backoff paths share util::backoff_delay.
    double forward_retry_max_delay = 0.0;

    // Neighbor-churn self-healing --------------------------------------
    //
    // The paper's ultrapeer held ~200 neighbors for 40 days because the
    // live overlay kept offering replacements; under injected crash
    // faults a passive node's neighbor set just decays.  With replenish
    // on, every session death below the target asks the simulation
    // driver (via the replenish hook) to bring up a replacement peer,
    // paced by capped exponential backoff.  Off by default: runs without
    // it are byte-identical to the pre-recovery-layer behavior.
    bool replenish = false;
    /// Neighbor count the node heals toward; 0 means max_connections.
    std::size_t replenish_target = 0;
    /// First reconnect delay, seconds; doubles per consecutive attempt
    /// while the node stays below target, capped at replenish_backoff_max.
    double replenish_backoff_base = 1.0;
    double replenish_backoff_max = 64.0;

    // Graceful degradation under overload (scenario layer) -------------
    //
    // A real ultrapeer in a flash crowd does not fall over: it bounds
    // admission work and sheds excess query load before the load sheds
    // it.  Both knobs are off by default, and a disabled run is
    // byte-identical to the pre-degradation behavior.

    /// Cap on handshakes accepted but not yet established.  A connect
    /// request beyond the cap is refused 503 like a capacity refusal and
    /// counted in shed_connections.  0: unbounded (off).
    std::size_t max_pending_handshakes = 0;

    /// Token-bucket admission rate for received queries, queries/second.
    /// Queries beyond the budget are shed: not recorded, not routed, not
    /// forwarded (the overloaded client drops the descriptor before
    /// spending any work on it), counted in shed_queries.  0: off.
    double query_shed_rate = 0.0;

    /// Token-bucket burst capacity, queries.  0 means one second's worth
    /// of tokens (query_shed_rate).
    double query_shed_burst = 0.0;
  };

  /// Brings up one replacement neighbor (installed by the simulation
  /// driver, which owns peer creation).
  using ReplenishHook = std::function<void()>;

  MeasurementNode(sim::Network& network, trace::TraceSink& sink, Config config,
                  std::uint64_t seed);

  /// Registers with the network; must be called exactly once before use.
  sim::NodeId attach();

  sim::NodeId id() const noexcept { return id_; }

  /// Number of currently established sessions.
  std::size_t active_sessions() const noexcept { return sessions_.size(); }

  /// Connections refused because the node was at capacity.
  std::uint64_t rejected_connections() const noexcept { return rejected_; }

  /// Messages whose GUID was already in the routing table.
  std::uint64_t duplicate_messages() const noexcept { return duplicates_; }

  /// Messages forwarded to neighbors (only when forward_fanout > 0).
  std::uint64_t forwarded_messages() const noexcept { return forwarded_; }

  /// Leaf forwards suppressed by a QRP miss.
  std::uint64_t qrp_suppressed() const noexcept { return qrp_suppressed_; }

  // Robustness counters (the RobustnessReport rows) ----------------------

  /// Malformed descriptors that fired the codec's DecodeError path; each
  /// one tears down its connection (EndReason::kError).
  std::uint64_t decode_errors() const noexcept { return decode_errors_; }

  /// Cumulative cleanly-decoded bytes received on connections that later
  /// hit a DecodeError — how far into each stream corruption struck.
  std::uint64_t clean_bytes_before_error() const noexcept {
    return clean_bytes_before_error_;
  }

  /// Sessions reaped by the idle+probe rule (silent peers and crashes —
  /// the transport gives the node no way to tell them apart).
  std::uint64_t probe_closed_sessions() const noexcept {
    return probe_closed_sessions_;
  }

  /// Backoff retries scheduled because a forward pass came up short.
  std::uint64_t forward_retries() const noexcept { return forward_retries_; }

  /// Forwards still short of the fanout after the last allowed retry.
  std::uint64_t forward_retries_exhausted() const noexcept {
    return forward_retries_exhausted_;
  }

  // Graceful-degradation counters (per shed reason) ----------------------

  /// Connect requests refused because the pending-handshake cap was hit
  /// (admission control; capacity refusals stay in rejected_connections).
  std::uint64_t shed_connections() const noexcept { return shed_connections_; }

  /// Queries dropped by the overload token bucket.
  std::uint64_t shed_queries() const noexcept { return shed_queries_; }

  /// Descriptors recorded to the sink (every received message, duplicates
  /// included — mirrors what the trace itself contains).
  std::uint64_t messages_recorded() const noexcept {
    return messages_recorded_;
  }

  /// SessionEnd events emitted, indexed by trace::EndReason's value —
  /// the session-teardown histogram (kBye, kIdleProbe, kTeardown, kError).
  const std::array<std::uint64_t, 4>& session_ends() const noexcept {
    return session_ends_;
  }

  // Self-healing ---------------------------------------------------------

  /// Installs the reconnect hook; replenish stays inert without one.
  void set_replenish_hook(ReplenishHook hook) {
    replenish_hook_ = std::move(hook);
  }

  /// Installs a query-lifecycle tracer (non-owning, nullable; DESIGN.md
  /// §12).  Strictly observational — the node's decisions are identical
  /// with or without one.
  void set_query_tracer(obs::QueryTracer* tracer) noexcept {
    qtracer_ = tracer;
  }

  /// Installs a sim-time timeline recorder (non-owning, nullable;
  /// DESIGN.md §13).  The node counts its degradation sheds and
  /// duplicate drops into the tick containing each event; strictly
  /// observational like the tracer.
  void set_timeline(obs::TimelineRecorder* timeline) noexcept {
    timeline_ = timeline;
  }

  /// Session deaths that requested replenishment (node below target),
  /// indexed by the trace::EndReason that killed the session.
  const std::array<std::uint64_t, 4>& replenish_by_reason() const noexcept {
    return replenish_by_reason_;
  }

  /// Backoff timers armed by session deaths.
  std::uint64_t replenish_scheduled() const noexcept {
    return replenish_scheduled_;
  }

  /// Replacement neighbors actually requested through the hook.
  std::uint64_t replenish_spawns() const noexcept { return replenish_spawns_; }

  // sim::Node interface.
  void on_connection_open(sim::ConnId conn, sim::NodeId peer) override;
  void on_connection_closed(sim::ConnId conn) override;
  void on_handshake(sim::ConnId conn, const gnutella::Handshake& handshake) override;
  void on_message(sim::ConnId conn, const gnutella::Message& message) override;
  void on_wire(sim::ConnId conn, const std::vector<std::uint8_t>& bytes) override;

 private:
  struct PendingConn {
    sim::NodeId peer = 0;
    std::string user_agent;
    bool ultrapeer = false;
    bool accepted = false;
  };

  struct Session {
    std::uint64_t session_id = 0;
    sim::NodeId peer = 0;
    bool ultrapeer = false;
    bool bye_seen = false;
    double last_activity = 0.0;
    bool probe_outstanding = false;
    std::uint64_t watchdog_event = 0;
    /// The leaf's QRP table, once received: queries are forwarded to this
    /// leaf only if every keyword hits the table (Section 3.1).
    std::optional<gnutella::QrpTable> qrp;
    /// Reassembles raw wire data the fault layer delivers; its
    /// DecodeError is this connection's abnormal-close trigger.
    gnutella::MessageAssembler assembler;
  };

  void establish(sim::ConnId conn, PendingConn pending);
  void note_session_end(trace::EndReason reason);
  /// Refuses a connect request with 503 Busy (capacity or admission cap).
  void refuse_connection(sim::ConnId conn);
  /// Takes one token from the query admission bucket; false = shed.
  bool admit_query(double now);
  std::size_t replenish_target() const noexcept {
    return config_.replenish_target != 0 ? config_.replenish_target
                                         : config_.max_connections;
  }
  void replenish_fire();
  void record_message(std::uint64_t session_id, const gnutella::Message& message);
  void handle_message(sim::ConnId conn, Session& session,
                      const gnutella::Message& message);
  void drop_connection_on_error(sim::ConnId conn);
  void note_activity(Session& session);
  void arm_watchdog(sim::ConnId conn, double at);
  void watchdog_fire(sim::ConnId conn);
  void forward_query(sim::ConnId from, const gnutella::Message& message);
  /// One forwarding pass; `used` holds the neighbors the query already
  /// went to and gains the ones this pass reaches.
  void forward_attempt(sim::ConnId from, const gnutella::Message& message,
                       std::vector<sim::ConnId>& used, int attempt);

  sim::Network& network_;
  trace::TraceSink& sink_;
  Config config_;
  stats::Rng rng_;
  gnutella::RoutingTable routing_;
  obs::QueryTracer* qtracer_ = nullptr;
  obs::TimelineRecorder* timeline_ = nullptr;

  sim::NodeId id_ = 0;
  bool attached_ = false;
  std::uint64_t next_session_id_ = 1;
  std::unordered_map<sim::ConnId, PendingConn> pending_;
  std::unordered_map<sim::ConnId, Session> sessions_;
  std::size_t accepted_pending_ = 0;  // accepted handshakes not yet established
  std::uint64_t rejected_ = 0;
  std::uint64_t duplicates_ = 0;
  std::uint64_t forwarded_ = 0;
  std::uint64_t qrp_suppressed_ = 0;
  std::uint64_t decode_errors_ = 0;
  std::uint64_t clean_bytes_before_error_ = 0;
  std::uint64_t probe_closed_sessions_ = 0;
  std::uint64_t forward_retries_ = 0;
  std::uint64_t forward_retries_exhausted_ = 0;
  /// Scratch reused by every forwarded query: the first pass's used
  /// neighbors and the query's QRP keyword hashes.
  std::vector<sim::ConnId> forward_used_;
  std::vector<std::uint32_t> query_hashes_;
  std::uint64_t shed_connections_ = 0;
  std::uint64_t shed_queries_ = 0;
  // Query admission token bucket (lazy refill from sim time).
  double shed_tokens_ = 0.0;
  double shed_refill_at_ = 0.0;
  bool shed_primed_ = false;
  std::uint64_t messages_recorded_ = 0;
  std::array<std::uint64_t, 4> session_ends_{};

  ReplenishHook replenish_hook_;
  std::uint64_t replenish_event_ = 0;  // pending backoff timer (0: none)
  int replenish_attempt_ = 0;          // consecutive fires below target
  std::array<std::uint64_t, 4> replenish_by_reason_{};
  std::uint64_t replenish_scheduled_ = 0;
  std::uint64_t replenish_spawns_ = 0;
};

}  // namespace p2pgen::behavior
