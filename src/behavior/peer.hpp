// p2pgen — a simulated one-hop peer.
//
// Executes a PeerPlan against the measurement node: performs the 0.6
// handshake, plays the planned sends, generates the lazily-chained
// keep-alive and (for ultrapeers) remote-traffic streams, answers PINGs
// while alive, and ends the session in its planned mode — BYE, transport
// teardown, or simply going silent so the measurement node's idle probe
// has to reap it (the paper's ~30 s duration overestimate).
#pragma once

#include <functional>
#include <unordered_set>
#include <vector>

#include "behavior/peer_plan.hpp"
#include "sim/network.hpp"

namespace p2pgen::behavior {

class SimulatedPeer final : public sim::Node {
 public:
  /// `on_done(node_id)` fires once the connection has fully closed; the
  /// owner may destroy the peer from (a deferred event after) it.
  SimulatedPeer(sim::Network& network, PeerPlanner& planner, PeerPlan plan,
                std::string user_agent, bool ultrapeer, double ping_interval,
                stats::Rng rng, std::function<void(sim::NodeId)> on_done);

  /// Registers with the network at `ip` and dials the measurement node.
  void start(sim::NodeId measurement_node, std::uint32_t ip);

  sim::NodeId id() const noexcept { return id_; }
  bool ultrapeer() const noexcept { return ultrapeer_; }
  bool established() const noexcept { return established_; }
  bool closed() const noexcept { return closed_; }

  // sim::Node interface.
  void on_connection_open(sim::ConnId conn, sim::NodeId peer) override;
  void on_connection_closed(sim::ConnId conn) override;
  void on_handshake(sim::ConnId conn, const gnutella::Handshake& handshake) override;
  void on_message(sim::ConnId conn, const gnutella::Message& message) override;
  /// Fault injection killed this peer: it dies where it stands — no BYE,
  /// no teardown, no further sends; the measurement node's idle probe is
  /// the only thing that will notice.
  void on_crashed() override;

 private:
  /// Event-slot indices: each self-rechaining stream owns one slot so the
  /// set of pending events stays O(1) per peer.
  enum Slot : std::size_t {
    kSlotPlan = 0,
    kSlotPing,
    kSlotBgQuery,
    kSlotBgPing,
    kSlotBgPong,
    kSlotBgHit,
    kSlotEnd,
    kSlotCount,
  };

  void begin_session();
  void schedule_planned_send(std::size_t index);
  void schedule_ping_chain(double delay);
  void schedule_background_chain(Slot slot);
  double background_rate(Slot slot) const;
  void end_session();
  bool alive() const noexcept { return established_ && !silent_ && !closed_; }
  void cancel_all();

  /// Content model: the peer shares files matching exactly the canonical
  /// keyword sets sampled into plan_.shared_keywords (replication is
  /// popularity-proportional by construction).
  bool owns_content(const std::string& keywords);

  /// Sends the QRP table summarizing shared_keywords (leaf mode only).
  void send_route_table();

  sim::Network& network_;
  PeerPlanner& planner_;
  PeerPlan plan_;
  std::string user_agent_;
  bool ultrapeer_;
  double ping_interval_;
  stats::Rng rng_;
  std::function<void(sim::NodeId)> on_done_;

  sim::NodeId id_ = 0;
  std::uint32_t ip_ = 0;
  std::unordered_set<std::string> shared_canonical_;  // see owns_content
  bool shared_built_ = false;
  sim::ConnId conn_ = 0;
  bool established_ = false;
  bool silent_ = false;
  bool closed_ = false;
  double established_at_ = 0.0;
  std::array<std::uint64_t, kSlotCount> slots_{};
};

}  // namespace p2pgen::behavior
