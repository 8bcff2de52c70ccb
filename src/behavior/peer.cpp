#include "behavior/peer.hpp"

#include <algorithm>
#include <utility>

#include "gnutella/qrp.hpp"

namespace p2pgen::behavior {

SimulatedPeer::SimulatedPeer(sim::Network& network, PeerPlanner& planner,
                             PeerPlan plan, std::string user_agent,
                             bool ultrapeer, double ping_interval,
                             stats::Rng rng,
                             std::function<void(sim::NodeId)> on_done)
    : network_(network),
      planner_(planner),
      plan_(std::move(plan)),
      user_agent_(std::move(user_agent)),
      ultrapeer_(ultrapeer),
      ping_interval_(ping_interval),
      rng_(rng),
      on_done_(std::move(on_done)) {}

void SimulatedPeer::start(sim::NodeId measurement_node, std::uint32_t ip) {
  id_ = network_.add_node(*this);
  ip_ = ip;
  network_.set_address(id_, ip);
  conn_ = network_.connect(id_, measurement_node);
}

void SimulatedPeer::on_connection_open(sim::ConnId conn, sim::NodeId /*peer*/) {
  // Step 1 of the 0.6 handshake.
  network_.send_handshake(conn, id_,
                          gnutella::Handshake::connect_request(user_agent_,
                                                               ultrapeer_));
}

void SimulatedPeer::on_handshake(sim::ConnId conn,
                                 const gnutella::Handshake& handshake) {
  if (handshake.is_connect_request) return;  // peers never accept inbound
  if (handshake.status_code != 200) return;  // rejected; await close
  if (established_) return;
  // Step 3: acknowledge, then the session is live.
  network_.send_handshake(conn, id_,
                          gnutella::Handshake::ok_response(user_agent_,
                                                           ultrapeer_));
  established_ = true;
  established_at_ = network_.simulator().now();
  begin_session();
}

void SimulatedPeer::begin_session() {
  // Section 3.1: leaves summarize their shared keywords for the ultrapeer
  // so it can forward queries only to leaves likely to respond.
  if (!ultrapeer_ && !plan_.shared_keywords.empty()) send_route_table();
  schedule_planned_send(0);
  if (ping_interval_ > 0.0) {
    schedule_ping_chain(ping_interval_ * rng_.uniform(0.8, 1.2));
  }
  if (ultrapeer_) {
    schedule_background_chain(kSlotBgQuery);
    schedule_background_chain(kSlotBgPing);
    schedule_background_chain(kSlotBgPong);
    schedule_background_chain(kSlotBgHit);
  }
  // The session-duration models describe durations as *measured* — and
  // the measurement node overestimates silent session ends by the idle
  // threshold + probe timeout (~30 s, paper Section 3.2).  A peer that
  // plans to vanish silently therefore goes quiet that much earlier, so
  // the probe-derived end lands at the nominal duration.
  constexpr double kSilentCloseLead = 30.0;
  double end_at = established_at_ + plan_.duration;
  if (plan_.end_mode == EndMode::kSilent) {
    end_at = std::max(established_at_ + 0.1, end_at - kSilentCloseLead);
  }
  slots_[kSlotEnd] = network_.simulator().schedule_at(end_at, [this] {
    slots_[kSlotEnd] = 0;
    end_session();
  });
}

void SimulatedPeer::schedule_planned_send(std::size_t index) {
  if (index >= plan_.sends.size()) {
    slots_[kSlotPlan] = 0;
    return;
  }
  const double at = established_at_ + plan_.sends[index].at;
  auto& sim = network_.simulator();
  slots_[kSlotPlan] = sim.schedule_at(std::max(at, sim.now()), [this, index] {
    if (!alive()) return;
    network_.send(conn_, id_, plan_.sends[index].message);
    schedule_planned_send(index + 1);
  });
}

void SimulatedPeer::schedule_ping_chain(double delay) {
  slots_[kSlotPing] = network_.simulator().schedule_after(delay, [this] {
    if (!alive()) return;
    gnutella::Message ping = gnutella::make_ping(rng_, 1);
    ping.hops = 1;
    network_.send(conn_, id_, std::move(ping));
    schedule_ping_chain(ping_interval_ * rng_.uniform(0.8, 1.2));
  });
}

double SimulatedPeer::background_rate(Slot slot) const {
  const auto& bg = planner_.background();
  return slot == kSlotBgQuery  ? bg.query_rate
         : slot == kSlotBgPing ? bg.ping_rate
         : slot == kSlotBgPong ? bg.pong_rate
                               : bg.queryhit_rate;
}

void SimulatedPeer::schedule_background_chain(Slot slot) {
  const double rate = background_rate(slot);
  if (!(rate > 0.0)) return;
  // The closure holds 16 bytes, so std::function stores it inline: a
  // rate captured too would put every background event on the heap.
  slots_[slot] = network_.simulator().schedule_after(
      rng_.exponential(rate), [this, slot] {
        if (!alive()) return;
        const double now = network_.simulator().now();
        gnutella::Message m =
            slot == kSlotBgQuery  ? planner_.remote_query(now, rng_)
            : slot == kSlotBgPing ? planner_.remote_ping(rng_)
            : slot == kSlotBgPong ? planner_.remote_pong(now, rng_)
                                  : planner_.remote_queryhit(now, rng_);
        network_.send(conn_, id_, std::move(m));
        schedule_background_chain(slot);
      });
}

void SimulatedPeer::end_session() {
  if (closed_ || !established_) return;
  switch (plan_.end_mode) {
    case EndMode::kBye:
      network_.send(conn_, id_, gnutella::make_bye(rng_, 200, "Shutting down"));
      network_.close(conn_);
      break;
    case EndMode::kTeardown:
      network_.close(conn_);
      break;
    case EndMode::kSilent:
      // Stop everything; the measurement node's idle probe will reap us.
      silent_ = true;
      cancel_all();
      break;
  }
}

bool SimulatedPeer::owns_content(const std::string& keywords) {
  if (!established_ || keywords.empty()) return false;
  // Built on the first forwarded query: most peers never receive one.
  if (!shared_built_) {
    for (const auto& shared : plan_.shared_keywords) {
      shared_canonical_.insert(gnutella::canonical_keywords(shared));
    }
    shared_built_ = true;
  }
  return shared_canonical_.count(gnutella::canonical_keywords(keywords)) > 0;
}

void SimulatedPeer::send_route_table() {
  gnutella::QrpTable table(12);
  for (const auto& keywords : plan_.shared_keywords) {
    table.insert_keywords_of(keywords);
  }
  network_.send(conn_, id_,
                gnutella::make_route_table_update(rng_, table.to_patch()));
}

void SimulatedPeer::on_message(sim::ConnId conn, const gnutella::Message& message) {
  if (closed_ || silent_) return;  // gone: even probes get no answer
  switch (message.type()) {
    case gnutella::MessageType::kPing: {
      gnutella::Message pong =
          gnutella::make_pong(message.guid, ip_, plan_.shared_files,
                              plan_.shared_files * 4096, 1);
      pong.hops = 1;
      network_.send(conn, id_, std::move(pong));
      break;
    }
    case gnutella::MessageType::kQuery: {
      // A query the measurement ultrapeer forwarded to us: respond with a
      // QUERYHIT when we share matching content (paper Section 3.1 —
      // exercised by the future-work hit-rate characterization).
      const auto& q = std::get<gnutella::QueryPayload>(message.payload);
      if (!q.has_sha1() && owns_content(q.keywords)) {
        std::vector<gnutella::QueryHitResult> results;
        results.push_back({static_cast<std::uint32_t>(rng_.uniform_index(1u << 20)),
                           static_cast<std::uint32_t>(rng_.uniform_index(1u << 30)),
                           q.keywords + ".mp3"});
        gnutella::Message hit = gnutella::make_query_hit(
            message.guid, ip_, std::move(results), gnutella::Guid::generate(rng_),
            7);
        hit.hops = 1;
        network_.send(conn, id_, std::move(hit));
      }
      break;
    }
    default:
      // Other forwarded traffic is ignored: the planned script already
      // models this client's querying behavior.
      break;
  }
}

void SimulatedPeer::on_crashed() {
  // Abrupt death: cancel everything, including the planned session end,
  // so the dead process never sends a BYE or closes the transport.  The
  // connection stays up until the measurement node reaps it; its close
  // notification is suppressed for us by the network, so the owner
  // callback fires now — a crashed process is done.
  silent_ = true;
  cancel_all();
  plan_.sends.clear();
  plan_.sends.shrink_to_fit();
  if (on_done_) on_done_(id_);
}

void SimulatedPeer::on_connection_closed(sim::ConnId /*conn*/) {
  closed_ = true;
  cancel_all();
  plan_.sends.clear();
  plan_.sends.shrink_to_fit();
  if (on_done_) on_done_(id_);
}

void SimulatedPeer::cancel_all() {
  auto& sim = network_.simulator();
  for (auto& id : slots_) {
    if (id != 0) sim.cancel(id);
    id = 0;
  }
}

}  // namespace p2pgen::behavior
