#include "behavior/measurement_node.hpp"

#include <algorithm>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <variant>

#include "obs/qtrace.hpp"
#include "obs/timeline.hpp"
#include "util/backoff.hpp"

namespace p2pgen::behavior {

namespace {

/// Builds the TraceEvent handed to the sink with an explicit
/// in_place_type.  GCC 12's -Wmaybe-uninitialized walks every
/// alternative's copy constructor when the variant is built through its
/// converting constructor at -O2 and flags members of the never-taken
/// alternatives; pinning the alternative keeps the analysis on the one
/// real path (and lets P2PGEN_WERROR stay on).
template <typename Event>
trace::TraceEvent as_trace_event(Event&& event) {
  return trace::TraceEvent(std::in_place_type<std::decay_t<Event>>,
                           std::forward<Event>(event));
}

}  // namespace

MeasurementNode::MeasurementNode(sim::Network& network, trace::TraceSink& sink,
                                 Config config, std::uint64_t seed)
    : network_(network),
      sink_(sink),
      config_(std::move(config)),
      rng_(seed),
      routing_(600.0) {}

sim::NodeId MeasurementNode::attach() {
  if (attached_) throw std::logic_error("MeasurementNode: already attached");
  attached_ = true;
  id_ = network_.add_node(*this);
  network_.set_address(id_, config_.ip);
  return id_;
}

void MeasurementNode::on_connection_open(sim::ConnId conn, sim::NodeId peer) {
  pending_[conn] = PendingConn{peer, {}, false, false};
}

void MeasurementNode::on_handshake(sim::ConnId conn,
                                   const gnutella::Handshake& handshake) {
  const auto it = pending_.find(conn);
  if (it == pending_.end()) return;

  if (handshake.is_connect_request) {
    // Step 2: accept or refuse based on capacity and admission control.
    if (sessions_.size() + accepted_pending_ >= config_.max_connections) {
      ++rejected_;
      refuse_connection(conn);
      pending_.erase(it);
      return;
    }
    // Bounded admission: a flash crowd can pile up more half-done
    // handshakes than the node can absorb; beyond the cap new requests
    // are shed with the same 503 a capacity refusal gets.
    if (config_.max_pending_handshakes > 0 &&
        accepted_pending_ >= config_.max_pending_handshakes) {
      ++shed_connections_;
      if (timeline_ != nullptr) {
        timeline_->count(network_.simulator().now(),
                         obs::TimelineSeries::kShedConnections);
      }
      refuse_connection(conn);
      pending_.erase(it);
      return;
    }
    it->second.user_agent = handshake.user_agent();
    it->second.ultrapeer = handshake.is_ultrapeer();
    it->second.accepted = true;
    ++accepted_pending_;
    network_.send_handshake(
        conn, id_, gnutella::Handshake::ok_response(config_.user_agent, true));
    return;
  }

  // Step 3 (the peer's acknowledgement): the connected session starts now.
  if (!it->second.accepted) return;
  PendingConn pending = std::move(it->second);
  pending_.erase(it);
  --accepted_pending_;
  establish(conn, std::move(pending));
}

void MeasurementNode::refuse_connection(sim::ConnId conn) {
  gnutella::Handshake refusal =
      gnutella::Handshake::ok_response(config_.user_agent, true);
  refusal.status_code = 503;
  refusal.status_phrase = "Busy";
  network_.send_handshake(conn, id_, std::move(refusal));
  network_.close(conn);
}

bool MeasurementNode::admit_query(double now) {
  const double burst = config_.query_shed_burst > 0.0
                           ? config_.query_shed_burst
                           : config_.query_shed_rate;
  if (!shed_primed_) {
    // The bucket starts full at the first query, so a freshly started
    // node admits a burst before the rate limit bites.
    shed_tokens_ = burst;
    shed_refill_at_ = now;
    shed_primed_ = true;
  }
  shed_tokens_ = std::min(
      burst, shed_tokens_ + (now - shed_refill_at_) * config_.query_shed_rate);
  shed_refill_at_ = now;
  if (shed_tokens_ < 1.0) return false;
  shed_tokens_ -= 1.0;
  return true;
}

void MeasurementNode::establish(sim::ConnId conn, PendingConn pending) {
  Session session;
  session.session_id = next_session_id_++;
  session.peer = pending.peer;
  session.ultrapeer = pending.ultrapeer;
  session.last_activity = network_.simulator().now();

  trace::SessionStart start;
  start.time = session.last_activity;
  start.session_id = session.session_id;
  start.ip = network_.address_of(pending.peer);
  start.ultrapeer = pending.ultrapeer;
  start.user_agent = std::move(pending.user_agent);
  sink_.on_event(as_trace_event(std::move(start)));

  const auto [it, inserted] = sessions_.emplace(conn, std::move(session));
  (void)inserted;
  arm_watchdog(conn, it->second.last_activity + config_.idle_threshold);
}

void MeasurementNode::record_message(std::uint64_t session_id,
                                     const gnutella::Message& message) {
  trace::MessageEvent event;
  event.time = network_.simulator().now();
  event.session_id = session_id;
  event.type = message.type();
  event.ttl = message.ttl;
  event.hops = message.hops;
  event.guid_hash = gnutella::GuidHash{}(message.guid);
  switch (message.type()) {
    case gnutella::MessageType::kQuery: {
      const auto& q = std::get<gnutella::QueryPayload>(message.payload);
      event.query = q.keywords;
      event.sha1 = q.has_sha1();
      break;
    }
    case gnutella::MessageType::kPong: {
      const auto& p = std::get<gnutella::PongPayload>(message.payload);
      event.source_ip = p.ip;
      event.shared_files = p.shared_files;
      break;
    }
    case gnutella::MessageType::kQueryHit: {
      const auto& h = std::get<gnutella::QueryHitPayload>(message.payload);
      event.source_ip = h.ip;
      break;
    }
    default:
      break;
  }
  ++messages_recorded_;
  sink_.on_event(as_trace_event(std::move(event)));
}

void MeasurementNode::on_message(sim::ConnId conn,
                                 const gnutella::Message& message) {
  const auto it = sessions_.find(conn);
  if (it == sessions_.end()) return;  // pre-establishment or raced close
  handle_message(conn, it->second, message);
}

void MeasurementNode::on_wire(sim::ConnId conn,
                              const std::vector<std::uint8_t>& bytes) {
  // Raw (possibly damaged) wire data from the fault layer: run it through
  // the connection's stream assembler exactly as the real client ran its
  // TCP stream through the codec.
  const auto it = sessions_.find(conn);
  if (it == sessions_.end()) return;
  Session& session = it->second;
  session.assembler.feed(bytes);
  try {
    while (auto message = session.assembler.next()) {
      // handle_message never erases the session, so `session` stays valid
      // across the loop.
      handle_message(conn, session, *message);
    }
  } catch (const gnutella::DecodeError&) {
    // Malformed descriptor: the real mutella dropped just this
    // connection.  Record how far into the stream corruption hit and an
    // abnormal-close event, then tear the connection down.
    ++decode_errors_;
    clean_bytes_before_error_ += session.assembler.consumed_total();
    drop_connection_on_error(conn);
  }
}

void MeasurementNode::drop_connection_on_error(sim::ConnId conn) {
  const auto it = sessions_.find(conn);
  if (it == sessions_.end()) return;
  Session& session = it->second;
  if (session.watchdog_event != 0) {
    network_.simulator().cancel(session.watchdog_event);
  }
  trace::SessionEnd end;
  end.time = network_.simulator().now();
  end.session_id = session.session_id;
  end.reason = trace::EndReason::kError;
  sink_.on_event(as_trace_event(std::move(end)));
  sessions_.erase(it);
  network_.close(conn);
  note_session_end(trace::EndReason::kError);
}

void MeasurementNode::note_session_end(trace::EndReason reason) {
  ++session_ends_[static_cast<std::size_t>(reason)];
  if (!config_.replenish || !replenish_hook_) return;
  if (sessions_.size() >= replenish_target()) return;
  // Every death below target is a replenish request (the per-reason
  // histogram the recovery report shows); only one backoff timer runs
  // at a time so a crash burst cannot schedule a reconnect storm.
  ++replenish_by_reason_[static_cast<std::size_t>(reason)];
  if (replenish_event_ != 0) return;
  const double delay =
      util::backoff_delay(config_.replenish_backoff_base,
                          config_.replenish_backoff_max, replenish_attempt_);
  ++replenish_scheduled_;
  replenish_event_ = network_.simulator().schedule_after(
      delay, [this] { replenish_fire(); });
}

void MeasurementNode::replenish_fire() {
  replenish_event_ = 0;
  if (sessions_.size() >= replenish_target()) {
    replenish_attempt_ = 0;  // healed: next incident starts from base
    return;
  }
  ++replenish_spawns_;
  if (replenish_hook_) replenish_hook_();
  // The replacement peer connects after handshake + latency, so the node
  // is still below target right now; keep healing with doubled backoff
  // until the population recovers.
  ++replenish_attempt_;
  const double delay =
      util::backoff_delay(config_.replenish_backoff_base,
                          config_.replenish_backoff_max, replenish_attempt_);
  ++replenish_scheduled_;
  replenish_event_ = network_.simulator().schedule_after(
      delay, [this] { replenish_fire(); });
}

void MeasurementNode::handle_message(sim::ConnId conn, Session& session,
                                     const gnutella::Message& message) {
  note_activity(session);

  const double now = network_.simulator().now();

  // Query-lifecycle tracing (DESIGN.md §12): purely observational, the
  // decisions below are identical with tracing on or off.
  const auto mtype = message.type();
  const bool is_query = mtype == gnutella::MessageType::kQuery;
  const bool is_hit = mtype == gnutella::MessageType::kQueryHit;
  std::uint64_t qkey = 0;
  bool traced = false;
  if (qtracer_ != nullptr && (is_query || is_hit)) {
    qkey = gnutella::GuidHash{}(message.guid);
    traced = qtracer_->sampled(qkey);
  }

  // Load shedding: under overload the node drops excess queries before
  // spending any work on them — no trace record, no routing-table entry,
  // no forwarding.  (The bytes were still received, so the activity
  // timestamp above stands: a shedding node is busy, not silent.)
  if (message.type() == gnutella::MessageType::kQuery &&
      config_.query_shed_rate > 0.0 && !admit_query(now)) {
    ++shed_queries_;
    if (traced) {
      qtracer_->record(now, qkey, obs::QueryHop::kShed, message.ttl,
                       message.hops);
    }
    if (timeline_ != nullptr) {
      timeline_->count(now, obs::TimelineSeries::kShedQueries);
    }
    return;
  }

  // The trace records everything the client receives, duplicates included
  // (duplicate suppression affects forwarding, not logging).
  record_message(session.session_id, message);
  if (traced) {
    qtracer_->record(now, qkey,
                     is_query ? obs::QueryHop::kQueryReceived
                              : obs::QueryHop::kHitReceived,
                     message.ttl, message.hops);
  }

  const bool first_seen = routing_.note_seen(message.guid, conn, now);
  if (!first_seen) {
    ++duplicates_;
    if (traced && is_query) {
      qtracer_->record(now, qkey, obs::QueryHop::kDuplicateDropped,
                       message.ttl, message.hops);
    }
    if (timeline_ != nullptr) {
      timeline_->count(now, obs::TimelineSeries::kDropDuplicate);
    }
  }

  switch (message.type()) {
    case gnutella::MessageType::kPing: {
      // Answer with our own PONG (routed back by GUID, per the protocol).
      gnutella::Message pong = gnutella::make_pong(
          message.guid, config_.ip, config_.shared_files, 0, 1);
      pong.hops = 1;
      network_.send(conn, id_, std::move(pong));
      break;
    }
    case gnutella::MessageType::kQuery: {
      if (first_seen && config_.forward_fanout > 0 && message.forwardable()) {
        forward_query(conn, message);
      } else if (traced && first_seen && config_.forward_fanout > 0) {
        // Would have been forwarded, but arrived with TTL 0.
        qtracer_->record(now, qkey, obs::QueryHop::kTtlExpired, message.ttl,
                         message.hops);
      }
      break;
    }
    case gnutella::MessageType::kQueryHit: {
      // Route the response back along the reverse path of its QUERY.
      const auto route = routing_.reverse_route(message.guid, now);
      if (route && *route != conn && message.forwardable() &&
          network_.is_open(*route)) {
        network_.send(*route, id_, message.forwarded());
        if (traced) {
          // End-to-end latency: from the query's first emission to its
          // answer leaving the node toward the querier.
          qtracer_->record(now, qkey, obs::QueryHop::kHitReturned,
                           message.ttl, message.hops,
                           qtracer_->latency_since_emit(qkey, now));
        }
      }
      break;
    }
    case gnutella::MessageType::kBye: {
      session.bye_seen = true;
      break;
    }
    case gnutella::MessageType::kRouteTableUpdate: {
      const auto& payload =
          std::get<gnutella::RouteTablePayload>(message.payload);
      try {
        session.qrp = gnutella::QrpTable::from_patch(payload.patch);
      } catch (const std::invalid_argument&) {
        // Malformed patch: keep forwarding everything to this leaf.
        session.qrp.reset();
      }
      break;
    }
    default:
      break;
  }
}

void MeasurementNode::forward_query(sim::ConnId from,
                                    const gnutella::Message& message) {
  forward_used_.clear();
  forward_attempt(from, message, forward_used_, 0);
}

void MeasurementNode::forward_attempt(sim::ConnId from,
                                      const gnutella::Message& message,
                                      std::vector<sim::ConnId>& used,
                                      int attempt) {
  const auto& payload = std::get<gnutella::QueryPayload>(message.payload);
  // Computed locally because retries re-enter this function later.
  std::uint64_t qkey = 0;
  bool traced = false;
  if (qtracer_ != nullptr) {
    qkey = gnutella::GuidHash{}(message.guid);
    traced = qtracer_->sampled(qkey);
  }
  // The query's QRP keyword hashes, computed at the first leaf that needs
  // them and shared by every leaf table after it.
  bool hashed = false;
  const double now = network_.simulator().now();
  for (auto& [conn, session] : sessions_) {
    if (conn == from ||
        std::find(used.begin(), used.end(), conn) != used.end()) {
      continue;
    }
    if (!network_.is_open(conn)) continue;
    if (!session.ultrapeer) {
      // Section 3.1: leaves receive a query only if their QRP table says
      // they are likely to respond.  Leaves that never sent a table share
      // nothing and are skipped entirely.  (Counted only on the first
      // pass: a retry revisiting the same leaf is not a new suppression.)
      if (session.qrp && !hashed) {
        gnutella::QrpTable::keyword_hashes(payload.keywords, query_hashes_);
        hashed = true;
      }
      if (!session.qrp || !session.qrp->contains_all(query_hashes_)) {
        if (attempt == 0) {
          ++qrp_suppressed_;
          if (traced) {
            qtracer_->record(now, qkey, obs::QueryHop::kQrpSuppressed,
                             message.ttl, message.hops);
          }
        }
        continue;
      }
    }
    network_.send(conn, id_, message.forwarded());
    if (traced) {
      // One hop per send, with the forwarded header (TTL-1, hops+1).
      qtracer_->record(now, qkey, obs::QueryHop::kForwarded,
                       static_cast<std::uint8_t>(message.ttl - 1),
                       static_cast<std::uint8_t>(message.hops + 1));
    }
    used.push_back(conn);
    ++forwarded_;
    if (used.size() >= static_cast<std::size_t>(config_.forward_fanout)) {
      return;
    }
  }
  // Short pass: neighbor connections were lost under us.  Retry the
  // remainder with exponential backoff — by then new neighbors may have
  // connected — up to the configured bound.  Only a retry owns a copy of
  // the neighbors already used.
  if (config_.forward_retry_max <= 0) return;
  if (attempt >= config_.forward_retry_max) {
    ++forward_retries_exhausted_;
    return;
  }
  ++forward_retries_;
  const double delay = util::backoff_delay(
      config_.forward_retry_base, config_.forward_retry_max_delay, attempt);
  network_.simulator().schedule_after(
      delay, [this, from, message, used, attempt]() mutable {
        forward_attempt(from, message, used, attempt + 1);
      });
}

void MeasurementNode::note_activity(Session& session) {
  session.last_activity = network_.simulator().now();
  session.probe_outstanding = false;
}

void MeasurementNode::arm_watchdog(sim::ConnId conn, double at) {
  auto& sim = network_.simulator();
  const auto it = sessions_.find(conn);
  if (it == sessions_.end()) return;
  // Strictly in the future: re-arming at exactly now() would spin the
  // event loop when floating-point rounding puts `at` an ulp below now.
  it->second.watchdog_event = sim.schedule_at(
      std::max(at, sim.now() + 1e-6), [this, conn] { watchdog_fire(conn); });
}

void MeasurementNode::watchdog_fire(sim::ConnId conn) {
  // Comparisons use a small tolerance: `now` is often last_activity +
  // threshold computed in doubles, so `idle` can land an ulp under the
  // threshold.
  constexpr double kEps = 1e-6;
  const auto it = sessions_.find(conn);
  if (it == sessions_.end()) return;
  Session& session = it->second;
  session.watchdog_event = 0;
  const double now = network_.simulator().now();
  const double idle = now - session.last_activity;

  if (session.probe_outstanding) {
    if (idle >= config_.probe_timeout - kEps) {
      // Silent peer: close and record the end (overestimating the real
      // session end by ~idle_threshold + probe_timeout, per the paper).
      trace::SessionEnd end;
      end.time = now;
      end.session_id = session.session_id;
      end.reason = trace::EndReason::kIdleProbe;
      sink_.on_event(as_trace_event(std::move(end)));
      ++probe_closed_sessions_;
      sessions_.erase(it);
      network_.close(conn);
      note_session_end(trace::EndReason::kIdleProbe);
      return;
    }
    arm_watchdog(conn, session.last_activity + config_.probe_timeout);
    return;
  }

  if (idle >= config_.idle_threshold - kEps) {
    // Send a single probe PING and wait another probe_timeout.
    network_.send(conn, id_, gnutella::make_ping(rng_, 1));
    session.probe_outstanding = true;
    arm_watchdog(conn, now + config_.probe_timeout);
    return;
  }
  arm_watchdog(conn, session.last_activity + config_.idle_threshold);
}

void MeasurementNode::on_connection_closed(sim::ConnId conn) {
  const auto pending_it = pending_.find(conn);
  if (pending_it != pending_.end()) {
    if (pending_it->second.accepted) --accepted_pending_;
    pending_.erase(pending_it);
  }
  const auto it = sessions_.find(conn);
  if (it == sessions_.end()) return;
  Session& session = it->second;
  if (session.watchdog_event != 0) {
    network_.simulator().cancel(session.watchdog_event);
  }
  trace::SessionEnd end;
  end.time = network_.simulator().now();
  end.session_id = session.session_id;
  const trace::EndReason reason = session.bye_seen
                                      ? trace::EndReason::kBye
                                      : trace::EndReason::kTeardown;
  end.reason = reason;
  sink_.on_event(as_trace_event(std::move(end)));
  sessions_.erase(it);
  note_session_end(reason);
}

}  // namespace p2pgen::behavior
