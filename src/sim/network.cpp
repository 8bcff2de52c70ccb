#include "sim/network.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "gnutella/codec.hpp"
#include "obs/qtrace.hpp"
#include "obs/timeline.hpp"

namespace p2pgen::sim {

namespace {

/// True when `message` is on the query plane the lifecycle tracer cares
/// about (QUERY out, QUERYHIT back).
bool qtrace_kind(const gnutella::Message& message) noexcept {
  const auto type = message.type();
  return type == gnutella::MessageType::kQuery ||
         type == gnutella::MessageType::kQueryHit;
}

}  // namespace

void Node::on_wire(ConnId conn, const std::vector<std::uint8_t>& bytes) {
  // Lenient default: decode a single descriptor if possible, otherwise
  // drop the data on the floor.  Nodes that model a real client's stream
  // handling (the measurement node) override this.
  try {
    const auto result = gnutella::try_decode(bytes);
    if (result) on_message(conn, result->first);
  } catch (const gnutella::DecodeError&) {
    // Malformed: ignore.
  }
}

std::size_t Network::ConnectionTable::cell_of(ConnId id) const noexcept {
  const std::size_t mask = cells_.size() - 1;
  std::size_t cell = home(id);
  while (cells_[cell].id != 0 && cells_[cell].id != id) {
    cell = (cell + 1) & mask;
  }
  return cell;
}

Network::Connection* Network::ConnectionTable::find(ConnId id) noexcept {
  Connection& c = cells_[cell_of(id)];
  return c.id != 0 ? &c : nullptr;
}

const Network::Connection* Network::ConnectionTable::find(
    ConnId id) const noexcept {
  const Connection& c = cells_[cell_of(id)];
  return c.id != 0 ? &c : nullptr;
}

Network::Connection& Network::ConnectionTable::insert(ConnId id) {
  if (2 * (count_ + 1) > cells_.size()) grow();
  Connection& c = cells_[cell_of(id)];
  c = Connection{};
  c.id = id;
  ++count_;
  return c;
}

void Network::ConnectionTable::erase(ConnId id) noexcept {
  const std::size_t mask = cells_.size() - 1;
  std::size_t cell = cell_of(id);
  if (cells_[cell].id == 0) return;
  std::size_t next = cell;
  for (;;) {
    next = (next + 1) & mask;
    if (cells_[next].id == 0) break;
    // The entry at `next` may fill the hole unless the hole lies
    // (cyclically) before its home cell.
    const std::size_t home_cell = home(cells_[next].id);
    if (((next - home_cell) & mask) >= ((next - cell) & mask)) {
      cells_[cell] = cells_[next];
      cell = next;
    }
  }
  cells_[cell].id = 0;
  --count_;
}

void Network::ConnectionTable::grow() {
  const std::vector<Connection> old =
      std::exchange(cells_, std::vector<Connection>(2 * cells_.size()));
  --shift_;
  for (const Connection& c : old) {
    if (c.id != 0) cells_[cell_of(c.id)] = c;
  }
}

Network::Network(Simulator& simulator, Config config)
    : sim_(simulator), config_(config) {
  if (config_.latency_seconds < 0.0) {
    throw std::invalid_argument("Network: latency must be >= 0");
  }
}

NodeId Network::add_node(Node& node) {
  nodes_.push_back(&node);
  addresses_.push_back(0);
  crashed_.push_back(0);
  protected_.push_back(0);
  return static_cast<NodeId>(nodes_.size() - 1);
}

void Network::set_address(NodeId node, std::uint32_t ip) {
  if (node >= addresses_.size()) {
    throw std::invalid_argument("Network: unknown node id");
  }
  addresses_[node] = ip;
}

std::uint32_t Network::address_of(NodeId node) const {
  if (node >= addresses_.size()) {
    throw std::invalid_argument("Network: unknown node id");
  }
  return addresses_[node];
}

void Network::protect_node(NodeId node) {
  if (node >= protected_.size()) {
    throw std::invalid_argument("Network: unknown node id");
  }
  protected_[node] = 1;
}

bool Network::is_crashed(NodeId node) const {
  return node < crashed_.size() && crashed_[node] != 0;
}

void Network::crash_node(NodeId node) {
  if (node >= nodes_.size()) {
    throw std::invalid_argument("Network: unknown node id");
  }
  if (crashed_[node] || protected_[node]) return;
  crashed_[node] = 1;
  if (injector_) ++injector_->counters().node_crashes;
  // Notify the node so it can cancel its own activity; after this it must
  // behave as a dead process (the transport also swallows its sends).
  nodes_[node]->on_crashed();
}

void Network::half_open(ConnId conn, bool from_a) {
  Connection* c = connections_.find(conn);
  if (c == nullptr || !c->open) return;
  bool& dead = from_a ? c->dead_a_to_b : c->dead_b_to_a;
  if (dead) return;
  dead = true;
  if (injector_) ++injector_->counters().half_open_links;
}

void Network::crash_unprotected_endpoint(ConnId conn) {
  const Connection* c = connections_.find(conn);
  if (c == nullptr || !c->open) return;
  const NodeId a = c->a;
  const NodeId b = c->b;
  if (!protected_[a] && !crashed_[a]) {
    crash_node(a);
  } else if (!protected_[b] && !crashed_[b]) {
    crash_node(b);
  }
}

Network::Connection& Network::conn_ref(ConnId conn) {
  Connection* c = connections_.find(conn);
  if (c == nullptr) {
    throw std::invalid_argument("Network: unknown connection id");
  }
  return *c;
}

const Network::Connection& Network::conn_ref(ConnId conn) const {
  const Connection* c = connections_.find(conn);
  if (c == nullptr) {
    throw std::invalid_argument("Network: unknown connection id");
  }
  return *c;
}

ConnId Network::connect(NodeId a, NodeId b) {
  if (a >= nodes_.size() || b >= nodes_.size() || a == b) {
    throw std::invalid_argument("Network: invalid endpoints");
  }
  const ConnId id = next_conn_id_++;
  Connection& c = connections_.insert(id);
  c.a = a;
  c.b = b;
  c.open = true;
  ++open_count_;
  sim_.schedule_in_order(sim_.now() + config_.latency_seconds, [this, id] {
    const Connection* opened = connections_.find(id);
    if (opened == nullptr || !opened->open) return;
    const NodeId end_a = opened->a;
    const NodeId end_b = opened->b;
    if (!crashed_[end_a]) nodes_[end_a]->on_connection_open(id, end_b);
    if (!crashed_[end_b]) nodes_[end_b]->on_connection_open(id, end_a);
  });
  if (faults_on()) {
    const LinkFaultPlan plan = injector_->plan_link(sim_.now());
    if (plan.crash_at >= 0.0) {
      sim_.schedule_at(plan.crash_at,
                       [this, id] { crash_unprotected_endpoint(id); });
    }
    if (plan.half_open_at >= 0.0) {
      sim_.schedule_at(plan.half_open_at, [this, id, from_a =
                                                         plan.half_open_from_a] {
        half_open(id, from_a);
      });
    }
  }
  return id;
}

void Network::close(ConnId conn) {
  auto& c = conn_ref(conn);
  if (!c.open) return;
  // Graceful close (TCP FIN semantics): no new sends are accepted, but
  // descriptors already in flight still arrive before the teardown
  // notification — a BYE sent immediately before close() must be seen by
  // the other end, as it would be on a real connection.
  c.open = false;
  --open_count_;
  // The teardown notification queues behind every descriptor already
  // scheduled on either direction (FIFO floors), so jittered in-flight
  // data — a BYE in particular — still arrives before the close.
  const double at = std::max({sim_.now() + config_.latency_seconds,
                              c.fifo_a_to_b, c.fifo_b_to_a});
  sim_.schedule_in_order(at, [this, conn] {
    // Only this event erases the connection, so it is still there.
    const Connection& closing = *connections_.find(conn);
    const NodeId a = closing.a;
    const NodeId b = closing.b;
    if (!crashed_[a]) nodes_[a]->on_connection_closed(conn);
    if (!crashed_[b]) nodes_[b]->on_connection_closed(conn);
    connections_.erase(conn);
  });
}

void Network::deliver_wire(ConnId conn, NodeId receiver, double at,
                           std::vector<std::uint8_t> wire) {
  sim_.schedule_in_order(at, [this, conn, receiver, bytes = std::move(wire)] {
    if (connections_.find(conn) == nullptr || crashed_[receiver]) {
      ++messages_dropped_;
      return;
    }
    ++messages_delivered_;
    nodes_[receiver]->on_wire(conn, bytes);
  });
}

void Network::send(ConnId conn, NodeId sender, gnutella::Message message) {
  auto& c = conn_ref(conn);
  if (!c.open) {
    ++messages_dropped_;
    return;
  }
  if (sender != c.a && sender != c.b) {
    throw std::invalid_argument("Network: sender is not an endpoint");
  }
  const bool from_a = sender == c.a;

  // Query-lifecycle tracing (DESIGN.md §12).  The sampling decision is a
  // pure function of the GUID, so instrumenting here cannot perturb the
  // simulation; everything below only ever *records*.
  std::uint64_t qkey = 0;
  bool traced = false;
  bool is_query = false;
  if (qtracer_ != nullptr && qtrace_kind(message)) {
    qkey = gnutella::GuidHash{}(message.guid);
    traced = qtracer_->sampled(qkey);
    is_query = message.type() == gnutella::MessageType::kQuery;
  }
  const std::uint8_t qttl = message.ttl;
  const std::uint8_t qhops = message.hops;

  if (crashed_[sender] || (from_a ? c.dead_a_to_b : c.dead_b_to_a)) {
    // A dead process sends nothing; a half-open link swallows silently.
    // The sender cannot tell — exactly the failure the idle probe exists
    // to detect.
    if (injector_) ++injector_->counters().sends_into_dead_link;
    if (traced) {
      qtracer_->record(sim_.now(), qkey, obs::QueryHop::kDropDeadLink, qttl,
                       qhops);
    }
    if (timeline_) {
      timeline_->count(sim_.now(), obs::TimelineSeries::kDropDeadLink);
    }
    ++messages_dropped_;
    return;
  }
  if (traced && !protected_[sender]) {
    // A behavior peer put the descriptor on the wire: this is the
    // query's emission (or its answer's).  Forwards by the measurement
    // node are recorded as kForwarded at the node instead.
    if (is_query) {
      qtracer_->record_query_emitted(sim_.now(), qkey, qttl, qhops);
    } else {
      qtracer_->record(sim_.now(), qkey, obs::QueryHop::kHitEmitted, qttl,
                       qhops);
    }
  }
  if (config_.count_wire_bytes) {
    wire_bytes_ += gnutella::encode(message).size();
  }
  const NodeId receiver = from_a ? c.b : c.a;

  // Fault decisions, in a fixed order so RNG consumption is reproducible:
  // loss, jitter, corruption, duplication.  Deliveries are clamped to the
  // direction's FIFO floor: jitter delays the stream but never reorders
  // it (TCP semantics); the duplicate copy always trails the original.
  double& fifo = from_a ? c.fifo_a_to_b : c.fifo_b_to_a;
  double deliver_at = sim_.now() + config_.latency_seconds;
  bool duplicate = false;
  if (faults_on()) {
    auto& counters = injector_->counters();
    if (injector_->drop_message()) {
      ++counters.messages_lost;
      if (traced) {
        qtracer_->record(sim_.now(), qkey, obs::QueryHop::kDropLoss, qttl,
                         qhops);
      }
      if (timeline_) {
        timeline_->count(sim_.now(), obs::TimelineSeries::kDropLoss);
      }
      ++messages_dropped_;
      return;
    }
    const double jitter = injector_->jitter();
    if (jitter > 0.0) {
      deliver_at += jitter;
      ++counters.messages_delayed;
    }
    const bool corrupt = injector_->corrupt_message();
    duplicate = injector_->duplicate_message();
    if (corrupt) {
      // Deliver the damaged wire form: the receiver must run its codec
      // and survive the DecodeError, like a real client fed garbage.
      std::vector<std::uint8_t> wire = gnutella::encode(message);
      injector_->corrupt_bytes(wire);
      ++counters.messages_corrupted;
      if (traced) {
        qtracer_->record(sim_.now(), qkey, obs::QueryHop::kCorrupted, qttl,
                         qhops);
      }
      if (timeline_) {
        timeline_->count(sim_.now(), obs::TimelineSeries::kDropCorrupted);
      }
      deliver_at = std::max(deliver_at, fifo);
      fifo = deliver_at;
      deliver_wire(conn, receiver, deliver_at, wire);
      if (duplicate) {
        ++counters.messages_duplicated;
        double dup_at = std::max(
            sim_.now() + config_.latency_seconds + injector_->jitter(), fifo);
        fifo = dup_at;
        deliver_wire(conn, receiver, dup_at, std::move(wire));
      }
      return;
    }
  }
  deliver_at = std::max(deliver_at, fifo);
  fifo = deliver_at;
  if (!duplicate) {
    schedule_delivery(conn, receiver, deliver_at, std::move(message));
    return;
  }
  ++injector_->counters().messages_duplicated;
  schedule_delivery(conn, receiver, deliver_at, gnutella::Message(message));
  const double dup_at = std::max(
      sim_.now() + config_.latency_seconds + injector_->jitter(), fifo);
  fifo = dup_at;
  schedule_delivery(conn, receiver, dup_at, std::move(message));
}

void Network::schedule_delivery(ConnId conn, NodeId receiver, double at,
                                gnutella::Message&& message) {
  const std::uint32_t slot = in_flight_.acquire();
  InFlight& parked = in_flight_[slot];
  parked.conn = conn;
  parked.receiver = receiver;
  parked.message = std::move(message);
  sim_.schedule_in_order(at, [this, slot] { deliver(slot); });
}

void Network::deliver(std::uint32_t slot) {
  // Deliver as long as the teardown notification has not yet run
  // (graceful-close semantics) and the receiver still exists.
  const InFlight& parked = in_flight_[slot];
  if (connections_.find(parked.conn) == nullptr || crashed_[parked.receiver]) {
    ++messages_dropped_;
  } else {
    ++messages_delivered_;
    nodes_[parked.receiver]->on_message(parked.conn, parked.message);
  }
  in_flight_.release(slot);
}

void Network::send_handshake(ConnId conn, NodeId sender,
                             gnutella::Handshake handshake) {
  auto& c = conn_ref(conn);
  if (!c.open) return;
  if (sender != c.a && sender != c.b) {
    throw std::invalid_argument("Network: sender is not an endpoint");
  }
  const bool from_a = sender == c.a;
  if (crashed_[sender] || (from_a ? c.dead_a_to_b : c.dead_b_to_a)) {
    if (injector_) ++injector_->counters().sends_into_dead_link;
    return;
  }
  const NodeId receiver = from_a ? c.b : c.a;
  const std::uint32_t slot = handshakes_.acquire();
  InFlightHandshake& parked = handshakes_[slot];
  parked.conn = conn;
  parked.receiver = receiver;
  parked.handshake = std::move(handshake);
  sim_.schedule_in_order(sim_.now() + config_.latency_seconds,
                         [this, slot] { deliver_handshake(slot); });
}

void Network::deliver_handshake(std::uint32_t slot) {
  const InFlightHandshake& parked = handshakes_[slot];
  if (connections_.find(parked.conn) != nullptr && !crashed_[parked.receiver]) {
    nodes_[parked.receiver]->on_handshake(parked.conn, parked.handshake);
  }
  handshakes_.release(slot);
}

bool Network::is_open(ConnId conn) const {
  const Connection* c = connections_.find(conn);
  return c != nullptr && c->open;
}

NodeId Network::peer_of(ConnId conn, NodeId self) const {
  const auto& c = conn_ref(conn);
  if (self == c.a) return c.b;
  if (self == c.b) return c.a;
  throw std::invalid_argument("Network: self is not an endpoint");
}

}  // namespace p2pgen::sim
