// p2pgen — simulated overlay transport.
//
// Connection-oriented message transport between simulation nodes,
// replacing the TCP connections of the real measurement setup.  The
// analysis layer never looks below connection open/close and message
// events, so this is exactly the substrate the paper's methodology needs
// (DESIGN.md §1).  Features mirrored from the real overlay:
//
//   * explicit connection establishment / teardown events,
//   * propagation latency (messages in flight when a connection closes
//     are dropped, like segments after a RST),
//   * nodes that can "go silent" — closing is one-sided until the other
//     end notices, which the measurement node does with its 15 s + 15 s
//     idle-probe rule (paper Section 3.2),
//   * an optional fault-injection layer (sim/fault.hpp): loss, byte
//     corruption (delivered as raw wire data through Node::on_wire so the
//     receiver's codec error paths fire), duplication, jitter/reordering,
//     abrupt crashes and half-open links.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "gnutella/handshake.hpp"
#include "gnutella/message.hpp"
#include "sim/fault.hpp"
#include "sim/simulator.hpp"

namespace p2pgen::obs {
class QueryTracer;
class TimelineRecorder;
}  // namespace p2pgen::obs

namespace p2pgen::sim {

using NodeId = std::uint64_t;
using ConnId = std::uint64_t;

/// Interface implemented by every simulated node.
class Node {
 public:
  virtual ~Node() = default;

  /// A connection to `peer` finished opening.
  virtual void on_connection_open(ConnId conn, NodeId peer) = 0;

  /// The connection was torn down (by either side).
  virtual void on_connection_closed(ConnId conn) = 0;

  /// A handshake block arrived.
  virtual void on_handshake(ConnId conn, const gnutella::Handshake& handshake) = 0;

  /// A Gnutella descriptor arrived.
  virtual void on_message(ConnId conn, const gnutella::Message& message) = 0;

  /// Raw wire bytes arrived.  Only the fault layer produces these (a
  /// corrupted descriptor is delivered in its damaged wire form so the
  /// receiver's DecodeError handling runs for real).  The default decodes
  /// one descriptor and forwards it to on_message; malformed data is
  /// dropped silently, as a lenient client would.
  virtual void on_wire(ConnId conn, const std::vector<std::uint8_t>& bytes);

  /// The node itself died abruptly (fault injection).  Implementations
  /// must stop all activity: a crashed node sends nothing, answers
  /// nothing, and never observes events again.
  virtual void on_crashed() {}
};

/// The overlay transport: owns connection state, delivers events through
/// the Simulator with propagation latency.
class Network {
 public:
  struct Config {
    double latency_seconds = 0.05;  // one-way propagation delay
    bool count_wire_bytes = false;  // encode messages to count bytes (slower)
  };

  explicit Network(Simulator& simulator) : Network(simulator, Config()) {}
  Network(Simulator& simulator, Config config);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Registers a node (non-owning; the node must stay alive while it has
  /// open connections or undelivered events).
  NodeId add_node(Node& node);

  /// Installs a fault injector (non-owning, nullable).  With no injector,
  /// or an injector whose config is all-zero, the transport behaves
  /// exactly as it always has — byte-identical runs.
  void set_fault_injector(FaultInjector* injector) noexcept {
    injector_ = injector;
  }

  /// Installs a query-lifecycle tracer (non-owning, nullable; DESIGN.md
  /// §12).  Strictly observational: the transport records emit/loss/
  /// corruption hops for sampled queries but behaves byte-identically
  /// with or without one.
  void set_query_tracer(obs::QueryTracer* tracer) noexcept {
    qtracer_ = tracer;
  }

  /// Installs a sim-time timeline recorder (non-owning, nullable;
  /// DESIGN.md §13).  The transport counts fault-layer drops by reason
  /// into the tick containing each drop; like the tracer it is strictly
  /// observational.
  void set_timeline(obs::TimelineRecorder* timeline) noexcept {
    timeline_ = timeline;
  }

  /// Marks a node as immune to injected crashes (the measurement node:
  /// the paper's ultrapeer stayed up for the whole 40 days).
  void protect_node(NodeId node);

  /// Kills a node abruptly: no close events are generated, pending
  /// deliveries to it vanish, and its future sends are swallowed.  The
  /// other endpoints only find out via their own idle detection.
  void crash_node(NodeId node);

  /// True if the node was crashed by fault injection.
  bool is_crashed(NodeId node) const;

  /// Silently kills one direction of a connection (half-open link): sends
  /// from `from_a ? a : b` are swallowed from now on.
  void half_open(ConnId conn, bool from_a);

  /// Associates a transport address with a node (the "TCP remote address"
  /// the measurement methodology reads peer IPs from).
  void set_address(NodeId node, std::uint32_t ip);

  /// The node's transport address (0 if never set).
  std::uint32_t address_of(NodeId node) const;

  /// Opens a connection between two registered nodes.  Both ends receive
  /// on_connection_open after one latency.  Returns the connection id.
  ConnId connect(NodeId a, NodeId b);

  /// Closes a connection gracefully (TCP FIN semantics): both ends receive
  /// on_connection_closed after one latency; descriptors already in flight
  /// are still delivered first, but new sends are rejected.  Closing an
  /// already-closed connection is a no-op.
  void close(ConnId conn);

  /// Sends a descriptor from `sender` over `conn`; delivered to the other
  /// endpoint after one latency.  Sends after close() are dropped.
  void send(ConnId conn, NodeId sender, gnutella::Message message);

  /// Sends a handshake block (same delivery rules).
  void send_handshake(ConnId conn, NodeId sender, gnutella::Handshake handshake);

  /// True while the connection is open (close not yet initiated).
  bool is_open(ConnId conn) const;

  /// The other endpoint of `conn` relative to `self`.
  NodeId peer_of(ConnId conn, NodeId self) const;

  Simulator& simulator() noexcept { return sim_; }

  /// Totals across the run.
  std::uint64_t messages_delivered() const noexcept { return messages_delivered_; }
  std::uint64_t messages_dropped() const noexcept { return messages_dropped_; }
  std::uint64_t wire_bytes() const noexcept { return wire_bytes_; }
  std::size_t open_connections() const noexcept { return open_count_; }

 private:
  struct Connection {
    ConnId id = 0;             // 0 marks an empty table cell
    NodeId a = 0;
    NodeId b = 0;
    // FIFO floors: absolute time of the latest delivery scheduled in each
    // direction.  The overlay ran on TCP, so jitter may delay a stream but
    // never reorder it; descriptors (and the teardown notification) are
    // clamped to arrive no earlier than their predecessors.
    double fifo_a_to_b = 0.0;
    double fifo_b_to_a = 0.0;
    bool open = false;         // false once close() starts (no new sends)
    bool dead_a_to_b = false;  // half-open: a's sends are swallowed
    bool dead_b_to_a = false;  // half-open: b's sends are swallowed
  };

  // The connections from connect() until their teardown notification
  // ran, stored in place: an open-addressed, linear-probing table with a
  // power-of-two number of cells, at most half of them used.  Erasing
  // empties a cell by backward shift (as RoutingTable's index does), so
  // no probe chain breaks and no tombstones build up.  An insert may
  // move every entry, so no Connection pointer or reference outlives a
  // call that can connect().
  class ConnectionTable {
   public:
    ConnectionTable() : cells_(kInitialCells) {}
    Connection* find(ConnId id) noexcept;
    const Connection* find(ConnId id) const noexcept;
    // `id` must be nonzero and not in the table.
    Connection& insert(ConnId id);
    // No-op when `id` is not in the table.
    void erase(ConnId id) noexcept;

   private:
    static constexpr std::size_t kInitialCells = 64;
    // Fibonacci hashing: the top bits of id * 2^64/phi spread the
    // sequential ids evenly over the cells.
    std::size_t home(ConnId id) const noexcept {
      return static_cast<std::size_t>((id * 0x9e3779b97f4a7c15ULL) >> shift_);
    }
    // The cell holding `id`, or the empty cell that ends its probe.
    std::size_t cell_of(ConnId id) const noexcept;
    void grow();

    std::vector<Connection> cells_;
    std::size_t count_ = 0;
    unsigned shift_ = 64 - 6;  // 64 - log2(cells_.size())
  };

  Connection& conn_ref(ConnId conn);
  const Connection& conn_ref(ConnId conn) const;

  // A free-listed slab of parked values whose entries never move: it
  // grows by whole chunks.  A delivery hands its receiver the value in
  // place, and the receiver may park more while it runs, so the slot is
  // released only after the receiver returns.
  template <class T>
  class Slab {
   public:
    // A free slot; the caller overwrites its (stale or default) value.
    std::uint32_t acquire() {
      if (!free_.empty()) {
        const std::uint32_t slot = free_.back();
        free_.pop_back();
        return slot;
      }
      if ((size_ & kChunkMask) == 0) {
        chunks_.push_back(std::make_unique<T[]>(kChunkMask + 1));
      }
      return size_++;
    }
    void release(std::uint32_t slot) { free_.push_back(slot); }
    T& operator[](std::uint32_t slot) noexcept {
      return chunks_[slot >> kChunkBits][slot & kChunkMask];
    }

   private:
    static constexpr unsigned kChunkBits = 8;
    static constexpr std::uint32_t kChunkMask = (1u << kChunkBits) - 1;
    std::vector<std::unique_ptr<T[]>> chunks_;
    std::uint32_t size_ = 0;
    std::vector<std::uint32_t> free_;
  };

  // A descriptor between send() and its delivery.  Its scheduled closure
  // holds only the slab index, small enough for std::function's inline
  // buffer, so a send allocates nothing once the slab is warm.
  struct InFlight {
    ConnId conn = 0;
    NodeId receiver = 0;
    gnutella::Message message;
  };

  // A handshake block between send_handshake() and its delivery, parked
  // the same way.
  struct InFlightHandshake {
    ConnId conn = 0;
    NodeId receiver = 0;
    gnutella::Handshake handshake;
  };

  bool faults_on() const noexcept { return injector_ && injector_->enabled(); }
  void crash_unprotected_endpoint(ConnId conn);
  void schedule_delivery(ConnId conn, NodeId receiver, double at,
                         gnutella::Message&& message);
  void deliver(std::uint32_t slot);
  void deliver_handshake(std::uint32_t slot);
  void deliver_wire(ConnId conn, NodeId receiver, double at,
                    std::vector<std::uint8_t> wire);

  Simulator& sim_;
  Config config_;
  std::vector<Node*> nodes_;
  std::vector<std::uint32_t> addresses_;
  std::vector<char> crashed_;
  std::vector<char> protected_;
  ConnectionTable connections_;
  Slab<InFlight> in_flight_;
  Slab<InFlightHandshake> handshakes_;
  FaultInjector* injector_ = nullptr;
  obs::QueryTracer* qtracer_ = nullptr;
  obs::TimelineRecorder* timeline_ = nullptr;
  ConnId next_conn_id_ = 1;
  std::uint64_t messages_delivered_ = 0;
  std::uint64_t messages_dropped_ = 0;
  std::uint64_t wire_bytes_ = 0;
  std::size_t open_count_ = 0;
};

}  // namespace p2pgen::sim
