// Tests for the discrete-event kernel and the overlay transport.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <queue>
#include <random>
#include <vector>

#include "sim/network.hpp"
#include "sim/simulator.hpp"

namespace p2pgen::sim {
namespace {

TEST(Simulator, ExecutesInTimeThenIdOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(2.0, [&] { order.push_back(3); });
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  sim.schedule_at(1.0, [&] { order.push_back(2); });  // same time, later id
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.executed(), 3u);
}

TEST(Simulator, RunUntilStopsAtBoundary) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1.0, [&] { ++fired; });
  sim.schedule_at(5.0, [&] { ++fired; });
  sim.run_until(2.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
  sim.run_until(10.0);
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, HandlersCanScheduleMoreEvents) {
  Simulator sim;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 100) sim.schedule_after(0.5, chain);
  };
  sim.schedule_after(0.0, chain);
  sim.run();
  EXPECT_EQ(count, 100);
  EXPECT_DOUBLE_EQ(sim.now(), 49.5);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  int fired = 0;
  const auto id = sim.schedule_at(1.0, [&] { ++fired; });
  sim.schedule_at(2.0, [&] { ++fired; });
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));     // double cancel is a no-op
  EXPECT_FALSE(sim.cancel(99999));  // unknown id
  sim.run();
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, RejectsPastSchedulingAndNullHandlers) {
  Simulator sim;
  sim.schedule_at(5.0, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(1.0, [] {}), std::invalid_argument);
  EXPECT_THROW(sim.schedule_after(-1.0, [] {}), std::invalid_argument);
  EXPECT_THROW(sim.schedule_after(1.0, nullptr), std::invalid_argument);
}

TEST(Simulator, CancelOfFiredIdIsANoOp) {
  Simulator sim;
  int fired = 0;
  const auto id = sim.schedule_at(1.0, [&] { ++fired; });
  sim.schedule_at(2.0, [&] { ++fired; });
  sim.run_until(1.5);
  ASSERT_EQ(fired, 1);
  EXPECT_EQ(sim.pending(), 1u);
  EXPECT_FALSE(sim.cancel(id));  // already fired
  EXPECT_EQ(sim.pending(), 1u);
  sim.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_FALSE(sim.cancel(id));
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, StaleIdDoesNotCancelTheEventReusingItsSlot) {
  Simulator sim;
  int first = 0;
  int second = 0;
  const auto stale = sim.schedule_at(1.0, [&] { ++first; });
  sim.run();
  // The only slot is free again, so the next event reuses it.
  const auto fresh = sim.schedule_at(2.0, [&] { ++second; });
  EXPECT_NE(fresh, stale);
  EXPECT_FALSE(sim.cancel(stale));
  EXPECT_EQ(sim.pending(), 1u);
  sim.run();
  EXPECT_EQ(first, 1);
  EXPECT_EQ(second, 1);

  // Same for a cancelled id whose slot came back after the cancel.
  const auto cancelled = sim.schedule_at(3.0, [&] { ++first; });
  EXPECT_TRUE(sim.cancel(cancelled));
  sim.run();
  const auto reused = sim.schedule_at(4.0, [&] { ++second; });
  EXPECT_FALSE(sim.cancel(cancelled));
  EXPECT_EQ(sim.pending(), 1u);
  sim.run();
  EXPECT_EQ(first, 1);
  EXPECT_EQ(second, 2);
  EXPECT_NE(reused, 0u);
}

TEST(Simulator, InOrderLaneFallsBackToTheHeapOutOfOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_in_order(2.0, [&] { order.push_back(3); });
  sim.schedule_in_order(1.0, [&] { order.push_back(1); });  // earlier: heap
  sim.schedule_at(2.0, [&] { order.push_back(4); });        // tie, later seq
  sim.schedule_in_order(1.5, [&] { order.push_back(2); });
  sim.schedule_in_order(2.0, [&] { order.push_back(5); });
  EXPECT_EQ(sim.pending(), 5u);
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
}

// Random mix of heap pushes, in-order lane pushes (some out of order, so
// they must fall back to the heap), cancels and handlers that schedule
// and cancel more events, checked against a plain priority queue over
// (time, scheduling order) kept here.
TEST(Simulator, FiringOrderMatchesAPriorityQueueOracle) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Simulator sim;
    std::mt19937_64 rng(seed);
    enum State : char { kPending, kFired, kCancelled };
    std::vector<std::uint64_t> ids;  // label -> event id
    std::vector<State> state;        // label -> state
    std::vector<std::size_t> fired;  // labels in firing order
    using Entry = std::pair<SimTime, std::size_t>;  // (time, label)
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> oracle;
    SimTime lane_hint = 0.0;

    // Times on a coarse grid so heap and lane events often tie.
    auto coarse = [&](double span) {
      return std::floor(std::uniform_real_distribution<>(0.0, span)(rng) * 4.0) /
             4.0;
    };
    std::function<void(int)> schedule_random;
    auto cancel_random = [&] {
      if (ids.empty()) return;
      const std::size_t label =
          std::uniform_int_distribution<std::size_t>(0, ids.size() - 1)(rng);
      const bool expected = state[label] == kPending;
      EXPECT_EQ(sim.cancel(ids[label]), expected) << "label " << label;
      if (expected) state[label] = kCancelled;
    };
    schedule_random = [&](int depth) {
      const std::size_t label = ids.size();
      auto handler = [&, label, depth] {
        ASSERT_EQ(state[label], kPending);
        state[label] = kFired;
        fired.push_back(label);
        if (depth < 3) {
          const int children =
              std::uniform_int_distribution<int>(0, 2)(rng);
          for (int c = 0; c < children; ++c) schedule_random(depth + 1);
        }
        if (std::uniform_int_distribution<int>(0, 3)(rng) == 0) {
          cancel_random();
        }
      };
      SimTime at;
      std::uint64_t id;
      switch (std::uniform_int_distribution<int>(0, 2)(rng)) {
        case 0:  // heap
          at = sim.now() + coarse(20.0);
          id = sim.schedule_at(at, handler);
          break;
        case 1:  // lane, in order
          lane_hint = std::max(lane_hint, sim.now()) + coarse(1.0);
          at = lane_hint;
          id = sim.schedule_in_order(at, handler);
          break;
        default:  // lane call that may be out of order
          at = sim.now() + coarse(5.0);
          id = sim.schedule_in_order(at, handler);
          break;
      }
      ids.push_back(id);
      state.push_back(kPending);
      oracle.emplace(at, label);
    };

    for (int i = 0; i < 300; ++i) {
      schedule_random(0);
      if (i % 7 == 0) cancel_random();
    }
    for (SimTime until = 5.0; sim.pending() > 0; until += 5.0) {
      sim.run_until(until);
      std::size_t live = 0;
      for (const State s : state) live += s == kPending;
      ASSERT_EQ(sim.pending(), live);
    }
    sim.run();

    std::vector<std::size_t> expected;
    while (!oracle.empty()) {
      const std::size_t label = oracle.top().second;
      oracle.pop();
      if (state[label] != kCancelled) expected.push_back(label);
    }
    ASSERT_EQ(fired, expected) << "seed " << seed;
    EXPECT_EQ(sim.executed(), fired.size());
    EXPECT_EQ(sim.pending(), 0u);
  }
}

TEST(TimeHelpers, DayAndHourArithmetic) {
  EXPECT_DOUBLE_EQ(time_of_day(0.0), 0.0);
  EXPECT_DOUBLE_EQ(time_of_day(86400.0 + 3600.0), 3600.0);
  EXPECT_EQ(hour_of_day(3600.0 * 25), 1);
  EXPECT_EQ(hour_of_day(86399.0), 23);
  EXPECT_EQ(day_index(86399.0), 0);
  EXPECT_EQ(day_index(86400.0), 1);
}

// ---------------------------------------------------------------- network

/// Records everything it sees.
class RecorderNode : public Node {
 public:
  struct Seen {
    ConnId conn;
    gnutella::MessageType type;
  };

  void on_connection_open(ConnId conn, NodeId peer) override {
    opens.push_back({conn, peer});
  }
  void on_connection_closed(ConnId conn) override { closes.push_back(conn); }
  void on_handshake(ConnId conn, const gnutella::Handshake& hs) override {
    handshakes.emplace_back(conn, hs.user_agent());
  }
  void on_message(ConnId conn, const gnutella::Message& msg) override {
    messages.push_back({conn, msg.type()});
  }

  std::vector<std::pair<ConnId, NodeId>> opens;
  std::vector<ConnId> closes;
  std::vector<std::pair<ConnId, std::string>> handshakes;
  std::vector<Seen> messages;
};

struct NetworkFixture : ::testing::Test {
  Simulator sim;
  Network net{sim, Network::Config{0.05, true}};
  RecorderNode a;
  RecorderNode b;
  NodeId ida = net.add_node(a);
  NodeId idb = net.add_node(b);
};

TEST_F(NetworkFixture, ConnectNotifiesBothEnds) {
  const ConnId conn = net.connect(ida, idb);
  sim.run();
  ASSERT_EQ(a.opens.size(), 1u);
  ASSERT_EQ(b.opens.size(), 1u);
  EXPECT_EQ(a.opens[0].second, idb);
  EXPECT_EQ(b.opens[0].second, ida);
  EXPECT_TRUE(net.is_open(conn));
  EXPECT_EQ(net.peer_of(conn, ida), idb);
}

TEST_F(NetworkFixture, MessagesDeliverWithLatency) {
  const ConnId conn = net.connect(ida, idb);
  sim.run();
  stats::Rng rng(1);
  net.send(conn, ida, gnutella::make_query(rng, "hi"));
  sim.run();
  ASSERT_EQ(b.messages.size(), 1u);
  EXPECT_EQ(b.messages[0].type, gnutella::MessageType::kQuery);
  EXPECT_TRUE(a.messages.empty());
  EXPECT_EQ(net.messages_delivered(), 1u);
  EXPECT_GT(net.wire_bytes(), 0u);
}

TEST_F(NetworkFixture, GracefulCloseDeliversInFlightMessages) {
  // TCP FIN semantics: a BYE sent right before close() still arrives.
  const ConnId conn = net.connect(ida, idb);
  sim.run();
  stats::Rng rng(2);
  net.send(conn, ida, gnutella::make_bye(rng, 200, "bye"));
  net.close(conn);
  sim.run();
  ASSERT_EQ(b.messages.size(), 1u);
  EXPECT_EQ(b.messages[0].type, gnutella::MessageType::kBye);
  EXPECT_EQ(a.closes.size(), 1u);
  EXPECT_EQ(b.closes.size(), 1u);
  EXPECT_FALSE(net.is_open(conn));
}

TEST_F(NetworkFixture, SendOnClosedConnectionIsDropped) {
  const ConnId conn = net.connect(ida, idb);
  sim.run();
  net.close(conn);
  stats::Rng rng(3);
  net.send(conn, ida, gnutella::make_ping(rng));  // still in map, not open
  sim.run();
  EXPECT_TRUE(b.messages.empty());
  EXPECT_GE(net.messages_dropped(), 1u);
}

TEST_F(NetworkFixture, DoubleCloseIsNoOp) {
  const ConnId conn = net.connect(ida, idb);
  sim.run();
  net.close(conn);
  net.close(conn);
  sim.run();
  EXPECT_EQ(a.closes.size(), 1u);
  EXPECT_EQ(b.closes.size(), 1u);
}

TEST_F(NetworkFixture, HandshakeDelivery) {
  const ConnId conn = net.connect(ida, idb);
  sim.run();
  net.send_handshake(conn, ida,
                     gnutella::Handshake::connect_request("TestAgent/1.0", false));
  sim.run();
  ASSERT_EQ(b.handshakes.size(), 1u);
  EXPECT_EQ(b.handshakes[0].second, "TestAgent/1.0");
}

TEST(Network, ReceiversMaySendWhileTheirDeliveryRuns) {
  // Each delivery to the echo node sends several descriptors back, so
  // the in-flight slab grows while a delivery is running; every copy
  // must still arrive intact and in send order.
  struct EchoNode : RecorderNode {
    Network* net = nullptr;
    NodeId self = 0;
    stats::Rng rng{7};
    void on_message(ConnId conn, const gnutella::Message& msg) override {
      RecorderNode::on_message(conn, msg);
      for (int i = 0; i < 8; ++i) {
        net->send(conn, self, gnutella::make_query(rng, "echo " + std::to_string(i)));
      }
    }
  };
  struct KeywordNode : RecorderNode {
    std::vector<std::string> keywords;
    void on_message(ConnId conn, const gnutella::Message& msg) override {
      RecorderNode::on_message(conn, msg);
      keywords.push_back(std::get<gnutella::QueryPayload>(msg.payload).keywords);
    }
  };
  Simulator sim;
  Network net(sim);
  KeywordNode a;
  EchoNode b;
  const NodeId ida = net.add_node(a);
  b.net = &net;
  b.self = net.add_node(b);
  const ConnId conn = net.connect(ida, b.self);
  sim.run();
  stats::Rng rng(8);
  for (int i = 0; i < 4; ++i) net.send(conn, ida, gnutella::make_query(rng, "ask"));
  sim.run();
  ASSERT_EQ(b.messages.size(), 4u);
  ASSERT_EQ(a.keywords.size(), 32u);
  for (std::size_t i = 0; i < a.keywords.size(); ++i) {
    EXPECT_EQ(a.keywords[i], "echo " + std::to_string(i % 8));
  }
  EXPECT_EQ(net.messages_delivered(), 36u);
}

TEST(Network, HandshakeReceiversMaySendWhileTheirDeliveryRuns) {
  // Each CONNECT the responder receives is answered with several
  // handshakes, so the handshake slab grows while a delivery is running;
  // every block must still arrive intact and in send order.
  struct Responder : RecorderNode {
    Network* net = nullptr;
    NodeId self = 0;
    void on_handshake(ConnId conn, const gnutella::Handshake& hs) override {
      RecorderNode::on_handshake(conn, hs);
      for (int i = 0; i < 8; ++i) {
        net->send_handshake(conn, self,
                            gnutella::Handshake::ok_response(
                                hs.user_agent() + " reply " + std::to_string(i),
                                true));
      }
    }
  };
  Simulator sim;
  Network net(sim);
  RecorderNode a;
  Responder b;
  const NodeId ida = net.add_node(a);
  b.net = &net;
  b.self = net.add_node(b);
  const ConnId conn = net.connect(ida, b.self);
  sim.run();
  for (int i = 0; i < 4; ++i) {
    const std::string agent = "a client with a long user agent " +
                              std::to_string(i);
    net.send_handshake(conn, ida,
                       gnutella::Handshake::connect_request(agent, false));
  }
  sim.run();
  ASSERT_EQ(b.handshakes.size(), 4u);
  ASSERT_EQ(a.handshakes.size(), 32u);
  for (std::size_t i = 0; i < a.handshakes.size(); ++i) {
    EXPECT_EQ(a.handshakes[i].second, "a client with a long user agent " +
                                          std::to_string(i / 8) + " reply " +
                                          std::to_string(i % 8));
  }
}

TEST_F(NetworkFixture, AddressRegistry) {
  net.set_address(ida, 0x01020304);
  EXPECT_EQ(net.address_of(ida), 0x01020304u);
  EXPECT_EQ(net.address_of(idb), 0u);
  EXPECT_THROW(net.address_of(999), std::invalid_argument);
}

TEST_F(NetworkFixture, InvalidEndpointsRejected) {
  EXPECT_THROW(net.connect(ida, ida), std::invalid_argument);
  EXPECT_THROW(net.connect(ida, 42), std::invalid_argument);
  const ConnId conn = net.connect(ida, idb);
  stats::Rng rng(4);
  EXPECT_THROW(net.send(conn, 42, gnutella::make_ping(rng)),
               std::invalid_argument);
  EXPECT_THROW(net.peer_of(conn, 42), std::invalid_argument);
}

TEST(Network, RejectsNegativeLatency) {
  Simulator sim;
  EXPECT_THROW(Network(sim, Network::Config{-1.0, false}), std::invalid_argument);
}

}  // namespace
}  // namespace p2pgen::sim
