// Tests for the Gnutella substrate: GUIDs, messages, wire codec (including
// fuzz-style robustness), routing table, handshake, and keyword
// canonicalization.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "gnutella/codec.hpp"
#include "gnutella/handshake.hpp"
#include "gnutella/message.hpp"
#include "gnutella/routing.hpp"

namespace p2pgen::gnutella {
namespace {

stats::Rng test_rng(std::uint64_t seed = 99) { return stats::Rng(seed); }

TEST(Guid, GenerateFollowsConventionAndIsUnique) {
  auto rng = test_rng();
  const Guid a = Guid::generate(rng);
  const Guid b = Guid::generate(rng);
  EXPECT_NE(a, b);
  EXPECT_EQ(a.bytes[8], 0xff);
  EXPECT_EQ(a.bytes[15], 0x00);
  EXPECT_FALSE(a.is_zero());
  EXPECT_TRUE(Guid::zero().is_zero());
  EXPECT_EQ(a.to_string().size(), 32u);
}

TEST(Guid, HashDistinguishes) {
  auto rng = test_rng();
  GuidHash h;
  const Guid a = Guid::generate(rng);
  const Guid b = Guid::generate(rng);
  EXPECT_NE(h(a), h(b));
  EXPECT_EQ(h(a), h(a));
}

TEST(Message, TypeMatchesPayload) {
  auto rng = test_rng();
  EXPECT_EQ(make_ping(rng).type(), MessageType::kPing);
  EXPECT_EQ(make_query(rng, "abc").type(), MessageType::kQuery);
  EXPECT_EQ(make_bye(rng, 200, "x").type(), MessageType::kBye);
}

TEST(Message, ForwardingDecrementsTtlIncrementsHops) {
  auto rng = test_rng();
  Message m = make_query(rng, "hello world", {}, 7);
  const Message f = m.forwarded();
  EXPECT_EQ(f.ttl, 6);
  EXPECT_EQ(f.hops, 1);
  EXPECT_EQ(f.guid, m.guid);

  m.ttl = 0;
  EXPECT_FALSE(m.forwardable());
  EXPECT_THROW(m.forwarded(), std::logic_error);
}

TEST(CanonicalKeywords, NormalizesCaseOrderAndDuplicates) {
  EXPECT_EQ(canonical_keywords("Hello World"), "hello world");
  EXPECT_EQ(canonical_keywords("world  HELLO"), "hello world");
  EXPECT_EQ(canonical_keywords("a a a b"), "a b");
  EXPECT_EQ(canonical_keywords("  "), "");
  EXPECT_EQ(canonical_keywords("\tmixed\nwhitespace  ok"),
            "mixed ok whitespace");
}

TEST(CanonicalKeywords, PinnedOnEdgeCases) {
  // Outputs of the locale-based (std::isspace/std::tolower, "C" locale)
  // implementation, pinned byte for byte.
  EXPECT_EQ(canonical_keywords("a\tb\nc\vd\fe\rf g"), "a b c d e f g");
  EXPECT_EQ(canonical_keywords("\t\n\v\f\r"), "");
  EXPECT_EQ(canonical_keywords(""), "");
  EXPECT_EQ(canonical_keywords("  lead trail  "), "lead trail");
  EXPECT_EQ(canonical_keywords("MiXeD mixed MIXED Case cASE"), "case mixed");
  EXPECT_EQ(canonical_keywords("zeta alpha zeta beta alpha"),
            "alpha beta zeta");
  // Bytes >= 0x80 are neither lower-cased nor separators, and sort after
  // ASCII (unsigned byte order).
  EXPECT_EQ(canonical_keywords("caf\xc3\xa9 CAF\xc3\x89 \xff\xfe abc \x80"),
            "abc caf\xc3\x89 caf\xc3\xa9 \x80 \xff\xfe");
  EXPECT_EQ(canonical_keywords("Z a \xe2\x82\xac z A"), "a z \xe2\x82\xac");
  EXPECT_EQ(canonical_keywords("\xa0nbsp\xa0 x\x85y"),
            "x\x85y \xa0nbsp\xa0");
  // Other control bytes are word characters.
  EXPECT_EQ(canonical_keywords("a\x1f" "b \x7f" "c"), "a\x1f" "b \x7f" "c");
}

TEST(CanonicalKeywords, OutParameterFormMatchesAndReusesTheString) {
  std::string out = "stale contents that must go";
  for (const char* query :
       {"Hello World", "", "b a b", "\tQ\r", "caf\xc3\xa9 CAFE cafe"}) {
    canonical_keywords(query, out);
    EXPECT_EQ(out, canonical_keywords(query)) << query;
  }
  out = "World hello WORLD";
  canonical_keywords(out, out);  // the input may view the output
  EXPECT_EQ(out, "hello world");
}

TEST(CanonicalKeywords, PaperIdentitySemantics) {
  // "Queries are identical if they contain the same set of keywords."
  EXPECT_EQ(canonical_keywords("madonna music"), canonical_keywords("MUSIC madonna"));
  EXPECT_NE(canonical_keywords("madonna music"), canonical_keywords("madonna"));
}

// ------------------------------------------------------------------ codec

std::vector<Message> codec_corpus() {
  auto rng = test_rng(7);
  std::vector<Message> msgs;
  msgs.push_back(make_ping(rng));
  msgs.push_back(make_pong(Guid::generate(rng), 0x18010203, 42, 42 * 4096));
  msgs.push_back(make_query(rng, "free music mp3"));
  msgs.push_back(make_query(rng, "", "urn:sha1:PLSTHIPQGSSZTS5FJUPAKUZWUGYQYPFB"));
  msgs.push_back(make_query(rng, "query with sha1", "urn:sha1:AAAA"));
  {
    std::vector<QueryHitResult> results = {{1, 1000, "a.mp3"},
                                           {2, 2000, "b long name.avi"}};
    msgs.push_back(
        make_query_hit(Guid::generate(rng), 0xC0A80101, results,
                       Guid::generate(rng)));
  }
  msgs.push_back(make_bye(rng, 503, "shutting down"));
  // Edge cases:
  msgs.push_back(make_query(rng, ""));                   // empty keywords
  msgs.push_back(make_query_hit(Guid::generate(rng), 0, {}, Guid::generate(rng)));
  return msgs;
}

class CodecRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CodecRoundTrip, EncodeDecodeIsIdentity) {
  const auto corpus = codec_corpus();
  const Message& original = corpus[GetParam()];
  const auto wire = encode(original);
  ASSERT_GE(wire.size(), kHeaderSize);
  const Message decoded = decode(wire);
  EXPECT_EQ(decoded, original);
}

INSTANTIATE_TEST_SUITE_P(Corpus, CodecRoundTrip,
                         ::testing::Range<std::size_t>(0, 9));

TEST(Codec, HeaderLayoutIsGnutella06) {
  auto rng = test_rng(8);
  const Message m = make_query(rng, "x", {}, 5);
  const auto wire = encode(m);
  EXPECT_EQ(wire[16], 0x80);  // QUERY type byte
  EXPECT_EQ(wire[17], 5);     // TTL
  EXPECT_EQ(wire[18], 0);     // hops
  // Payload length (little-endian): min_speed(2) + "x\0"(2) = 4.
  EXPECT_EQ(wire[19], 4);
  EXPECT_EQ(wire[20], 0);
  EXPECT_EQ(wire.size(), kHeaderSize + 4);
}

TEST(Codec, PongIpIsNetworkByteOrder) {
  auto rng = test_rng(9);
  const Message m = make_pong(Guid::generate(rng), 0x01020304, 0, 0);
  const auto wire = encode(m);
  // Payload: port(2 LE) then IP (big-endian).
  EXPECT_EQ(wire[kHeaderSize + 2], 0x01);
  EXPECT_EQ(wire[kHeaderSize + 3], 0x02);
  EXPECT_EQ(wire[kHeaderSize + 4], 0x03);
  EXPECT_EQ(wire[kHeaderSize + 5], 0x04);
}

TEST(Codec, TryDecodeNeedsFullDescriptor) {
  auto rng = test_rng(10);
  const auto wire = encode(make_query(rng, "hello"));
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    const auto partial =
        std::span<const std::uint8_t>(wire.data(), cut);
    EXPECT_FALSE(try_decode(partial).has_value()) << "cut=" << cut;
  }
  const auto full = try_decode(wire);
  ASSERT_TRUE(full.has_value());
  EXPECT_EQ(full->second, wire.size());
}

TEST(Codec, TryDecodeStreamsBackToBack) {
  auto rng = test_rng(11);
  const auto first = encode(make_ping(rng));
  const auto second = encode(make_query(rng, "two"));
  std::vector<std::uint8_t> stream = first;
  stream.insert(stream.end(), second.begin(), second.end());

  const auto a = try_decode(stream);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->first.type(), MessageType::kPing);
  const auto b = try_decode(
      std::span<const std::uint8_t>(stream).subspan(a->second));
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->first.type(), MessageType::kQuery);
}

TEST(Codec, RejectsUnknownTypeByte) {
  auto rng = test_rng(12);
  auto wire = encode(make_ping(rng));
  wire[16] = 0x42;
  EXPECT_THROW(decode(wire), DecodeError);
}

TEST(Codec, RejectsOversizedPayloadLength) {
  auto rng = test_rng(13);
  auto wire = encode(make_ping(rng));
  wire[22] = 0xFF;  // payload length top byte -> > kMaxPayload
  EXPECT_THROW(decode(wire), DecodeError);
}

TEST(Codec, RejectsTrailingGarbage) {
  auto rng = test_rng(14);
  auto wire = encode(make_ping(rng));
  wire.push_back(0x00);
  EXPECT_THROW(decode(wire), DecodeError);
}

TEST(Codec, FuzzBitFlipsNeverCrash) {
  // Flipping any single byte must either decode to something or throw
  // DecodeError — never crash or hang.
  const auto corpus = codec_corpus();
  for (const auto& msg : corpus) {
    const auto wire = encode(msg);
    for (std::size_t i = 0; i < wire.size(); ++i) {
      auto mutated = wire;
      mutated[i] ^= 0xFF;
      try {
        (void)decode(mutated);
      } catch (const DecodeError&) {
        // expected for many mutations
      }
    }
  }
  SUCCEED();
}

TEST(Codec, FuzzRandomBytesNeverCrash) {
  auto rng = test_rng(16);
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<std::uint8_t> junk(rng.uniform_index(64));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.uniform_index(256));
    try {
      (void)try_decode(junk);
    } catch (const DecodeError&) {
    }
  }
  SUCCEED();
}

// ---------------------------------------------------------------- routing

TEST(RoutingTable, FirstSeenThenDuplicate) {
  auto rng = test_rng(17);
  RoutingTable table(600.0);
  const Guid g = Guid::generate(rng);
  EXPECT_TRUE(table.note_seen(g, 5, 0.0));
  EXPECT_FALSE(table.note_seen(g, 9, 1.0));
  EXPECT_EQ(table.reverse_route(g, 2.0), std::optional<PeerLink>(5));
}

TEST(RoutingTable, EntriesExpire) {
  auto rng = test_rng(18);
  RoutingTable table(600.0);
  const Guid g = Guid::generate(rng);
  table.note_seen(g, 5, 0.0);
  EXPECT_TRUE(table.reverse_route(g, 599.0).has_value());
  EXPECT_FALSE(table.reverse_route(g, 600.0).has_value());
  // Re-insertion after expiry is a fresh first-sighting.
  EXPECT_TRUE(table.note_seen(g, 7, 601.0));
  EXPECT_EQ(table.reverse_route(g, 602.0), std::optional<PeerLink>(7));
}

TEST(RoutingTable, SizeTracksLiveEntries) {
  auto rng = test_rng(19);
  RoutingTable table(100.0);
  for (int i = 0; i < 50; ++i) {
    table.note_seen(Guid::generate(rng), 1, static_cast<double>(i));
  }
  EXPECT_EQ(table.size(49.0), 50u);
  EXPECT_EQ(table.size(120.0), 29u);  // t=0..20 expired by 120 (inclusive)
  EXPECT_EQ(table.size(1000.0), 0u);
}

TEST(RoutingTable, RejectsNonPositiveExpiry) {
  EXPECT_THROW(RoutingTable(0.0), std::invalid_argument);
}

// RoutingTable's contract restated over a plain ordered map: an entry is
// live while seen_at + expiry > now, and only a GUID with no live entry
// is a first sighting.
class RoutingOracle {
 public:
  explicit RoutingOracle(double expiry) : table_(expiry), expiry_(expiry) {}

  // Each call runs the operation on the table and on the model and
  // fails the test unless both answer the same.
  void note_seen(const Guid& guid, PeerLink from, double now) {
    purge(now);
    const bool expected = model_.try_emplace(guid, from, now).second;
    ASSERT_EQ(table_.note_seen(guid, from, now), expected) << "t=" << now;
  }
  void reverse_route(const Guid& guid, double now) {
    purge(now);
    const auto it = model_.find(guid);
    const auto expected = it == model_.end()
                              ? std::nullopt
                              : std::optional<PeerLink>(it->second.first);
    ASSERT_EQ(table_.reverse_route(guid, now), expected) << "t=" << now;
  }
  void size(double now) {
    purge(now);
    ASSERT_EQ(table_.size(now), model_.size()) << "t=" << now;
  }
  // Every GUID the model holds routes to its link.
  void all_routable(double now) {
    purge(now);
    for (const auto& [guid, entry] : model_) {
      ASSERT_EQ(table_.reverse_route(guid, now),
                std::optional<PeerLink>(entry.first))
          << "t=" << now;
    }
  }

 private:
  void purge(double now) {
    std::erase_if(model_, [&](const auto& kv) {
      return kv.second.second + expiry_ <= now;
    });
  }

  RoutingTable table_;
  double expiry_;
  std::map<Guid, std::pair<PeerLink, double>> model_;
};

TEST(RoutingTableOracle, RandomOperationsMatchAMapModel) {
  // Integer times against an integer expiry land exactly on the
  // seen_at + expiry == now boundary again and again; a small GUID pool
  // re-inserts GUIDs after they expire; the arrival rate swings so the
  // live count rises through several ring doublings (the ring has
  // wrapped by then) and falls back, deleting along long probe chains.
  for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE(seed);
    auto rng = test_rng(seed);
    std::vector<Guid> pool(600);
    for (auto& g : pool) g = Guid::generate(rng);
    RoutingOracle oracle(40.0);
    double now = 0.0;
    for (int op = 0; op < 30000; ++op) {
      // Phases of 5000 operations alternate slow and fast clocks.
      const bool fast_clock = (op / 5000) % 2 == 1;
      if (rng.uniform() < (fast_clock ? 0.5 : 0.05)) {
        now += static_cast<double>(1 + rng.uniform_index(2));
      }
      const Guid& guid = pool[rng.uniform_index(pool.size())];
      const double pick = rng.uniform();
      if (pick < 0.55) {
        oracle.note_seen(guid, rng.uniform_index(16), now);
      } else if (pick < 0.95) {
        oracle.reverse_route(guid, now);
      } else {
        oracle.size(now);
      }
      if (HasFatalFailure()) return;
    }
    oracle.all_routable(now);
  }
}

TEST(RoutingTableOracle, GrowsWhileTheRingIsWrapped) {
  auto rng = test_rng(21);
  RoutingOracle oracle(100.0);
  // Fill part of the ring and let it expire, so the next entries wrap
  // past the ring's end before the table has to grow.
  for (int i = 0; i < 50; ++i) {
    oracle.note_seen(Guid::generate(rng), 1, static_cast<double>(i));
  }
  oracle.size(140.0);  // t = 0..40 expired; 9 live
  for (int i = 0; i < 1000; ++i) {
    ASSERT_NO_FATAL_FAILURE(
        oracle.note_seen(Guid::generate(rng), static_cast<PeerLink>(i), 140.0));
  }
  ASSERT_NO_FATAL_FAILURE(oracle.all_routable(140.0));
  ASSERT_NO_FATAL_FAILURE(oracle.size(149.0));
  ASSERT_NO_FATAL_FAILURE(oracle.all_routable(239.5));
  oracle.size(240.0);
}

// Mirrors RoutingTable's private index hash, only to pick GUIDs that
// collide; if the two ever differ, the test still checks every answer,
// it just stops forcing this layout.
std::size_t index_home(const Guid& g, std::size_t cells) {
  std::uint64_t lo;
  std::uint64_t hi;
  std::memcpy(&lo, g.bytes.data(), sizeof lo);
  std::memcpy(&hi, g.bytes.data() + sizeof lo, sizeof hi);
  std::uint64_t h = lo ^ (hi * 0x9e3779b97f4a7c15ULL);
  h ^= h >> 32;
  h *= 0xd6e8feb86659fd93ULL;
  h ^= h >> 32;
  return static_cast<std::size_t>(h) & (cells - 1);
}

TEST(RoutingTableOracle, DeletionChainsCrossTheIndexEnd) {
  // A fresh table indexes its 64-entry ring with 128 cells.  GUIDs homed
  // on the last two cells probe on into cells 0, 1, ...; expiring them
  // one by one from the front shifts the rest of the chain back across
  // the end of the index.
  auto rng = test_rng(22);
  std::vector<Guid> colliders;
  while (colliders.size() < 12) {
    const Guid g = Guid::generate(rng);
    if (index_home(g, 128) >= 126) colliders.push_back(g);
  }
  std::vector<Guid> low;  // homed on cells 0..3, inside the wrapped chain
  while (low.size() < 4) {
    const Guid g = Guid::generate(rng);
    if (index_home(g, 128) < 4) low.push_back(g);
  }
  RoutingOracle oracle(20.0);
  for (std::size_t i = 0; i < colliders.size(); ++i) {
    oracle.note_seen(colliders[i], i, static_cast<double>(i));
    if (i < low.size()) {
      oracle.note_seen(low[i], 100 + i, static_cast<double>(i));
    }
  }
  for (double now = 20.0; now <= 40.0; now += 1.0) {
    ASSERT_NO_FATAL_FAILURE(oracle.all_routable(now));
    for (std::size_t i = 0; i < colliders.size(); ++i) {
      ASSERT_NO_FATAL_FAILURE(oracle.reverse_route(colliders[i], now));
    }
    ASSERT_NO_FATAL_FAILURE(oracle.size(now));
  }
  // Re-inserting the expired GUIDs is a fresh first sighting each.
  for (std::size_t i = 0; i < colliders.size(); ++i) {
    ASSERT_NO_FATAL_FAILURE(oracle.note_seen(colliders[i], 50 + i, 41.0));
  }
  ASSERT_NO_FATAL_FAILURE(oracle.all_routable(41.0));
}

// -------------------------------------------------------------- handshake

TEST(Handshake, RoundTripConnectRequest) {
  const auto hs = Handshake::connect_request("LimeWire/3.8.10", true);
  const auto parsed = Handshake::parse(hs.to_text());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->is_connect_request);
  EXPECT_EQ(parsed->user_agent(), "LimeWire/3.8.10");
  EXPECT_TRUE(parsed->is_ultrapeer());
}

TEST(Handshake, RoundTripOkResponse) {
  const auto hs = Handshake::ok_response("mutella-0.4.5", false);
  const auto parsed = Handshake::parse(hs.to_text());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_FALSE(parsed->is_connect_request);
  EXPECT_EQ(parsed->status_code, 200);
  EXPECT_EQ(parsed->status_phrase, "OK");
  EXPECT_FALSE(parsed->is_ultrapeer());
}

TEST(Handshake, HeaderKeysAreCaseInsensitive) {
  HeaderMap headers;
  headers.set("User-Agent", "X");
  EXPECT_EQ(headers.get("user-agent"), std::optional<std::string>("X"));
  EXPECT_EQ(headers.get("USER-AGENT"), std::optional<std::string>("X"));
  EXPECT_TRUE(headers.contains("uSeR-aGeNt"));
  // A key set again in any case overwrites the value in place.
  headers.set("X-Ultrapeer", "True");
  headers.set("user-AGENT", "Y");
  headers.set("x-ultrapeer", "False");
  EXPECT_EQ(headers.size(), 2u);
  EXPECT_EQ(headers.get("User-Agent"), std::optional<std::string>("Y"));
  EXPECT_EQ(headers.get("X-ULTRAPEER"), std::optional<std::string>("False"));
  EXPECT_FALSE(headers.get("x-query-routing").has_value());
  EXPECT_FALSE(headers.contains("user"));
  ASSERT_EQ(headers.entries().size(), 2u);
  EXPECT_EQ(headers.entries()[0].first, "user-agent");
  EXPECT_EQ(headers.entries()[1].first, "x-ultrapeer");
}

TEST(Handshake, WireTextIsPinned) {
  // Keys serialize lower-cased in ascending order.
  EXPECT_EQ(Handshake::connect_request("LimeWire/3.8.10", true).to_text(),
            "GNUTELLA CONNECT/0.6\r\n"
            "user-agent: LimeWire/3.8.10\r\n"
            "x-query-routing: 0.1\r\n"
            "x-ultrapeer: True\r\n"
            "\r\n");
  EXPECT_EQ(Handshake::ok_response("mutella-0.4.5", false).to_text(),
            "GNUTELLA/0.6 200 OK\r\n"
            "user-agent: mutella-0.4.5\r\n"
            "x-ultrapeer: False\r\n"
            "\r\n");
  Handshake refusal = Handshake::ok_response("node", true);
  refusal.status_code = 503;
  refusal.status_phrase = "Busy";
  refusal.headers.set("Zeta", "z");
  refusal.headers.set("Accept-Encoding", "deflate");
  refusal.headers.set("X-Try-Ultrapeers", "1.2.3.4:6346");
  EXPECT_EQ(refusal.to_text(),
            "GNUTELLA/0.6 503 Busy\r\n"
            "accept-encoding: deflate\r\n"
            "user-agent: node\r\n"
            "x-try-ultrapeers: 1.2.3.4:6346\r\n"
            "x-ultrapeer: True\r\n"
            "zeta: z\r\n"
            "\r\n");
}

TEST(Handshake, IsUltrapeerReadsTrueInAnyCase) {
  const auto ultrapeer = [](const char* value) {
    Handshake hs;
    hs.headers.set("X-Ultrapeer", value);
    return hs.is_ultrapeer();
  };
  EXPECT_TRUE(ultrapeer("True"));
  EXPECT_TRUE(ultrapeer(" true "));
  EXPECT_TRUE(ultrapeer("TRUE"));
  EXPECT_FALSE(ultrapeer("False"));
  EXPECT_FALSE(ultrapeer("truex"));
  EXPECT_FALSE(Handshake{}.is_ultrapeer());  // header missing
}

TEST(Handshake, UserAgentOfAParsedUpperCaseHeader) {
  const auto parsed = Handshake::parse(
      "GNUTELLA CONNECT/0.6\r\nUSER-AGENT:  Shareaza 1.8.10.4 \r\n\r\n");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->user_agent(), "Shareaza 1.8.10.4");
  EXPECT_EQ(Handshake{}.user_agent(), "");
}

TEST(Handshake, BuiltHeadersEqualThoseSetStores) {
  // The standard handshakes skip set(); their entries must be exactly
  // what set() would have stored.
  for (const bool ultrapeer : {true, false}) {
    HeaderMap request;
    request.set("User-Agent", "a client with a long user agent");
    request.set("X-Ultrapeer", ultrapeer ? "True" : "False");
    request.set("X-Query-Routing", "0.1");
    EXPECT_EQ(Handshake::connect_request("a client with a long user agent",
                                         ultrapeer)
                  .headers.entries(),
              request.entries());
    HeaderMap response;
    response.set("User-Agent", "node");
    response.set("X-Ultrapeer", ultrapeer ? "True" : "False");
    EXPECT_EQ(Handshake::ok_response("node", ultrapeer).headers.entries(),
              response.entries());
  }
}

TEST(Handshake, ParseRejectsGarbage) {
  EXPECT_FALSE(Handshake::parse("HTTP/1.1 200 OK\r\n\r\n").has_value());
  EXPECT_FALSE(Handshake::parse("").has_value());
  EXPECT_FALSE(Handshake::parse("GNUTELLA CONNECT/0.6\r\nbadheader\r\n\r\n")
                   .has_value());
}

TEST(Handshake, ParsesRefusal) {
  Handshake refusal = Handshake::ok_response("node", true);
  refusal.status_code = 503;
  refusal.status_phrase = "Busy";
  const auto parsed = Handshake::parse(refusal.to_text());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->status_code, 503);
  EXPECT_EQ(parsed->status_phrase, "Busy");
}

}  // namespace
}  // namespace p2pgen::gnutella
