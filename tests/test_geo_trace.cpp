// Tests for the GeoIP substitute and the trace substrate (records, stats,
// binary/CSV serialization).
#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "geo/geoip.hpp"
#include "stats/rng.hpp"
#include "trace/spool.hpp"
#include "trace/trace.hpp"
#include "trace/trace_io.hpp"

namespace p2pgen {
namespace {

using geo::GeoIpDatabase;
using geo::IpAllocator;
using geo::Region;

TEST(GeoIp, FormatAndParseRoundTrip) {
  for (const char* text : {"0.0.0.0", "255.255.255.255", "192.168.1.42"}) {
    const auto ip = geo::parse_ip(text);
    ASSERT_TRUE(ip.has_value()) << text;
    EXPECT_EQ(geo::format_ip(*ip), text);
  }
  EXPECT_FALSE(geo::parse_ip("256.1.1.1").has_value());
  EXPECT_FALSE(geo::parse_ip("1.2.3").has_value());
  EXPECT_FALSE(geo::parse_ip("1.2.3.4.5").has_value());
  EXPECT_FALSE(geo::parse_ip("a.b.c.d").has_value());
  EXPECT_FALSE(geo::parse_ip("1.2.3.4 ").has_value());
}

TEST(GeoIp, LongestPrefixMatchWins) {
  GeoIpDatabase db;
  db.add_prefix(*geo::parse_ip("10.0.0.0"), 8, Region::kNorthAmerica);
  db.add_prefix(*geo::parse_ip("10.1.0.0"), 16, Region::kEurope);
  db.add_prefix(*geo::parse_ip("10.1.2.0"), 24, Region::kAsia);
  EXPECT_EQ(db.lookup(*geo::parse_ip("10.9.9.9")), Region::kNorthAmerica);
  EXPECT_EQ(db.lookup(*geo::parse_ip("10.1.9.9")), Region::kEurope);
  EXPECT_EQ(db.lookup(*geo::parse_ip("10.1.2.9")), Region::kAsia);
  EXPECT_FALSE(db.lookup(*geo::parse_ip("11.0.0.1")).has_value());
}

TEST(GeoIp, MaskingAppliedOnInsert) {
  GeoIpDatabase db;
  db.add_prefix(*geo::parse_ip("10.1.2.3"), 8, Region::kEurope);  // host bits set
  EXPECT_EQ(db.lookup(*geo::parse_ip("10.200.200.200")), Region::kEurope);
}

TEST(GeoIp, SyntheticDatabaseCoversAllRegions) {
  const auto db = GeoIpDatabase::synthetic();
  for (Region r : geo::kAllRegions) {
    EXPECT_FALSE(db.prefixes_for(r).empty()) << geo::region_name(r);
  }
  // Spot checks against the documented allocation.
  EXPECT_EQ(db.lookup(*geo::parse_ip("24.10.20.30")), Region::kNorthAmerica);
  EXPECT_EQ(db.lookup(*geo::parse_ip("193.99.144.80")), Region::kEurope);
  EXPECT_EQ(db.lookup(*geo::parse_ip("202.12.27.33")), Region::kAsia);
  EXPECT_EQ(db.lookup(*geo::parse_ip("200.1.1.1")), Region::kOther);
}

TEST(GeoIp, AllocatorMintsAddressesThatResolveBack) {
  const auto db = GeoIpDatabase::synthetic();
  IpAllocator allocator(db);
  stats::Rng rng(5);
  for (Region r : geo::kAllRegions) {
    for (int i = 0; i < 200; ++i) {
      const auto ip = allocator.allocate(r, rng);
      EXPECT_EQ(db.lookup(ip), r) << geo::format_ip(ip);
    }
  }
}

TEST(GeoIp, AllocatorThrowsForUncoveredRegion) {
  GeoIpDatabase db;  // empty
  IpAllocator allocator(db);
  stats::Rng rng(6);
  EXPECT_THROW(allocator.allocate(Region::kAsia, rng), std::invalid_argument);
}

TEST(Region, NamesAndOffsets) {
  EXPECT_EQ(geo::region_name(Region::kNorthAmerica), "North America");
  EXPECT_LT(geo::region_local_offset_hours(Region::kNorthAmerica), 0.0);
  EXPECT_GT(geo::region_local_offset_hours(Region::kAsia), 0.0);
}

// ------------------------------------------------------------------ trace

trace::Trace sample_trace() {
  trace::Trace t;
  t.append(trace::SessionStart{10.0, 1, 0x18000001, true, "LimeWire/3.8.10"});
  t.append(trace::MessageEvent{11.0, 1, gnutella::MessageType::kQuery, 6, 1,
                               "free music", false, 0, 0});
  t.append(trace::MessageEvent{12.0, 1, gnutella::MessageType::kQuery, 5, 3,
                               "remote query", false, 0, 0});
  t.append(trace::MessageEvent{13.0, 1, gnutella::MessageType::kPong, 6, 2, "",
                               false, 0xC1000001, 17});
  t.append(trace::MessageEvent{14.0, 1, gnutella::MessageType::kPing, 1, 1, "",
                               false, 0, 0});
  t.append(trace::MessageEvent{14.5, 1, gnutella::MessageType::kQueryHit, 5, 2,
                               "", false, 0xC1000002, 0});
  t.append(trace::SessionEnd{80.0, 1, trace::EndReason::kIdleProbe});
  t.append(trace::SessionStart{20.0, 2, 0x3A000001, false, "mutella-0.4.3"});
  t.append(trace::SessionEnd{30.0, 2, trace::EndReason::kBye});
  return t;
}

TEST(Trace, StatsCountTable1Rows) {
  const auto stats = sample_trace().stats();
  EXPECT_EQ(stats.direct_connections, 2u);
  EXPECT_EQ(stats.ultrapeer_connections, 1u);
  EXPECT_EQ(stats.leaf_connections, 1u);
  EXPECT_EQ(stats.query_messages, 2u);
  EXPECT_EQ(stats.hop1_queries, 1u);
  EXPECT_EQ(stats.ping_messages, 1u);
  EXPECT_EQ(stats.pong_messages, 1u);
  EXPECT_EQ(stats.queryhit_messages, 1u);
  EXPECT_DOUBLE_EQ(stats.first_time, 10.0);
  EXPECT_DOUBLE_EQ(stats.last_time, 80.0);
}

TEST(TraceIo, BinaryRoundTripPreservesEverything) {
  const auto original = sample_trace();
  std::stringstream buffer;
  trace::write_binary(original, buffer);
  const auto loaded = trace::read_binary(buffer);
  ASSERT_EQ(loaded.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(trace::event_time(loaded.events()[i]),
              trace::event_time(original.events()[i]));
  }
  // Spot-check full field preservation on one of each kind.
  const auto& start = std::get<trace::SessionStart>(loaded.events()[0]);
  EXPECT_EQ(start.user_agent, "LimeWire/3.8.10");
  EXPECT_TRUE(start.ultrapeer);
  EXPECT_EQ(start.ip, 0x18000001u);
  const auto& msg = std::get<trace::MessageEvent>(loaded.events()[1]);
  EXPECT_EQ(msg.query, "free music");
  EXPECT_EQ(msg.hops, 1);
  const auto& end = std::get<trace::SessionEnd>(loaded.events()[6]);
  EXPECT_EQ(end.reason, trace::EndReason::kIdleProbe);
}

TEST(TraceIo, RejectsCorruptHeader) {
  std::stringstream buffer;
  buffer << "NOPE";
  EXPECT_THROW(trace::read_binary(buffer), std::runtime_error);
}

TEST(TraceIo, RejectsTruncatedBody) {
  const auto original = sample_trace();
  std::stringstream buffer;
  trace::write_binary(original, buffer);
  std::string data = buffer.str();
  data.resize(data.size() - 3);
  std::stringstream cut(data);
  EXPECT_THROW(trace::read_binary(cut), std::runtime_error);
}

TEST(TraceIo, TruncationAtEveryByteFailsCleanlyOrShortens) {
  // Round-trip with truncation: cutting the stream at EVERY byte position
  // must either parse as a valid shorter trace (cut exactly at a record
  // boundary) or throw a TraceIoError whose offset points inside the file
  // — never crash, never return garbage.
  const auto original = sample_trace();
  std::stringstream buffer;
  trace::write_binary(original, buffer);
  const std::string data = buffer.str();
  std::size_t clean_cuts = 0;
  std::size_t failed_cuts = 0;
  for (std::size_t cut = 0; cut < data.size(); ++cut) {
    std::stringstream in(data.substr(0, cut));
    try {
      const auto loaded = trace::read_binary(in);
      ++clean_cuts;
      EXPECT_LT(loaded.size(), original.size()) << "cut at " << cut;
    } catch (const trace::TraceIoError& e) {
      ++failed_cuts;
      EXPECT_LE(e.byte_offset(), cut) << "cut at " << cut;
      EXPECT_NE(std::string(e.what()).find("byte offset"), std::string::npos);
    }
  }
  // Both outcomes occur: record boundaries read as shorter traces, cuts
  // inside a record are diagnosed.
  EXPECT_EQ(clean_cuts, original.size());  // one boundary per record
  EXPECT_GT(failed_cuts, 0u);
}

TEST(TraceIo, UnknownRecordKindNamesTheOffset) {
  const auto original = sample_trace();
  std::stringstream buffer;
  trace::write_binary(original, buffer);
  std::string data = buffer.str();
  data[8] = '\x7f';  // first record-kind byte (after 8-byte header)
  std::stringstream in(data);
  try {
    trace::read_binary(in);
    FAIL() << "corrupt record kind was accepted";
  } catch (const trace::TraceIoError& e) {
    EXPECT_EQ(e.byte_offset(), 8u);
    EXPECT_NE(std::string(e.what()).find("unknown record kind"),
              std::string::npos);
  }
}

TEST(TraceIo, LoadBinaryPrefixesPathOnError) {
  const std::string path = ::testing::TempDir() + "/p2pgen_trace_cut.bin";
  const auto original = sample_trace();
  std::stringstream buffer;
  trace::write_binary(original, buffer);
  std::string data = buffer.str();
  data.resize(data.size() - 3);  // mid-record truncation
  {
    std::ofstream out(path, std::ios::binary);
    out.write(data.data(), static_cast<std::streamsize>(data.size()));
  }
  try {
    trace::load_binary(path);
    FAIL() << "truncated file was accepted";
  } catch (const trace::TraceIoError& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos);
    EXPECT_GT(e.byte_offset(), 0u);
  }
}

TEST(TraceIo, CsvHasHeaderAndOneRowPerEvent) {
  const auto t = sample_trace();
  std::stringstream out;
  trace::write_csv(t, out);
  std::string line;
  std::size_t rows = 0;
  while (std::getline(out, line)) ++rows;
  EXPECT_EQ(rows, t.size() + 1);
}

TEST(TraceIo, FileRoundTripViaWriterSink) {
  const std::string path = ::testing::TempDir() + "/p2pgen_trace_test.bin";
  const auto original = sample_trace();
  {
    trace::BinaryTraceWriter writer(path);
    for (const auto& event : original.events()) writer.on_event(event);
    writer.close();
    EXPECT_EQ(writer.events_written(), original.size());
    EXPECT_THROW(writer.on_event(original.events()[0]), std::logic_error);
  }
  const auto loaded = trace::load_binary(path);
  EXPECT_EQ(loaded.size(), original.size());
  EXPECT_EQ(loaded.stats().direct_connections, 2u);
}

// ------------------------------------------------------------ record codec

/// Lower-case hex of a byte string.
std::string hex(const std::string& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const unsigned char c : bytes) {
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 0xF]);
  }
  return out;
}

std::string encode(const trace::TraceEvent& event) {
  std::string out;
  trace::append_event_binary(event, out);
  return out;
}

/// One record of each kind, plus both query-length extremes that matter
/// to the encoder (a string longer than the 15-byte small-string buffer
/// and an empty one).
std::vector<trace::TraceEvent> pinned_events() {
  trace::SessionStart start;
  start.time = 12.5;
  start.session_id = 7;
  start.ip = 0x0A000001u;
  start.ultrapeer = true;
  start.user_agent = "LimeWire/4.2";

  trace::MessageEvent long_query;
  long_query.time = 100.25;
  long_query.session_id = 0x0102030405060708ULL;
  long_query.type = gnutella::MessageType::kQuery;
  long_query.ttl = 5;
  long_query.hops = 1;
  long_query.query = "free music download mp3";
  long_query.sha1 = true;
  long_query.guid_hash = 0xDEADBEEFCAFEF00DULL;

  trace::MessageEvent empty_query;
  empty_query.time = 3.0;
  empty_query.session_id = 42;
  empty_query.type = gnutella::MessageType::kQuery;
  empty_query.ttl = 7;
  empty_query.hops = 2;
  empty_query.source_ip = 0xC0A80001u;
  empty_query.shared_files = 1234;
  empty_query.guid_hash = 99;

  trace::SessionEnd end;
  end.time = 200.75;
  end.session_id = 7;
  end.reason = trace::EndReason::kIdleProbe;
  return {start, long_query, empty_query, end};
}

TEST(RecordCodec, EncodingIsPinnedForEveryRecordKind) {
  // Bytes of the version-2 record format; a change here is a format
  // change and needs a kVersion bump, not a new pin.
  const std::vector<trace::TraceEvent> events = pinned_events();
  EXPECT_EQ(hex(encode(events[0])),
            "01000000000000294007000000000000000100000a010c0000004c696d6557"
            "6972652f342e32");
  EXPECT_EQ(hex(encode(events[1])),
            "02000000000010594008070605040302018005010df0fecaefbeadde170000"
            "0066726565206d7573696320646f776e6c6f6164206d703301000000000000"
            "0000");
  EXPECT_EQ(hex(encode(events[2])),
            "0200000000000008402a00000000000000800702630000000000000000000000"
            "000100a8c0d2040000");
  EXPECT_EQ(hex(encode(events[3])), "030000000000186940070000000000000001");

  std::string header;
  trace::append_header_binary(header);
  EXPECT_EQ(hex(header), "5032505402000000");
}

TEST(RecordCodec, StreamAndDigestAreHeaderThenRecords) {
  const std::vector<trace::TraceEvent> events = pinned_events();
  trace::Trace t;
  std::string expected;
  trace::append_header_binary(expected);
  for (const auto& event : events) {
    t.append(event);
    expected += encode(event);
  }
  const trace::Trace sample = sample_trace();
  for (const auto& event : sample.events()) {
    t.append(event);
    expected += encode(event);
  }

  std::ostringstream os;
  trace::write_binary(t, os);
  EXPECT_EQ(os.str(), expected);
  EXPECT_EQ(trace::binary_digest(t),
            trace::fnv1a_update(trace::kFnvOffsetBasis, expected.data(),
                                expected.size()));

  const std::string path = ::testing::TempDir() + "/p2pgen_codec_sink.bin";
  {
    trace::BinaryTraceWriter writer(path);
    for (const auto& event : t.events()) writer.on_event(event);
  }
  std::ifstream in(path, std::ios::binary);
  const std::string written((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
  EXPECT_EQ(written, expected);
}

TEST(RecordCodec, RandomEventsRoundTripExactly) {
  stats::Rng rng(0x5EED);
  const auto random_string = [&rng] {
    // Mostly short strings, some past the small-string buffer, a few long.
    const std::uint64_t cap = rng.bernoulli(0.05) ? 4096 : 40;
    std::string s(rng.uniform_index(cap + 1), '\0');
    for (auto& c : s) c = static_cast<char>(rng.next_u64());
    return s;
  };
  std::string buffer;
  for (int i = 0; i < 12000; ++i) {
    trace::TraceEvent event;
    switch (rng.uniform_index(3)) {
      case 0: {
        trace::SessionStart s;
        s.time = rng.uniform(0.0, 1e7);
        s.session_id = rng.next_u64();
        s.ip = static_cast<std::uint32_t>(rng.next_u64());
        s.ultrapeer = rng.bernoulli(0.5);
        s.user_agent = random_string();
        event = s;
        break;
      }
      case 1: {
        trace::MessageEvent m;
        m.time = rng.uniform(0.0, 1e7);
        m.session_id = rng.next_u64();
        m.type = static_cast<gnutella::MessageType>(rng.next_u64());
        m.ttl = static_cast<std::uint8_t>(rng.next_u64());
        m.hops = static_cast<std::uint8_t>(rng.next_u64());
        m.query = random_string();
        m.sha1 = rng.bernoulli(0.5);
        m.source_ip = static_cast<std::uint32_t>(rng.next_u64());
        m.shared_files = static_cast<std::uint32_t>(rng.next_u64());
        m.guid_hash = rng.next_u64();
        event = m;
        break;
      }
      default: {
        trace::SessionEnd e;
        e.time = rng.uniform(0.0, 1e7);
        e.session_id = rng.next_u64();
        e.reason = static_cast<trace::EndReason>(rng.uniform_index(4));
        event = e;
        break;
      }
    }
    buffer.clear();
    trace::append_event_binary(event, buffer);
    const auto* data = reinterpret_cast<const std::uint8_t*>(buffer.data());
    ASSERT_EQ(trace::decode_event_binary(data, buffer.size()), event)
        << "event " << i;
  }
}

}  // namespace
}  // namespace p2pgen
