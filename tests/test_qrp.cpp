// Tests for the Query Routing Protocol table and its end-to-end effect:
// leaves receive forwarded queries only when their QRP table matches
// (paper Section 3.1).
#include <gtest/gtest.h>

#include "behavior/trace_simulation.hpp"
#include "gnutella/codec.hpp"
#include "gnutella/qrp.hpp"

namespace p2pgen::gnutella {
namespace {

TEST(QrpTable, InsertedKeywordsAlwaysMatch) {
  QrpTable table(16);
  table.insert_keywords_of("free music mp3");
  EXPECT_TRUE(table.might_match("free"));
  EXPECT_TRUE(table.might_match("free music"));
  EXPECT_TRUE(table.might_match("mp3 music free"));
}

TEST(QrpTable, ConjunctionSemantics) {
  QrpTable table(16);
  table.insert_keyword("alpha");
  table.insert_keyword("beta");
  EXPECT_TRUE(table.might_match("alpha beta"));
  // A query containing an un-inserted keyword fails the conjunction
  // (unless a hash collision happens; these words do not collide at 2^16).
  EXPECT_FALSE(table.might_match("alpha gammaqzw"));
  EXPECT_FALSE(table.might_match(""));
  EXPECT_FALSE(table.might_match("   "));
}

TEST(QrpTable, HashIsCaseInsensitive) {
  EXPECT_EQ(QrpTable::hash_keyword("MuSiC", 16), QrpTable::hash_keyword("music", 16));
  QrpTable table(16);
  table.insert_keyword("Music");
  EXPECT_TRUE(table.might_match("MUSIC"));
}

TEST(QrpTable, FalsePositiveRateIsSmallAtLowFill) {
  QrpTable table(16);
  for (int i = 0; i < 500; ++i) {
    table.insert_keyword("word" + std::to_string(i));
  }
  EXPECT_LT(table.fill_ratio(), 0.01);
  int false_positives = 0;
  constexpr int kProbes = 5000;
  for (int i = 0; i < kProbes; ++i) {
    if (table.might_match("absent" + std::to_string(i))) ++false_positives;
  }
  // ~500/65536 bits set -> fp rate below ~2 %.
  EXPECT_LT(false_positives, kProbes / 50);
}

TEST(QrpTable, MergeIsUnion) {
  QrpTable a(12);
  QrpTable b(12);
  a.insert_keyword("left");
  b.insert_keyword("right");
  a.merge(b);
  EXPECT_TRUE(a.might_match("left"));
  EXPECT_TRUE(a.might_match("right"));
  QrpTable c(13);
  EXPECT_THROW(a.merge(c), std::invalid_argument);
}

TEST(QrpTable, PatchRoundTrip) {
  QrpTable table(12);
  table.insert_keywords_of("some shared keywords here");
  const auto patch = table.to_patch();
  EXPECT_EQ(patch.size(), (std::size_t{1} << 12) / 8);
  const auto restored = QrpTable::from_patch(patch);
  EXPECT_EQ(restored.log2_size(), 12u);
  EXPECT_DOUBLE_EQ(restored.fill_ratio(), table.fill_ratio());
  EXPECT_TRUE(restored.might_match("shared keywords"));
  EXPECT_THROW(QrpTable::from_patch(std::vector<std::uint8_t>(3)),
               std::invalid_argument);
}

TEST(QrpTable, DensePatchRoundTripKeepsEveryBit) {
  // Enough keywords to set bits in every word of a 2^12 table, so the
  // codec's byte/word packing is exercised at every offset.
  QrpTable table(12);
  for (int i = 0; i < 1500; ++i) {
    table.insert_keyword("kw" + std::to_string(i));
  }
  const auto patch = table.to_patch();
  const auto restored = QrpTable::from_patch(patch);
  EXPECT_EQ(restored.to_patch(), patch);
  EXPECT_DOUBLE_EQ(restored.fill_ratio(), table.fill_ratio());
  std::size_t set = 0;
  for (const std::uint8_t byte : patch) {
    for (int b = 0; b < 8; ++b) set += (byte >> b) & 1u;
  }
  EXPECT_DOUBLE_EQ(table.fill_ratio(),
                   static_cast<double>(set) / static_cast<double>(1u << 12));
  EXPECT_GT(table.fill_ratio(), 0.2);
  for (int i = 0; i < 1500; ++i) {
    EXPECT_TRUE(restored.might_match("kw" + std::to_string(i)));
  }
}

TEST(QrpTable, TableSmallerThanOneWordRoundTrips) {
  // 2^5 = 32 bits: less than one 64-bit word, four patch bytes.
  QrpTable table(5);
  table.insert_keywords_of("a b c d e f g");
  const auto patch = table.to_patch();
  ASSERT_EQ(patch.size(), 4u);
  // Bit i of the table is bit i % 8 of patch byte i / 8.
  const std::uint32_t slot = QrpTable::hash_keyword("a", 5);
  EXPECT_TRUE((patch[slot / 8] >> (slot % 8)) & 1u);
  const auto restored = QrpTable::from_patch(patch);
  EXPECT_EQ(restored.log2_size(), 5u);
  EXPECT_EQ(restored.bit_count(), 32u);
  EXPECT_DOUBLE_EQ(restored.fill_ratio(), table.fill_ratio());
  EXPECT_GT(restored.fill_ratio(), 0.0);
  EXPECT_TRUE(restored.might_match("a g"));
  EXPECT_EQ(restored.to_patch(), patch);

  // Merging the restored table into an empty one keeps the fill exact.
  QrpTable merged(5);
  merged.merge(restored);
  EXPECT_DOUBLE_EQ(merged.fill_ratio(), table.fill_ratio());
}

TEST(QrpTable, RejectsBadSize) {
  EXPECT_THROW(QrpTable(0), std::invalid_argument);
  EXPECT_THROW(QrpTable(25), std::invalid_argument);
}

TEST(RouteTableUpdate, CodecRoundTrip) {
  stats::Rng rng(1);
  QrpTable table(12);
  table.insert_keywords_of("codec test words");
  const Message original = make_route_table_update(rng, table.to_patch());
  EXPECT_EQ(original.type(), MessageType::kRouteTableUpdate);
  const auto wire = encode(original);
  EXPECT_EQ(wire[16], 0x30);
  EXPECT_EQ(decode(wire), original);
}

TEST(QrpEndToEnd, LeafForwardingIsSuppressedByQrp) {
  // With forwarding on, the node must suppress most leaf forwards (leaf
  // tables are sparse) while still forwarding to ultrapeers.
  trace::Trace trace;
  behavior::TraceSimulationConfig config;
  config.duration_days = 0.03;
  config.arrival_rate = 1.5;
  config.seed = 515;
  config.node.forward_fanout = 16;
  behavior::TraceSimulation sim(core::WorkloadModel::paper_default(), config,
                                trace);
  sim.run();
  EXPECT_GT(sim.node().forwarded_messages(), 0u);
  EXPECT_GT(sim.node().qrp_suppressed(), 0u);
  // Suppressions should dominate leaf candidates: leaves share few
  // keyword sets relative to the query stream.
  EXPECT_GT(sim.node().qrp_suppressed(), sim.node().forwarded_messages() / 4);
  // Route-table updates were received and counted.
  EXPECT_GT(trace.stats().route_update_messages, 0u);
}

}  // namespace
}  // namespace p2pgen::gnutella
