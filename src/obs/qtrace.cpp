#include "obs/qtrace.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <limits>
#include <ostream>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "util/crc32.hpp"
#include "util/fnv1a.hpp"

namespace p2pgen::obs {

namespace {

/// The sampling mix: FNV-1a over the key's little-endian bytes.  GUID
/// hashes are already well distributed, but mixing again keeps the
/// decision independent of how GuidHash folds bits (and of any future
/// change to the key's provenance).
std::uint64_t sample_mix(std::uint64_t query) noexcept {
  std::uint64_t hash = util::kFnvOffsetBasis;
  for (int i = 0; i < 8; ++i) {
    hash ^= (query >> (8 * i)) & 0xffU;
    hash *= util::kFnvPrime;
  }
  return hash;
}

std::uint64_t sample_threshold(double rate) noexcept {
  if (!(rate > 0.0)) return 0;
  if (rate >= 1.0) return std::numeric_limits<std::uint64_t>::max();
  // 2^64 * rate, computed in long double so rates near 1 don't round to
  // exactly 2^64 (which would overflow the cast).
  const long double scaled =
      static_cast<long double>(rate) * 18446744073709551616.0L;
  if (scaled >= 18446744073709551615.0L) {
    return std::numeric_limits<std::uint64_t>::max();
  }
  return static_cast<std::uint64_t>(scaled);
}

std::uint64_t double_bits(double value) noexcept {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

double bits_double(std::uint64_t bits) noexcept {
  double value = 0.0;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

/// Sidecar wire format (all little-endian):
///   "p2pq" | u32 version | u64 count | count * 32-byte records
/// Record: u64 time_bits | u64 query | u64 value_bits | u32 shard |
///         u8 hop | u8 ttl | u8 hops | u8 pad(0)
constexpr char kQtraceMagic[4] = {'p', '2', 'p', 'q'};
// v2 appends a CRC32 trailer over the record bytes so a resume can tell
// a damaged sidecar from a valid one (and rebuild it, DESIGN.md §14).
constexpr std::uint32_t kQtraceFormatVersion = 2;
constexpr std::size_t kQtraceRecordBytes = 32;

void put_u32(unsigned char* out, std::uint32_t v) noexcept {
  out[0] = static_cast<unsigned char>(v & 0xffU);
  out[1] = static_cast<unsigned char>((v >> 8) & 0xffU);
  out[2] = static_cast<unsigned char>((v >> 16) & 0xffU);
  out[3] = static_cast<unsigned char>((v >> 24) & 0xffU);
}

void put_u64(unsigned char* out, std::uint64_t v) noexcept {
  for (int i = 0; i < 8; ++i) {
    out[i] = static_cast<unsigned char>((v >> (8 * i)) & 0xffU);
  }
}

std::uint32_t get_u32(const unsigned char* in) noexcept {
  return static_cast<std::uint32_t>(in[0]) |
         (static_cast<std::uint32_t>(in[1]) << 8) |
         (static_cast<std::uint32_t>(in[2]) << 16) |
         (static_cast<std::uint32_t>(in[3]) << 24);
}

std::uint64_t get_u64(const unsigned char* in) noexcept {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(in[i]) << (8 * i);
  }
  return v;
}

/// Record layout: time_bits u64 | query u64 | value is folded into the
/// digest/serialization as u64 bits, shard u32, then hop/ttl/hops/pad.
/// Exactly kQtraceRecordBytes.
void encode_record(unsigned char* out, const QueryHopEvent& e) noexcept {
  put_u64(out + 0, double_bits(e.time));
  put_u64(out + 8, e.query);
  put_u64(out + 16, double_bits(e.value));
  put_u32(out + 24, e.shard);
  out[28] = static_cast<unsigned char>(e.hop);
  out[29] = e.ttl;
  out[30] = e.hops;
  out[31] = 0;
}

QueryHopEvent decode_record(const unsigned char* in) {
  QueryHopEvent e;
  e.time = bits_double(get_u64(in + 0));
  e.query = get_u64(in + 8);
  e.value = bits_double(get_u64(in + 16));
  e.shard = get_u32(in + 24);
  if (in[28] >= kQueryHopCount) {
    throw std::runtime_error("qtrace: unknown hop kind " +
                             std::to_string(int{in[28]}));
  }
  e.hop = static_cast<QueryHop>(in[28]);
  e.ttl = in[29];
  e.hops = in[30];
  return e;
}

class ScopedFile {
 public:
  explicit ScopedFile(std::FILE* file) : file_(file) {}
  ~ScopedFile() {
    if (file_ != nullptr) std::fclose(file_);
  }
  ScopedFile(const ScopedFile&) = delete;
  ScopedFile& operator=(const ScopedFile&) = delete;
  std::FILE* get() const noexcept { return file_; }
  int close() {
    const int rc = std::fclose(file_);
    file_ = nullptr;
    return rc;
  }

 private:
  std::FILE* file_;
};

}  // namespace

const char* query_hop_name(QueryHop hop) noexcept {
  switch (hop) {
    case QueryHop::kQueryEmitted: return "query_emitted";
    case QueryHop::kQueryReceived: return "query_received";
    case QueryHop::kForwarded: return "forwarded";
    case QueryHop::kDuplicateDropped: return "duplicate_dropped";
    case QueryHop::kTtlExpired: return "ttl_expired";
    case QueryHop::kQrpSuppressed: return "qrp_suppressed";
    case QueryHop::kShed: return "shed";
    case QueryHop::kDropLoss: return "loss";
    case QueryHop::kCorrupted: return "corrupted";
    case QueryHop::kDropDeadLink: return "dead_link";
    case QueryHop::kHitEmitted: return "hit_emitted";
    case QueryHop::kHitReceived: return "hit_received";
    case QueryHop::kHitReturned: return "hit_returned";
  }
  return "unknown";
}

bool operator==(const QueryHopEvent& a, const QueryHopEvent& b) noexcept {
  return double_bits(a.time) == double_bits(b.time) && a.query == b.query &&
         a.shard == b.shard && a.hop == b.hop && a.ttl == b.ttl &&
         a.hops == b.hops && double_bits(a.value) == double_bits(b.value);
}

bool qtrace_sampled(std::uint64_t query, double sample_rate) noexcept {
  if (!(sample_rate > 0.0)) return false;
  if (sample_rate >= 1.0) return true;
  return sample_mix(query) < sample_threshold(sample_rate);
}

QueryTracer::QueryTracer(const QtraceConfig& config)
    : threshold_(sample_threshold(config.sample_rate)),
      always_(config.sample_rate >= 1.0),
      gate_(config.gate_time) {}

bool QueryTracer::sampled(std::uint64_t query) const noexcept {
  if (always_) return true;
  if (threshold_ == 0) return false;
  return sample_mix(query) < threshold_;
}

void QueryTracer::record(double time, std::uint64_t query, QueryHop hop,
                         std::uint8_t ttl, std::uint8_t hops, double value) {
  if (time < gate_) return;
  QueryHopEvent event;
  event.time = time;
  event.query = query;
  event.hop = hop;
  event.ttl = ttl;
  event.hops = hops;
  event.value = value;
  events_.push_back(event);
}

void QueryTracer::record_query_emitted(double time, std::uint64_t query,
                                       std::uint8_t ttl, std::uint8_t hops) {
  // The latency clock starts at the FIRST emission even during warm-up,
  // so hits answered after the gate still measure from the true emit.
  first_emit_.emplace(query, time);
  record(time, query, QueryHop::kQueryEmitted, ttl, hops);
}

double QueryTracer::latency_since_emit(std::uint64_t query,
                                       double now) const noexcept {
  const auto it = first_emit_.find(query);
  if (it == first_emit_.end()) return -1.0;
  return now - it->second;
}

std::vector<QueryHopEvent> merge_qtrace(
    std::vector<std::vector<QueryHopEvent>> shards) {
  std::size_t total = 0;
  for (const auto& shard : shards) total += shard.size();
  std::vector<QueryHopEvent> merged;
  merged.reserve(total);

  // Same k-way merge discipline as trace::merge_traces: repeatedly take
  // the head with the strictly smallest time, scanning shards in
  // ascending index so ties resolve to the lowest shard, and events
  // within one shard keep their recorded order.
  std::vector<std::size_t> cursor(shards.size(), 0);
  while (merged.size() < total) {
    std::size_t best = shards.size();
    for (std::size_t k = 0; k < shards.size(); ++k) {
      if (cursor[k] >= shards[k].size()) continue;
      if (best == shards.size() ||
          shards[k][cursor[k]].time < shards[best][cursor[best]].time) {
        best = k;
      }
    }
    QueryHopEvent event = shards[best][cursor[best]++];
    event.shard = static_cast<std::uint32_t>(best);
    merged.push_back(event);
  }
  return merged;
}

std::uint64_t qtrace_digest(
    const std::vector<QueryHopEvent>& events) noexcept {
  std::uint64_t hash = util::kFnvOffsetBasis;
  unsigned char record[kQtraceRecordBytes];
  for (const QueryHopEvent& event : events) {
    encode_record(record, event);
    hash = util::fnv1a_update(hash, record, sizeof(record));
  }
  return hash;
}

void publish_qtrace_metrics(const std::vector<QueryHopEvent>& merged) {
  auto& registry = Registry::global();

  auto events_total = registry.counter("qtrace.events");
  auto sampled_queries = registry.counter("qtrace.sampled_queries");
  std::array<Counter, kQueryHopCount> per_hop = {
      registry.counter("qtrace.emitted.query"),
      registry.counter("qtrace.received.query"),
      registry.counter("qtrace.forwarded"),
      registry.counter("qtrace.drop.duplicate"),
      registry.counter("qtrace.drop.ttl_expired"),
      registry.counter("qtrace.drop.qrp_suppressed"),
      registry.counter("qtrace.drop.shed"),
      registry.counter("qtrace.drop.loss"),
      registry.counter("qtrace.drop.corrupted"),
      registry.counter("qtrace.drop.dead_link"),
      registry.counter("qtrace.emitted.hit"),
      registry.counter("qtrace.received.hit"),
      registry.counter("qtrace.hit_returned"),
  };

  // Hop counts cluster at small integers; fan-out is bounded by the node
  // degree; hit latency spans ms (one-hop answer) to minutes (jitter +
  // retries), so that one is log-spaced.
  auto hop_count = registry.histogram(
      "qtrace.hop_count", {0.5, 1.5, 2.5, 3.5, 4.5, 5.5, 6.5, 7.5, 9.5});
  auto fanout = registry.histogram(
      "qtrace.fanout", {0.5, 1.5, 2.5, 4.5, 8.5, 16.5, 32.5, 64.5, 128.5});
  auto hit_latency = registry.histogram(
      "qtrace.hit_latency_seconds",
      {0.001, 0.01, 0.1, 0.5, 1.0, 5.0, 30.0, 120.0, 600.0});

  // Per-query state for the distinct-query and fan-out aggregates.  The
  // merged order is deterministic, so iteration (and therefore every
  // number below) is identical at any thread count.
  struct QueryAgg {
    std::uint64_t forwards = 0;
    bool received = false;
  };
  std::unordered_map<std::uint64_t, QueryAgg> per_query;
  per_query.reserve(merged.size() / 4 + 1);

  for (const QueryHopEvent& event : merged) {
    events_total.add(1);
    per_hop[static_cast<std::size_t>(event.hop)].add(1);
    switch (event.hop) {
      case QueryHop::kQueryReceived:
        hop_count.observe(static_cast<double>(event.hops));
        per_query[event.query].received = true;
        break;
      case QueryHop::kForwarded:
        per_query[event.query].forwards += 1;
        break;
      case QueryHop::kQueryEmitted:
        per_query[event.query];  // counts as a distinct sampled query
        break;
      case QueryHop::kHitReturned:
        if (event.value >= 0.0) hit_latency.observe(event.value);
        break;
      default:
        break;
    }
  }

  sampled_queries.add(static_cast<std::uint64_t>(per_query.size()));

  // Fan-out is per query that actually reached the node, observed in a
  // deterministic order (sorted keys, not hash order).
  std::vector<std::pair<std::uint64_t, QueryAgg>> ordered(per_query.begin(),
                                                          per_query.end());
  std::sort(ordered.begin(), ordered.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [key, agg] : ordered) {
    (void)key;
    if (agg.received) fanout.observe(static_cast<double>(agg.forwards));
  }
}

std::string qtrace_sidecar_path(const std::string& shard_dir) {
  return shard_dir + "/qtrace.bin";
}

void save_qtrace(const std::string& path,
                 const std::vector<QueryHopEvent>& events) {
  const std::string tmp = path + ".tmp";
  {
    ScopedFile file(std::fopen(tmp.c_str(), "wb"));
    if (file.get() == nullptr) {
      throw std::runtime_error("qtrace: cannot open " + tmp);
    }
    unsigned char header[16];
    std::memcpy(header, kQtraceMagic, 4);
    put_u32(header + 4, kQtraceFormatVersion);
    put_u64(header + 8, static_cast<std::uint64_t>(events.size()));
    if (std::fwrite(header, 1, sizeof(header), file.get()) !=
        sizeof(header)) {
      throw std::runtime_error("qtrace: short write to " + tmp);
    }
    unsigned char record[kQtraceRecordBytes];
    std::uint32_t crc = util::crc32_init();
    for (const QueryHopEvent& event : events) {
      encode_record(record, event);
      crc = util::crc32_update(crc, record, sizeof(record));
      if (std::fwrite(record, 1, sizeof(record), file.get()) !=
          sizeof(record)) {
        throw std::runtime_error("qtrace: short write to " + tmp);
      }
    }
    unsigned char trailer[4];
    put_u32(trailer, util::crc32_final(crc));
    if (std::fwrite(trailer, 1, sizeof(trailer), file.get()) !=
        sizeof(trailer)) {
      throw std::runtime_error("qtrace: short write to " + tmp);
    }
    if (std::fflush(file.get()) != 0 || file.close() != 0) {
      throw std::runtime_error("qtrace: flush failed for " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw std::runtime_error("qtrace: rename failed for " + path);
  }
}

bool load_qtrace(const std::string& path, std::vector<QueryHopEvent>& out) {
  out.clear();
  ScopedFile file(std::fopen(path.c_str(), "rb"));
  if (file.get() == nullptr) return false;

  unsigned char header[16];
  if (std::fread(header, 1, sizeof(header), file.get()) != sizeof(header)) {
    throw std::runtime_error("qtrace: truncated header in " + path);
  }
  if (std::memcmp(header, kQtraceMagic, 4) != 0) {
    throw std::runtime_error("qtrace: bad magic in " + path);
  }
  const std::uint32_t version = get_u32(header + 4);
  if (version != kQtraceFormatVersion) {
    throw std::runtime_error("qtrace: unsupported version " +
                             std::to_string(version) + " in " + path);
  }
  const std::uint64_t count = get_u64(header + 8);
  out.reserve(static_cast<std::size_t>(count));
  unsigned char record[kQtraceRecordBytes];
  std::uint32_t crc = util::crc32_init();
  for (std::uint64_t i = 0; i < count; ++i) {
    if (std::fread(record, 1, sizeof(record), file.get()) !=
        sizeof(record)) {
      throw std::runtime_error("qtrace: truncated record in " + path);
    }
    crc = util::crc32_update(crc, record, sizeof(record));
    out.push_back(decode_record(record));
  }
  unsigned char trailer[4];
  if (std::fread(trailer, 1, sizeof(trailer), file.get()) !=
      sizeof(trailer)) {
    throw std::runtime_error("qtrace: truncated checksum in " + path);
  }
  if (get_u32(trailer) != util::crc32_final(crc)) {
    throw std::runtime_error("qtrace: checksum mismatch in " + path);
  }
  if (std::fread(record, 1, 1, file.get()) == 1) {
    throw std::runtime_error("qtrace: trailing bytes in " + path);
  }
  return true;
}

void write_qtrace_json(std::ostream& out,
                       const std::vector<QueryHopEvent>& events) {
  out << "{\n  \"qtrace\": [";
  bool first = true;
  char buffer[64];
  for (const QueryHopEvent& event : events) {
    out << (first ? "\n" : ",\n");
    first = false;
    std::snprintf(buffer, sizeof(buffer), "%.9f", event.time);
    out << "    {\"t\": " << buffer << ", \"query\": \"";
    std::snprintf(buffer, sizeof(buffer), "%016llx",
                  static_cast<unsigned long long>(event.query));
    out << buffer << "\", \"shard\": " << event.shard << ", \"hop\": \""
        << query_hop_name(event.hop) << "\", \"ttl\": " << int{event.ttl}
        << ", \"hops\": " << int{event.hops};
    if (event.value >= 0.0) {
      std::snprintf(buffer, sizeof(buffer), "%.9f", event.value);
      out << ", \"latency_s\": " << buffer;
    }
    out << "}";
  }
  out << "\n  ],\n  \"count\": " << events.size() << "\n}\n";
}

void write_qtrace_flow_events(std::ostream& out,
                              const std::vector<QueryHopEvent>& events,
                              bool any_prior) {
  // Per-query positions so each journey becomes one flow chain: the
  // first hop starts ("s") the flow, intermediate hops pass it through
  // ("t"), the last hop ends it ("f").
  std::unordered_map<std::uint64_t, std::uint64_t> remaining;
  for (const QueryHopEvent& event : events) ++remaining[event.query];
  std::unordered_map<std::uint64_t, bool> started;

  bool first = !any_prior;
  char buffer[64];
  for (const QueryHopEvent& event : events) {
    const double ts_us = event.time * 1e6;
    const std::uint64_t left = --remaining[event.query];
    bool& begun = started[event.query];

    std::snprintf(buffer, sizeof(buffer), "%.3f", ts_us);
    // A short visible slice at the hop, so the flow arrows have anchors.
    out << (first ? "" : ",") << "\n  {\"name\":\""
        << query_hop_name(event.hop) << "\",\"cat\":\"qtrace\",\"ph\":\"X\""
        << ",\"ts\":" << buffer << ",\"dur\":50,\"pid\":2,\"tid\":"
        << event.shard << ",\"args\":{\"query\":\"";
    first = false;
    std::snprintf(buffer, sizeof(buffer), "%016llx",
                  static_cast<unsigned long long>(event.query));
    out << buffer << "\",\"ttl\":" << int{event.ttl}
        << ",\"hops\":" << int{event.hops} << "}}";

    const char* phase = !begun ? "s" : (left == 0 ? "f" : "t");
    // Single-event journeys need no arrow.
    if (begun || left > 0) {
      std::snprintf(buffer, sizeof(buffer), "%.3f", ts_us);
      out << ",\n  {\"name\":\"query\",\"cat\":\"qtrace\",\"ph\":\"" << phase
          << "\"";
      if (phase[0] == 'f') out << ",\"bp\":\"e\"";
      out << ",\"ts\":" << buffer << ",\"pid\":2,\"tid\":" << event.shard
          << ",\"id\":\"";
      std::snprintf(buffer, sizeof(buffer), "%016llx",
                    static_cast<unsigned long long>(event.query));
      out << buffer << "\"}";
    }
    begun = true;
  }
}

}  // namespace p2pgen::obs
