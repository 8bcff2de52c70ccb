#include "trace/trace_io.hpp"

#include <cstring>
#include <ostream>
#include <stdexcept>
#include <type_traits>

namespace p2pgen::trace {
namespace {

constexpr char kMagic[4] = {'P', '2', 'P', 'T'};
constexpr std::uint32_t kVersion = 2;  // v2 adds MessageEvent::guid_hash

enum class RecordKind : std::uint8_t {
  kSessionStart = 1,
  kMessage = 2,
  kSessionEnd = 3,
};

/// Bytes of each record kind besides its string's characters, field by
/// field in format order.
// kind, time, session_id, ip, ultrapeer, user-agent length
constexpr std::size_t kStartFixedBytes = 1 + 8 + 8 + 4 + 1 + 4;
// kind, time, session_id, type, ttl, hops, guid_hash, query length, sha1,
// source_ip, shared_files
constexpr std::size_t kMessageFixedBytes =
    1 + 8 + 8 + 1 + 1 + 1 + 8 + 4 + 1 + 4 + 4;
// kind, time, session_id, reason
constexpr std::size_t kEndFixedBytes = 1 + 8 + 8 + 1;
static_assert(kRecordSessionIdOffset == sizeof(RecordKind) + sizeof(double));
static_assert(kMessageFixedBytes + kMaxStringBytes == kMaxRecordBytes);
static_assert(kStartFixedBytes <= kMessageFixedBytes);

/// Write cursor over bytes already sized in the output buffer.
class RecordWriter {
 public:
  explicit RecordWriter(char* at) : at_(at) {}

  template <typename T>
  void pod(T value) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::memcpy(at_, &value, sizeof(value));
    at_ += sizeof(value);
  }

  void string(const std::string& s) {
    pod(static_cast<std::uint32_t>(s.size()));
    std::memcpy(at_, s.data(), s.size());
    at_ += s.size();
  }

 private:
  char* at_;
};

/// Refuses a string the decoder's MemSource::get_string would refuse.
void check_string(const std::string& s, const char* field,
                  std::uint64_t record_offset) {
  if (s.size() > kMaxStringBytes) {
    throw TraceIoError("trace: " + std::string(field) + " of " +
                           std::to_string(s.size()) +
                           " bytes exceeds the record limit of " +
                           std::to_string(kMaxStringBytes),
                       record_offset);
  }
}

/// Read cursor over one encoded record (a spool frame payload).  Tracks
/// the offset so every failure can name where in the record it happened.
class MemSource {
 public:
  MemSource(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  std::uint64_t offset() const noexcept { return offset_; }
  std::size_t remaining() const noexcept {
    return size_ - static_cast<std::size_t>(offset_);
  }

  void get_bytes(void* out, std::size_t n) {
    std::memcpy(out, take(n), n);
  }

  template <typename T>
  T get_pod() {
    static_assert(std::is_trivially_copyable_v<T>);
    T value{};
    get_bytes(&value, sizeof(value));
    return value;
  }

  std::string get_string() { return std::string(get_string_view()); }

  /// A string field's bytes, in place.
  std::string_view get_string_view() {
    const auto at = offset_;
    const auto size = get_pod<std::uint32_t>();
    if (size > kMaxStringBytes) {
      throw TraceIoError("trace: oversized string (" + std::to_string(size) +
                             " bytes) at byte offset " + std::to_string(at),
                         at);
    }
    return {reinterpret_cast<const char*>(take(size)), size};
  }

 private:
  /// The next `n` bytes, consumed.
  const std::uint8_t* take(std::size_t n) {
    if (remaining() < n) {
      offset_ = size_;
      throw TraceIoError("trace: truncated record (needed " +
                             std::to_string(n - remaining()) +
                             " more byte(s)) at byte offset " +
                             std::to_string(offset_),
                         offset_);
    }
    const std::uint8_t* bytes = data_ + offset_;
    offset_ += n;
    return bytes;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::uint64_t offset_ = 0;
};

/// Decodes the fields of one record whose kind byte `in` has consumed.
/// With `query` non-null a message's query stays empty and `query` views
/// its bytes instead.
TraceEvent read_event(MemSource& in, RecordKind kind,
                      std::string_view* query = nullptr) {
  switch (kind) {
    case RecordKind::kSessionStart: {
      SessionStart s;
      s.time = in.get_pod<double>();
      s.session_id = in.get_pod<std::uint64_t>();
      s.ip = in.get_pod<std::uint32_t>();
      s.ultrapeer = in.get_pod<std::uint8_t>() != 0;
      s.user_agent = in.get_string();
      return s;
    }
    case RecordKind::kMessage: {
      MessageEvent m;
      m.time = in.get_pod<double>();
      m.session_id = in.get_pod<std::uint64_t>();
      m.type = static_cast<gnutella::MessageType>(in.get_pod<std::uint8_t>());
      m.ttl = in.get_pod<std::uint8_t>();
      m.hops = in.get_pod<std::uint8_t>();
      m.guid_hash = in.get_pod<std::uint64_t>();
      if (query != nullptr) {
        *query = in.get_string_view();
      } else {
        m.query = in.get_string();
      }
      m.sha1 = in.get_pod<std::uint8_t>() != 0;
      m.source_ip = in.get_pod<std::uint32_t>();
      m.shared_files = in.get_pod<std::uint32_t>();
      return m;
    }
    case RecordKind::kSessionEnd: {
      SessionEnd e;
      e.time = in.get_pod<double>();
      e.session_id = in.get_pod<std::uint64_t>();
      e.reason = static_cast<EndReason>(in.get_pod<std::uint8_t>());
      return e;
    }
  }
  throw TraceIoError("trace: unknown record kind " +
                         std::to_string(static_cast<int>(kind)) +
                         " at byte offset 0",
                     0);
}

}  // namespace

void write_binary(const Trace& trace, std::ostream& out) {
  std::string record;
  append_header_binary(record);
  out.write(record.data(), static_cast<std::streamsize>(record.size()));
  for (const auto& event : trace.events()) {
    record.clear();
    append_event_binary(event, record);
    out.write(record.data(), static_cast<std::streamsize>(record.size()));
  }
  if (!out) throw std::runtime_error("trace: write failure");
}

void SalvageReport::merge_shard(SalvageReport&& other, unsigned shard) {
  records_recovered += other.records_recovered;
  frames_lost += other.frames_lost;
  bytes_quarantined += other.bytes_quarantined;
  censored_sessions += other.censored_sessions;
  censored_queries += other.censored_queries;
  for (auto& range : other.ranges) {
    range.shard = shard;
    ranges.push_back(std::move(range));
  }
}

void append_event_binary(const TraceEvent& event, std::string& out) {
  const std::size_t at = out.size();
  if (const auto* start = std::get_if<SessionStart>(&event)) {
    check_string(start->user_agent, "user agent", at);
    out.resize(at + kStartFixedBytes + start->user_agent.size());
    RecordWriter w(out.data() + at);
    w.pod(RecordKind::kSessionStart);
    w.pod(start->time);
    w.pod(start->session_id);
    w.pod(start->ip);
    w.pod(static_cast<std::uint8_t>(start->ultrapeer));
    w.string(start->user_agent);
  } else if (const auto* msg = std::get_if<MessageEvent>(&event)) {
    check_string(msg->query, "query", at);
    out.resize(at + kMessageFixedBytes + msg->query.size());
    RecordWriter w(out.data() + at);
    w.pod(RecordKind::kMessage);
    w.pod(msg->time);
    w.pod(msg->session_id);
    w.pod(static_cast<std::uint8_t>(msg->type));
    w.pod(msg->ttl);
    w.pod(msg->hops);
    w.pod(msg->guid_hash);
    w.string(msg->query);
    w.pod(static_cast<std::uint8_t>(msg->sha1));
    w.pod(msg->source_ip);
    w.pod(msg->shared_files);
  } else {
    const auto& end = std::get<SessionEnd>(event);
    out.resize(at + kEndFixedBytes);
    RecordWriter w(out.data() + at);
    w.pod(RecordKind::kSessionEnd);
    w.pod(end.time);
    w.pod(end.session_id);
    w.pod(static_cast<std::uint8_t>(end.reason));
  }
}

void append_header_binary(std::string& out) {
  out.append(kMagic, sizeof(kMagic));
  out.append(reinterpret_cast<const char*>(&kVersion), sizeof(kVersion));
}

TraceEvent decode_event_binary(const std::uint8_t* data, std::size_t size) {
  return decode_event_binary(data, size, nullptr);
}

TraceEvent decode_event_binary(const std::uint8_t* data, std::size_t size,
                               std::string_view* query) {
  MemSource source(data, size);
  std::uint8_t kind_byte = 0;
  source.get_bytes(&kind_byte, 1);
  TraceEvent event =
      read_event(source, static_cast<RecordKind>(kind_byte), query);
  if (source.remaining() != 0) {
    throw TraceIoError("trace: record carries " +
                           std::to_string(source.remaining()) +
                           " trailing byte(s)",
                       source.offset());
  }
  return event;
}

std::uint64_t binary_digest(const Trace& trace) {
  std::string record;
  append_header_binary(record);
  std::uint64_t hash =
      fnv1a_update(kFnvOffsetBasis, record.data(), record.size());
  for (const auto& event : trace.events()) {
    record.clear();
    append_event_binary(event, record);
    hash = fnv1a_update(hash, record.data(), record.size());
  }
  return hash;
}

void write_csv(const Trace& trace, std::ostream& out) {
  out << "kind,time,session_id,ip,ultrapeer,user_agent,type,ttl,hops,query,"
         "sha1,source_ip,shared_files,guid_hash,end_reason\n";
  for (const auto& event : trace.events()) {
    if (const auto* s = std::get_if<SessionStart>(&event)) {
      out << "start," << s->time << ',' << s->session_id << ',' << s->ip << ','
          << (s->ultrapeer ? 1 : 0) << ",\"" << s->user_agent
          << "\",,,,,,,,\n";
    } else if (const auto* m = std::get_if<MessageEvent>(&event)) {
      out << "msg," << m->time << ',' << m->session_id << ",,,,"
          << gnutella::message_type_name(m->type) << ','
          << static_cast<int>(m->ttl) << ',' << static_cast<int>(m->hops)
          << ",\"" << m->query << "\"," << (m->sha1 ? 1 : 0) << ','
          << m->source_ip << ',' << m->shared_files << ',' << m->guid_hash
          << ",\n";
    } else {
      const auto& e = std::get<SessionEnd>(event);
      out << "end," << e.time << ',' << e.session_id << ",,,,,,,,,,,,"
          << static_cast<int>(e.reason) << '\n';
    }
  }
}

}  // namespace p2pgen::trace
