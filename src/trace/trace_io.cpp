#include "trace/trace_io.hpp"

#include <cstring>
#include <fstream>
#include <istream>
#include <memory>
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

/// Refuses a string the decoder's source_get_string would refuse.
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

/// Shared helpers for the read cursors below (stream- and memory-backed).
/// Both expose get_bytes/get_pod/get_string/offset; read_event is a
/// template over the cursor so one decoder serves files and spool frames.
template <typename Source>
std::string source_get_string(Source& in) {
  const auto at = in.offset();
  const auto size = in.template get_pod<std::uint32_t>();
  if (size > kMaxStringBytes) {
    throw TraceIoError("trace: oversized string (" + std::to_string(size) +
                           " bytes) at byte offset " + std::to_string(at),
                       at);
  }
  std::string s(size, '\0');
  if (size > 0) in.get_bytes(s.data(), size);
  return s;
}

/// Read cursor: tracks the absolute byte offset so every failure can name
/// where in the stream it happened.
class ByteSource {
 public:
  explicit ByteSource(std::istream& in) : in_(in) {}

  std::uint64_t offset() const noexcept { return offset_; }

  void get_bytes(void* data, std::size_t n) {
    in_.read(static_cast<char*>(data), static_cast<std::streamsize>(n));
    const auto got = static_cast<std::size_t>(in_.gcount());
    offset_ += got;
    if (got != n) {
      throw TraceIoError("trace: truncated input (needed " +
                             std::to_string(n - got) +
                             " more byte(s)) at byte offset " +
                             std::to_string(offset_),
                         offset_);
    }
  }

  template <typename T>
  T get_pod() {
    static_assert(std::is_trivially_copyable_v<T>);
    T value{};
    get_bytes(&value, sizeof(value));
    return value;
  }

  std::string get_string() { return source_get_string(*this); }

  /// Reads the next record-kind byte; returns false on a clean EOF (no
  /// bytes available at a record boundary).
  bool get_record_kind(std::uint8_t& kind) {
    in_.read(reinterpret_cast<char*>(&kind), 1);
    if (in_.gcount() == 0) return false;
    ++offset_;
    return true;
  }

  /// Consumes the rest of the stream, returning how many bytes it held.
  /// Used by the lenient reader to size the truncated tail.
  std::uint64_t drain_remaining() {
    in_.clear();
    char buf[4096];
    std::uint64_t n = 0;
    while (in_.read(buf, sizeof(buf)) || in_.gcount() > 0) {
      n += static_cast<std::uint64_t>(in_.gcount());
      if (in_.gcount() == 0) break;
    }
    return n;
  }

 private:
  std::istream& in_;
  std::uint64_t offset_ = 0;
};

/// Memory-backed cursor over one spool frame payload.
class MemSource {
 public:
  MemSource(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  std::uint64_t offset() const noexcept { return offset_; }
  std::size_t remaining() const noexcept {
    return size_ - static_cast<std::size_t>(offset_);
  }

  void get_bytes(void* out, std::size_t n) {
    if (remaining() < n) {
      offset_ = size_;
      throw TraceIoError("trace: truncated record (needed " +
                             std::to_string(n - remaining()) +
                             " more byte(s)) at byte offset " +
                             std::to_string(offset_),
                         offset_);
    }
    std::memcpy(out, data_ + offset_, n);
    offset_ += n;
  }

  template <typename T>
  T get_pod() {
    static_assert(std::is_trivially_copyable_v<T>);
    T value{};
    get_bytes(&value, sizeof(value));
    return value;
  }

  std::string get_string() { return source_get_string(*this); }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::uint64_t offset_ = 0;
};

template <typename Source>
TraceEvent read_event(Source& in, RecordKind kind, std::uint32_t version,
                      std::uint64_t record_offset) {
  switch (kind) {
    case RecordKind::kSessionStart: {
      SessionStart s;
      s.time = in.template get_pod<double>();
      s.session_id = in.template get_pod<std::uint64_t>();
      s.ip = in.template get_pod<std::uint32_t>();
      s.ultrapeer = in.template get_pod<std::uint8_t>() != 0;
      s.user_agent = in.get_string();
      return s;
    }
    case RecordKind::kMessage: {
      MessageEvent m;
      m.time = in.template get_pod<double>();
      m.session_id = in.template get_pod<std::uint64_t>();
      m.type = static_cast<gnutella::MessageType>(in.template get_pod<std::uint8_t>());
      m.ttl = in.template get_pod<std::uint8_t>();
      m.hops = in.template get_pod<std::uint8_t>();
      if (version >= 2) m.guid_hash = in.template get_pod<std::uint64_t>();
      m.query = in.get_string();
      m.sha1 = in.template get_pod<std::uint8_t>() != 0;
      m.source_ip = in.template get_pod<std::uint32_t>();
      m.shared_files = in.template get_pod<std::uint32_t>();
      return m;
    }
    case RecordKind::kSessionEnd: {
      SessionEnd e;
      e.time = in.template get_pod<double>();
      e.session_id = in.template get_pod<std::uint64_t>();
      e.reason = static_cast<EndReason>(in.template get_pod<std::uint8_t>());
      return e;
    }
  }
  throw TraceIoError("trace: unknown record kind " +
                         std::to_string(static_cast<int>(kind)) +
                         " at byte offset " + std::to_string(record_offset),
                     record_offset);
}

std::uint32_t read_header(ByteSource& in) {
  char magic[4];
  in.get_bytes(magic, sizeof(magic));
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    throw TraceIoError("trace: bad magic at byte offset 0", 0);
  }
  const auto version = in.get_pod<std::uint32_t>();
  if (version == 0 || version > kVersion) {
    throw TraceIoError("trace: unsupported version " +
                           std::to_string(version) + " at byte offset 4",
                       4);
  }
  return version;
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

Trace read_binary(std::istream& in) {
  ByteSource source(in);
  const std::uint32_t version = read_header(source);
  Trace trace;
  while (true) {
    const std::uint64_t record_offset = source.offset();
    std::uint8_t kind_byte = 0;
    if (!source.get_record_kind(kind_byte)) break;  // clean EOF
    trace.append(read_event(source, static_cast<RecordKind>(kind_byte),
                            version, record_offset));
  }
  return trace;
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

Trace read_trace_lenient(std::istream& in, SalvageReport* report) {
  ByteSource source(in);
  const std::uint32_t version = read_header(source);  // header damage: throws
  Trace trace;
  SalvageReport local;
  double last_time = 0.0;
  while (true) {
    const std::uint64_t record_offset = source.offset();
    std::uint8_t kind_byte = 0;
    try {
      if (!source.get_record_kind(kind_byte)) break;  // clean EOF
      TraceEvent event = read_event(source, static_cast<RecordKind>(kind_byte),
                                    version, record_offset);
      last_time = event_time(event);
      trace.append(std::move(event));
    } catch (const TraceIoError& e) {
      // Torn or corrupt record: keep the prefix, quarantine the tail as
      // one trailing range.  A flat stream has no frame boundaries to
      // resync on, so the damage always runs to the end (+inf).
      SalvageRange range;
      range.byte_begin = record_offset;
      range.byte_end = source.offset() + source.drain_remaining();
      range.frames_lost = 1;  // lower bound: at least the record we hit
      range.time_before = last_time;
      range.detail = e.what();
      local.frames_lost = range.frames_lost;
      local.bytes_quarantined = range.byte_end - range.byte_begin;
      local.ranges.push_back(std::move(range));
      break;
    }
  }
  local.records_recovered = trace.size();
  if (report != nullptr) *report = local;
  return trace;
}

Trace load_trace_lenient(const std::string& path, SalvageReport* report) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("trace: cannot open " + path);
  return read_trace_lenient(in, report);
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
  MemSource source(data, size);
  std::uint8_t kind_byte = 0;
  source.get_bytes(&kind_byte, 1);
  TraceEvent event =
      read_event(source, static_cast<RecordKind>(kind_byte), kVersion, 0);
  if (source.remaining() != 0) {
    throw TraceIoError("trace: record carries " +
                           std::to_string(source.remaining()) +
                           " trailing byte(s)",
                       source.offset());
  }
  return event;
}

void save_binary(const Trace& trace, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("trace: cannot open " + path);
  write_binary(trace, out);
}

Trace load_binary(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("trace: cannot open " + path);
  try {
    return read_binary(in);
  } catch (const TraceIoError& e) {
    throw TraceIoError(path + ": " + e.what(), e.byte_offset());
  }
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

struct BinaryTraceWriter::Impl {
  std::ofstream out;
  std::string record;
  bool closed = false;

  void write_record() {
    out.write(record.data(), static_cast<std::streamsize>(record.size()));
  }
};

BinaryTraceWriter::BinaryTraceWriter(const std::string& path)
    : impl_(std::make_unique<Impl>()) {
  impl_->out.open(path, std::ios::binary);
  if (!impl_->out) throw std::runtime_error("trace: cannot open " + path);
  append_header_binary(impl_->record);
  impl_->write_record();
}

BinaryTraceWriter::~BinaryTraceWriter() {
  try {
    close();
  } catch (...) {
    // Destructors must not throw; a failed flush here is unreportable.
  }
}

void BinaryTraceWriter::on_event(const TraceEvent& event) {
  if (impl_->closed) throw std::logic_error("BinaryTraceWriter: already closed");
  impl_->record.clear();
  append_event_binary(event, impl_->record);
  impl_->write_record();
  ++events_written_;
}

void BinaryTraceWriter::close() {
  if (impl_->closed) return;
  impl_->closed = true;
  impl_->out.flush();
  if (!impl_->out) throw std::runtime_error("BinaryTraceWriter: flush failed");
  impl_->out.close();
}

}  // namespace p2pgen::trace
