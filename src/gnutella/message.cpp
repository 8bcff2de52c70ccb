#include "gnutella/message.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace p2pgen::gnutella {

std::string_view message_type_name(MessageType t) noexcept {
  switch (t) {
    case MessageType::kPing: return "PING";
    case MessageType::kPong: return "PONG";
    case MessageType::kBye: return "BYE";
    case MessageType::kRouteTableUpdate: return "ROUTE_TABLE_UPDATE";
    case MessageType::kQuery: return "QUERY";
    case MessageType::kQueryHit: return "QUERYHIT";
  }
  return "UNKNOWN";
}

MessageType Message::type() const noexcept {
  switch (payload.index()) {
    case 0: return MessageType::kPing;
    case 1: return MessageType::kPong;
    case 2: return MessageType::kQuery;
    case 3: return MessageType::kQueryHit;
    case 4: return MessageType::kBye;
    default: return MessageType::kRouteTableUpdate;
  }
}

Message Message::forwarded() const {
  if (!forwardable()) {
    throw std::logic_error("Message::forwarded: TTL exhausted");
  }
  Message copy = *this;
  --copy.ttl;
  ++copy.hops;
  return copy;
}

Message make_ping(stats::Rng& rng, std::uint8_t ttl) {
  return Message{Guid::generate(rng), ttl, 0, PingPayload{}};
}

Message make_pong(const Guid& ping_guid, std::uint32_t ip,
                  std::uint32_t shared_files, std::uint32_t shared_kbytes,
                  std::uint8_t ttl) {
  // A PONG reuses the GUID of the PING it answers so it can be routed back.
  return Message{ping_guid, ttl, 0,
                 PongPayload{6346, ip, shared_files, shared_kbytes}};
}

Message make_query(stats::Rng& rng, std::string keywords, std::string sha1_urn,
                   std::uint8_t ttl) {
  return Message{Guid::generate(rng), ttl, 0,
                 QueryPayload{0, std::move(keywords), std::move(sha1_urn)}};
}

Message make_query_hit(const Guid& query_guid, std::uint32_t ip,
                       std::vector<QueryHitResult> results, const Guid& servent,
                       std::uint8_t ttl) {
  QueryHitPayload payload;
  payload.ip = ip;
  payload.results = std::move(results);
  payload.servent_guid = servent;
  return Message{query_guid, ttl, 0, std::move(payload)};
}

Message make_bye(stats::Rng& rng, std::uint16_t code, std::string reason) {
  return Message{Guid::generate(rng), 1, 0, ByePayload{code, std::move(reason)}};
}

Message make_route_table_update(stats::Rng& rng, std::vector<std::uint8_t> patch) {
  // QRP patches travel exactly one hop (leaf to its ultrapeer).
  return Message{Guid::generate(rng), 1, 0,
                 RouteTablePayload{std::move(patch)}};
}

namespace {

// The "C" locale's isspace/tolower, without the locale lookups: nothing
// in p2pgen calls setlocale, and bytes >= 0x80 are left alone either way.
constexpr bool is_ascii_space(char c) noexcept {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

constexpr char ascii_lower(char c) noexcept {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
}

}  // namespace

void canonical_keywords(std::string_view raw_query, std::string& out) {
  // Per-thread scratch: simulation shards and streaming decoders call
  // this concurrently, and reusing the buffers keeps it allocation-free.
  thread_local std::string lowered;
  thread_local std::vector<std::string_view> words;
  lowered.assign(raw_query);
  for (char& c : lowered) c = ascii_lower(c);
  words.clear();
  const std::string_view text = lowered;
  std::size_t pos = 0;
  while (pos < text.size()) {
    while (pos < text.size() && is_ascii_space(text[pos])) ++pos;
    const std::size_t begin = pos;
    while (pos < text.size() && !is_ascii_space(text[pos])) ++pos;
    if (pos > begin) words.push_back(text.substr(begin, pos - begin));
  }
  std::sort(words.begin(), words.end());
  words.erase(std::unique(words.begin(), words.end()), words.end());
  out.clear();
  for (std::size_t i = 0; i < words.size(); ++i) {
    if (i > 0) out.push_back(' ');
    out.append(words[i]);
  }
}

std::string canonical_keywords(std::string_view raw_query) {
  std::string joined;
  canonical_keywords(raw_query, joined);
  return joined;
}

}  // namespace p2pgen::gnutella
