// p2pgen — Gnutella 0.6 connection handshake.
//
// Connections open with a three-step HTTP-like header exchange:
//
//   peer  -> node:  GNUTELLA CONNECT/0.6\r\n<headers>\r\n
//   node  -> peer:  GNUTELLA/0.6 200 OK\r\n<headers>\r\n
//   peer  -> node:  GNUTELLA/0.6 200 OK\r\n\r\n
//
// The paper records the User-Agent header exchanged here to attribute
// query anomalies to specific client implementations (Section 3.3), and a
// connected session *starts* when the handshake completes (Section 3.2).
#pragma once

#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace p2pgen::gnutella {

/// Case-insensitive header map, normalized to lower-case keys on insert.
/// A handshake carries a handful of headers, so they live in one small
/// vector kept sorted by key: serialization order is the key order.
class HeaderMap {
 public:
  using Entry = std::pair<std::string, std::string>;

  void set(std::string key, std::string value);
  std::optional<std::string> get(const std::string& key) const;
  bool contains(const std::string& key) const;
  std::size_t size() const noexcept { return headers_.size(); }
  /// (lower-cased key, value) pairs in ascending key order.
  const std::vector<Entry>& entries() const noexcept { return headers_; }

 private:
  const Entry* find(const std::string& lower_key) const;

  std::vector<Entry> headers_;
};

/// A parsed handshake block (request or response).
struct Handshake {
  /// True for "GNUTELLA CONNECT/0.6", false for "GNUTELLA/0.6 <code> ...".
  bool is_connect_request = true;
  int status_code = 200;      // meaningful for responses only
  std::string status_phrase;  // e.g. "OK"
  HeaderMap headers;

  /// Convenience accessors for the headers the paper uses.
  std::string user_agent() const;
  bool is_ultrapeer() const;

  /// Serializes to the wire text (with trailing blank line).
  std::string to_text() const;

  /// Parses a handshake block.  Returns std::nullopt on malformed input.
  static std::optional<Handshake> parse(const std::string& text);

  /// Builds a CONNECT request.
  static Handshake connect_request(std::string user_agent, bool ultrapeer);

  /// Builds a 200-OK response.
  static Handshake ok_response(std::string user_agent, bool ultrapeer);
};

}  // namespace p2pgen::gnutella
