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
#include <string_view>
#include <utility>
#include <vector>

namespace p2pgen::gnutella {

/// Case-insensitive header map, normalized to lower-case keys on insert.
/// A handshake carries a handful of headers, so they live in one small
/// vector kept sorted by key: serialization order is the key order.
/// The standard handshakes are built without set(): their keys are
/// lower-case literals appended in order into one reserved vector.
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
  friend struct Handshake;

  /// The value under an already lower-cased key, or null.
  const std::string* find_lower(std::string_view lower_key) const noexcept;

  std::vector<Entry> headers_;
};

/// A parsed handshake block (request or response).
struct Handshake {
  /// True for "GNUTELLA CONNECT/0.6", false for "GNUTELLA/0.6 <code> ...".
  bool is_connect_request = true;
  int status_code = 200;      // meaningful for responses only
  std::string status_phrase;  // e.g. "OK"
  HeaderMap headers;

  /// Convenience accessors for the headers the paper uses; neither
  /// copies.  user_agent() is empty when the header is missing.  An
  /// X-Ultrapeer value is true when it reads "true" in any case,
  /// surrounding whitespace ignored.
  const std::string& user_agent() const noexcept;
  bool is_ultrapeer() const noexcept;

  /// Serializes to the wire text (with trailing blank line).
  std::string to_text() const;

  /// Parses a handshake block.  Returns std::nullopt on malformed input.
  static std::optional<Handshake> parse(const std::string& text);

  /// Builds a CONNECT request.  Its headers are the ones set() would
  /// store, built with one allocation for the entries (plus the
  /// User-Agent's own, when it is too long for the inline buffer).
  static Handshake connect_request(std::string user_agent, bool ultrapeer);

  /// Builds a 200-OK response the same way.  A refusal is this response
  /// with its status changed (MeasurementNode sends "503 Busy").
  static Handshake ok_response(std::string user_agent, bool ultrapeer);
};

}  // namespace p2pgen::gnutella
