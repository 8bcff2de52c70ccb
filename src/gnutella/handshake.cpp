#include "gnutella/handshake.hpp"

#include <algorithm>
#include <sstream>

namespace p2pgen::gnutella {
namespace {

// The "C" locale's isspace/tolower, without the locale lookups: nothing
// in p2pgen calls setlocale, and bytes >= 0x80 are left alone either way.
constexpr bool is_ascii_space(char c) noexcept {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

constexpr char ascii_lower(char c) noexcept {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
}

std::string to_lower(std::string s) {
  for (char& c : s) c = ascii_lower(c);
  return s;
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && is_ascii_space(s.front())) s.remove_prefix(1);
  while (!s.empty() && is_ascii_space(s.back())) s.remove_suffix(1);
  return s;
}

bool key_less(const HeaderMap::Entry& entry, std::string_view key) {
  return std::string_view(entry.first) < key;
}

}  // namespace

void HeaderMap::set(std::string key, std::string value) {
  key = to_lower(std::move(key));
  // Reserve before locating the slot: growing the vector would
  // invalidate an iterator taken earlier.  Handshakes carry two to four
  // headers, so the first set() sizes the vector for them.
  if (headers_.size() == headers_.capacity()) {
    headers_.reserve(std::max<std::size_t>(4, 2 * headers_.size()));
  }
  const auto it =
      std::lower_bound(headers_.begin(), headers_.end(), key, key_less);
  if (it != headers_.end() && it->first == key) {
    it->second = std::move(value);
  } else {
    headers_.emplace(it, std::move(key), std::move(value));
  }
}

const std::string* HeaderMap::find_lower(
    std::string_view lower_key) const noexcept {
  const auto it =
      std::lower_bound(headers_.begin(), headers_.end(), lower_key, key_less);
  return it != headers_.end() && it->first == lower_key ? &it->second
                                                        : nullptr;
}

std::optional<std::string> HeaderMap::get(const std::string& key) const {
  const std::string* value = find_lower(to_lower(key));
  if (value == nullptr) return std::nullopt;
  return *value;
}

bool HeaderMap::contains(const std::string& key) const {
  return find_lower(to_lower(key)) != nullptr;
}

const std::string& Handshake::user_agent() const noexcept {
  static const std::string kMissing;
  const std::string* value = headers.find_lower("user-agent");
  return value != nullptr ? *value : kMissing;
}

bool Handshake::is_ultrapeer() const noexcept {
  const std::string* value = headers.find_lower("x-ultrapeer");
  if (value == nullptr) return false;
  const std::string_view v = trim(*value);
  constexpr std::string_view kTrue = "true";
  if (v.size() != kTrue.size()) return false;
  for (std::size_t i = 0; i < kTrue.size(); ++i) {
    if (ascii_lower(v[i]) != kTrue[i]) return false;
  }
  return true;
}

std::string Handshake::to_text() const {
  std::ostringstream os;
  if (is_connect_request) {
    os << "GNUTELLA CONNECT/0.6\r\n";
  } else {
    os << "GNUTELLA/0.6 " << status_code << ' ' << status_phrase << "\r\n";
  }
  for (const auto& [key, value] : headers.entries()) {
    os << key << ": " << value << "\r\n";
  }
  os << "\r\n";
  return os.str();
}

std::optional<Handshake> Handshake::parse(const std::string& text) {
  std::istringstream is(text);
  std::string line;
  if (!std::getline(is, line)) return std::nullopt;
  if (!line.empty() && line.back() == '\r') line.pop_back();

  Handshake hs;
  if (line == "GNUTELLA CONNECT/0.6") {
    hs.is_connect_request = true;
  } else if (line.rfind("GNUTELLA/0.6 ", 0) == 0) {
    hs.is_connect_request = false;
    std::istringstream status(line.substr(13));
    if (!(status >> hs.status_code)) return std::nullopt;
    std::getline(status, hs.status_phrase);
    hs.status_phrase = std::string(trim(hs.status_phrase));
  } else {
    return std::nullopt;
  }

  while (std::getline(is, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) break;  // end of headers
    const auto colon = line.find(':');
    if (colon == std::string::npos) return std::nullopt;
    const std::string_view header = line;
    hs.headers.set(std::string(trim(header.substr(0, colon))),
                   std::string(trim(header.substr(colon + 1))));
  }
  return hs;
}

Handshake Handshake::connect_request(std::string user_agent, bool ultrapeer) {
  Handshake hs;
  hs.is_connect_request = true;
  auto& entries = hs.headers.headers_;
  entries.reserve(3);
  entries.emplace_back("user-agent", std::move(user_agent));
  entries.emplace_back("x-query-routing", "0.1");
  entries.emplace_back("x-ultrapeer", ultrapeer ? "True" : "False");
  return hs;
}

Handshake Handshake::ok_response(std::string user_agent, bool ultrapeer) {
  Handshake hs;
  hs.is_connect_request = false;
  hs.status_code = 200;
  hs.status_phrase = "OK";
  auto& entries = hs.headers.headers_;
  entries.reserve(2);
  entries.emplace_back("user-agent", std::move(user_agent));
  entries.emplace_back("x-ultrapeer", ultrapeer ? "True" : "False");
  return hs;
}

}  // namespace p2pgen::gnutella
