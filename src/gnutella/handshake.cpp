#include "gnutella/handshake.hpp"

#include <algorithm>
#include <cctype>
#include <sstream>

namespace p2pgen::gnutella {
namespace {

std::string to_lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return s;
}

std::string trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

bool key_less(const HeaderMap::Entry& entry, const std::string& key) {
  return entry.first < key;
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

const HeaderMap::Entry* HeaderMap::find(const std::string& lower_key) const {
  const auto it =
      std::lower_bound(headers_.begin(), headers_.end(), lower_key, key_less);
  return it != headers_.end() && it->first == lower_key ? &*it : nullptr;
}

std::optional<std::string> HeaderMap::get(const std::string& key) const {
  const Entry* entry = find(to_lower(key));
  if (entry == nullptr) return std::nullopt;
  return entry->second;
}

bool HeaderMap::contains(const std::string& key) const {
  return find(to_lower(key)) != nullptr;
}

std::string Handshake::user_agent() const {
  return headers.get("user-agent").value_or("");
}

bool Handshake::is_ultrapeer() const {
  const auto v = headers.get("x-ultrapeer");
  if (!v) return false;
  return to_lower(trim(*v)) == "true";
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
    hs.status_phrase = trim(hs.status_phrase);
  } else {
    return std::nullopt;
  }

  while (std::getline(is, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) break;  // end of headers
    const auto colon = line.find(':');
    if (colon == std::string::npos) return std::nullopt;
    hs.headers.set(trim(line.substr(0, colon)), trim(line.substr(colon + 1)));
  }
  return hs;
}

Handshake Handshake::connect_request(std::string user_agent, bool ultrapeer) {
  Handshake hs;
  hs.is_connect_request = true;
  hs.headers.set("User-Agent", std::move(user_agent));
  hs.headers.set("X-Ultrapeer", ultrapeer ? "True" : "False");
  hs.headers.set("X-Query-Routing", "0.1");
  return hs;
}

Handshake Handshake::ok_response(std::string user_agent, bool ultrapeer) {
  Handshake hs;
  hs.is_connect_request = false;
  hs.status_code = 200;
  hs.status_phrase = "OK";
  hs.headers.set("User-Agent", std::move(user_agent));
  hs.headers.set("X-Ultrapeer", ultrapeer ? "True" : "False");
  return hs;
}

}  // namespace p2pgen::gnutella
