#include "gnutella/routing.hpp"

#include <stdexcept>
#include <utility>

namespace p2pgen::gnutella {

RoutingTable::RoutingTable(double expiry_seconds) : expiry_(expiry_seconds) {
  if (!(expiry_seconds > 0.0)) {
    throw std::invalid_argument("RoutingTable: expiry must be > 0");
  }
}

std::size_t RoutingTable::find(const Guid& guid) const noexcept {
  const std::size_t mask = index_.size() - 1;
  std::size_t cell = home(guid);
  while (index_[cell] != kEmpty && ring_[index_[cell] - 1].guid != guid) {
    cell = (cell + 1) & mask;
  }
  return cell;
}

void RoutingTable::erase_cell(std::size_t cell) noexcept {
  const std::size_t mask = index_.size() - 1;
  std::size_t next = cell;
  for (;;) {
    next = (next + 1) & mask;
    if (index_[next] == kEmpty) break;
    // The entry at `next` may fill the hole unless the hole lies
    // (cyclically) before its home cell.
    const std::size_t home_cell = home(ring_[index_[next] - 1].guid);
    if (((next - home_cell) & mask) >= ((next - cell) & mask)) {
      index_[cell] = index_[next];
      cell = next;
    }
  }
  index_[cell] = kEmpty;
}

void RoutingTable::purge(double now) {
  const std::size_t mask = ring_.size() - 1;
  while (count_ > 0 && ring_[head_].seen_at + expiry_ <= now) {
    erase_cell(find(ring_[head_].guid));
    head_ = (head_ + 1) & mask;
    --count_;
  }
}

void RoutingTable::grow() {
  const std::size_t capacity = ring_.empty() ? 64 : 2 * ring_.size();
  std::vector<Entry> ring(capacity);
  for (std::size_t i = 0; i < count_; ++i) {
    ring[i] = ring_[(head_ + i) & (ring_.size() - 1)];
  }
  ring_ = std::move(ring);
  head_ = 0;
  index_.assign(2 * capacity, kEmpty);
  for (std::size_t i = 0; i < count_; ++i) {
    index_[find(ring_[i].guid)] = static_cast<std::uint32_t>(i + 1);
  }
}

bool RoutingTable::note_seen(const Guid& guid, PeerLink from, double now) {
  purge(now);
  if (ring_.empty()) grow();
  std::size_t cell = find(guid);
  if (index_[cell] != kEmpty) return false;
  if (count_ == ring_.size()) {
    grow();
    cell = find(guid);
  }
  const std::size_t pos = (head_ + count_) & (ring_.size() - 1);
  ring_[pos] = Entry{guid, from, now};
  index_[cell] = static_cast<std::uint32_t>(pos + 1);
  ++count_;
  return true;
}

std::optional<PeerLink> RoutingTable::reverse_route(const Guid& guid, double now) {
  purge(now);
  if (count_ == 0) return std::nullopt;
  const std::size_t cell = find(guid);
  if (index_[cell] == kEmpty) return std::nullopt;
  return ring_[index_[cell] - 1].from;
}

std::size_t RoutingTable::size(double now) {
  purge(now);
  return count_;
}

}  // namespace p2pgen::gnutella
