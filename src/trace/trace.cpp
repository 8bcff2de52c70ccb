#include "trace/trace.hpp"

#include <algorithm>
#include <queue>

namespace p2pgen::trace {

double event_time(const TraceEvent& event) {
  return std::visit([](const auto& e) { return e.time; }, event);
}

TraceStats Trace::stats() const {
  TraceStats s;
  bool first = true;
  for (const auto& event : events_) {
    const double t = event_time(event);
    if (first) {
      s.first_time = t;
      first = false;
    }
    s.first_time = std::min(s.first_time, t);
    s.last_time = std::max(s.last_time, t);

    if (const auto* start = std::get_if<SessionStart>(&event)) {
      ++s.direct_connections;
      if (start->ultrapeer) {
        ++s.ultrapeer_connections;
      } else {
        ++s.leaf_connections;
      }
    } else if (const auto* msg = std::get_if<MessageEvent>(&event)) {
      switch (msg->type) {
        case gnutella::MessageType::kQuery:
          ++s.query_messages;
          if (msg->hops == 1) ++s.hop1_queries;
          break;
        case gnutella::MessageType::kQueryHit:
          ++s.queryhit_messages;
          break;
        case gnutella::MessageType::kPing:
          ++s.ping_messages;
          break;
        case gnutella::MessageType::kPong:
          ++s.pong_messages;
          break;
        case gnutella::MessageType::kBye:
          ++s.bye_messages;
          break;
        case gnutella::MessageType::kRouteTableUpdate:
          ++s.route_update_messages;
          break;
      }
    }
  }
  return s;
}

Trace merge_traces(std::vector<Trace> shards) {
  // One shard is already in merged order, and shard 0's ids are unshifted.
  if (shards.size() == 1) return std::move(shards[0]);
  std::vector<std::vector<TraceEvent>> streams;
  streams.reserve(shards.size());
  std::size_t total = 0;
  for (auto& shard : shards) {
    streams.push_back(shard.release());
    total += streams.back().size();
  }

  // K-way merge over the (already time-sorted) shard streams.  The heap
  // orders heads by (time, shard index); within a shard the positional
  // order is preserved, so the reduction is stable and deterministic.
  struct Head {
    double time;
    std::size_t shard;
  };
  auto later = [](const Head& a, const Head& b) {
    if (a.time != b.time) return a.time > b.time;
    return a.shard > b.shard;
  };
  std::priority_queue<Head, std::vector<Head>, decltype(later)> heads(later);
  std::vector<std::size_t> pos(streams.size(), 0);
  for (std::size_t k = 0; k < streams.size(); ++k) {
    if (!streams[k].empty()) heads.push({event_time(streams[k][0]), k});
  }

  Trace merged;
  merged.reserve(total);
  while (!heads.empty()) {
    const std::size_t k = heads.top().shard;
    heads.pop();
    TraceEvent event = std::move(streams[k][pos[k]]);
    const std::uint64_t base =
        static_cast<std::uint64_t>(k) * kShardSessionStride;
    std::visit([base](auto& e) { e.session_id += base; }, event);
    merged.append(std::move(event));
    if (++pos[k] < streams[k].size()) {
      heads.push({event_time(streams[k][pos[k]]), k});
    }
  }
  return merged;
}

}  // namespace p2pgen::trace
