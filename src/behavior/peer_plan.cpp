#include "behavior/peer_plan.hpp"

#include <algorithm>
#include <cmath>
#include <string_view>

#include "sim/simulator.hpp"

namespace p2pgen::behavior {
namespace {

using core::Region;

std::size_t day_at(double t) {
  return t <= 0.0 ? 0 : static_cast<std::size_t>(sim::day_index(t));
}

/// A user-generated query (hops 1 at the node): its GUID draw.
PlannedSend user_query(double at, stats::Rng& rng, const std::string& text) {
  return PlannedSend{at, gnutella::Guid::generate(rng), &text};
}

/// SHA1 source-search re-query (filter rule 1): empty keywords + urn.
PlannedSend sha1_query(double at, stats::Rng& rng) {
  static constexpr char kBase32[] = "ABCDEFGHIJKLMNOPQRSTUVWXYZ234567";
  PlannedSend send{at};
  for (char& c : send.sha1) c = kBase32[rng.uniform_index(32)];
  send.guid = gnutella::Guid::generate(rng);
  return send;
}

/// Remote descriptor hop/TTL roll: hops 2..7, TTL the unused remainder.
void roll_remote_hops(gnutella::Message& m, stats::Rng& rng) {
  m.hops = static_cast<std::uint8_t>(2 + rng.uniform_index(6));
  m.ttl = static_cast<std::uint8_t>(7 - m.hops);
}

std::uint32_t sample_shared_files(const ClientProfile& profile, stats::Rng& rng) {
  const double x = profile.shared_files->sample(rng);
  if (!(x > 0.0)) return 0;
  return static_cast<std::uint32_t>(std::min(x, 100000.0));
}

}  // namespace

gnutella::Message PlannedSend::render() const {
  gnutella::QueryPayload query;
  if (keywords != nullptr) {
    query.keywords = *keywords;
  } else {
    constexpr std::string_view kUrnPrefix = "urn:sha1:";
    query.sha1_urn.reserve(kUrnPrefix.size() + sha1.size());
    query.sha1_urn.append(kUrnPrefix).append(sha1.data(), sha1.size());
  }
  return gnutella::Message{guid, 6, 1, std::move(query)};
}

PeerPlanner::PeerPlanner(core::SessionSampler& sampler,
                         const geo::IpAllocator& allocator,
                         BackgroundTrafficConfig background)
    : sampler_(sampler), allocator_(allocator), background_(background) {}

PeerPlan PeerPlanner::plan(double abs_start, geo::Region region,
                           const ClientProfile& profile, stats::Rng& rng) {
  PeerPlan plan;
  plan.shared_files = sample_shared_files(profile, rng);
  plan.quick_disconnect = rng.bernoulli(profile.quick_disconnect_prob);

  // Shared-content sample: one keyword set per ~3 shared files, capped.
  // Drawing from the popularity model makes replication popularity-
  // proportional, which is what gives popular queries higher hit rates.
  const std::size_t shared_sample =
      std::min<std::size_t>(plan.shared_files / 3, 30);
  plan.shared_keywords.reserve(shared_sample);
  for (std::size_t i = 0; i < shared_sample; ++i) {
    plan.shared_keywords.push_back(
        &sampler_.vocabulary().sample_query(region, day_at(abs_start), rng));
  }

  if (plan.quick_disconnect) {
    plan.duration = sample_quick_disconnect_duration(rng);
    plan.user_passive = true;
    // Quick disconnects are software-initiated: the transport close is
    // observed directly (this is what makes rule 3's duration histogram
    // measurable at all).
    plan.end_mode = rng.bernoulli(profile.bye_prob) ? EndMode::kBye
                                                    : EndMode::kTeardown;
  } else {
    add_user_session(plan, abs_start, region, profile, rng);
    const double u = rng.uniform();
    if (u < profile.bye_prob) {
      plan.end_mode = EndMode::kBye;
    } else if (u < profile.bye_prob + profile.teardown_prob) {
      plan.end_mode = EndMode::kTeardown;
    } else {
      plan.end_mode = EndMode::kSilent;
    }
  }

  add_preconnect_replay(plan, abs_start, region, profile, rng);

  // Each source above appends in time order, so most plans (every
  // passive one) are sorted already; stable_sort would still allocate.
  const auto earlier = [](const PlannedSend& a, const PlannedSend& b) {
    return a.at < b.at;
  };
  if (!std::is_sorted(plan.sends.begin(), plan.sends.end(), earlier)) {
    std::stable_sort(plan.sends.begin(), plan.sends.end(), earlier);
  }
  return plan;
}

void PeerPlanner::add_user_session(PeerPlan& plan, double abs_start,
                                   geo::Region region,
                                   const ClientProfile& profile,
                                   stats::Rng& rng) {
  core::GeneratedSession session =
      sampler_.sample_session_in_region(abs_start, region, rng);
  plan.user_passive = session.passive;
  plan.duration = session.duration;

  if (session.passive) return;

  // Hard bound on the pre-planned sends of one connection: heavy-tail
  // draws (thousands of user queries x dozens of auto re-queries each)
  // must not balloon a single plan to hundreds of megabytes.  Truncation
  // only ever affects the extreme tail of multi-day sessions.
  constexpr std::size_t kMaxPlannedSends = 20000;
  for (std::size_t i = 0; i < session.queries.size(); ++i) {
    if (plan.sends.size() >= kMaxPlannedSends) break;
    const auto& q = session.queries[i];
    const double rel = q.time - session.start;
    // The catalog string q.text was copied from.
    const std::string& text = sampler_.vocabulary().query_string(
        q.query_class, q.rank, day_at(q.time));
    plan.sends.push_back(user_query(rel, rng, text));

    // Rule-2 artifacts: the client automatically re-sends the query until
    // the user issues the next one (or the session ends).
    if (profile.auto_requery_interval > 0.0) {
      const double window_end =
          (i + 1 < session.queries.size())
              ? session.queries[i + 1].time - session.start
              : plan.duration;
      double t = rel;
      for (int k = 0; k < profile.auto_requery_max &&
                      plan.sends.size() < kMaxPlannedSends;
           ++k) {
        double gap = profile.auto_requery_interval;
        if (profile.auto_requery_jitter > 0.0) {
          gap *= 1.0 + profile.auto_requery_jitter * (rng.uniform() - 0.5);
        }
        t += gap;
        if (t >= window_end) break;
        plan.sends.push_back(user_query(t, rng, text));
      }
    }
  }

  // Rule-1 artifacts: SHA1 source-search queries while downloads from
  // earlier results are plausibly in progress.  Bounded so that
  // heavy-tail session durations cannot blow up the plan.
  if (profile.sha1_requery_rate > 0.0 && !session.queries.empty()) {
    constexpr int kMaxSha1PerSession = 5000;
    double t = session.queries.front().time - session.start;
    for (int i = 0; i < kMaxSha1PerSession; ++i) {
      t += rng.exponential(profile.sha1_requery_rate);
      if (t >= plan.duration) break;
      plan.sends.push_back(sha1_query(t, rng));
    }
  }
}

void PeerPlanner::add_preconnect_replay(PeerPlan& plan, double abs_start,
                                        geo::Region region,
                                        const ClientProfile& profile,
                                        stats::Rng& rng) {
  if (profile.preconnect_replay_queries <= 0) return;
  if (!rng.bernoulli(profile.preconnect_replay_prob)) return;
  // The queries the user issued before this connection existed; the client
  // replays them as soon as the handshake completes (rules 4/5).  The
  // strings are genuine user queries, so they count for popularity and
  // #queries but not for interarrival (Section 3.3).
  // Per-thread scratch: shards plan concurrently.
  thread_local std::vector<const std::string*> texts;
  texts.clear();
  for (int i = 0; i < profile.preconnect_replay_queries; ++i) {
    texts.push_back(
        &sampler_.vocabulary().sample_query(region, day_at(abs_start), rng));
  }
  double t = 0.2;
  for (int cycle = 0; cycle < profile.preconnect_replay_cycles; ++cycle) {
    for (const std::string* text : texts) {
      if (t >= plan.duration) return;
      plan.sends.push_back(user_query(t, rng, *text));
      t += profile.preconnect_replay_gap;
    }
  }
}

gnutella::Message PeerPlanner::remote_query(double t, stats::Rng& rng) {
  const Region origin = sampler_.sample_region(t, rng);
  gnutella::Message m = gnutella::make_query(
      rng, sampler_.vocabulary().sample_query(origin, day_at(t), rng), {}, 7);
  roll_remote_hops(m, rng);
  return m;
}

gnutella::Message PeerPlanner::remote_ping(stats::Rng& rng) {
  gnutella::Message m = gnutella::make_ping(rng, 2);
  roll_remote_hops(m, rng);
  return m;
}

gnutella::Message PeerPlanner::remote_pong(double t, stats::Rng& rng) {
  // Advertises the address + library size of a peer anywhere in the
  // overlay — the "all peers" sample behind Figures 1 and 2.
  const Region origin = sampler_.sample_region(t, rng);
  const auto ip = allocator_.allocate(origin, rng);
  const double raw =
      rng.bernoulli(0.25) ? 0.0 : std::exp(rng.normal(2.8, 1.3));
  const auto files =
      static_cast<std::uint32_t>(std::min(std::max(raw, 0.0), 100000.0));
  gnutella::Message m = gnutella::make_pong(gnutella::Guid::generate(rng), ip,
                                            files, files * 4096);
  roll_remote_hops(m, rng);
  return m;
}

gnutella::Message PeerPlanner::remote_queryhit(double t, stats::Rng& rng) {
  const Region origin = sampler_.sample_region(t, rng);
  const auto ip = allocator_.allocate(origin, rng);
  std::vector<gnutella::QueryHitResult> results;
  const std::size_t n = 1 + rng.uniform_index(3);
  for (std::size_t i = 0; i < n; ++i) {
    results.push_back({static_cast<std::uint32_t>(rng.uniform_index(1u << 20)),
                       static_cast<std::uint32_t>(rng.uniform_index(1u << 30)),
                       "file" + std::to_string(rng.uniform_index(100000)) +
                           ".mp3"});
  }
  gnutella::Message m = gnutella::make_query_hit(gnutella::Guid::generate(rng),
                                                 ip, std::move(results),
                                                 gnutella::Guid::generate(rng), 7);
  roll_remote_hops(m, rng);
  return m;
}

}  // namespace p2pgen::behavior
