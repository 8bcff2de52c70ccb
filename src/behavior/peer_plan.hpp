// p2pgen — per-connection behavior planning.
//
// When a simulated peer arrives, the planner rolls the *bounded* part of
// its connection script up front: either a software quick-disconnect
// (rule 3 churn) or a ground-truth user session drawn from the Figure 12
// sampler, decorated with the client profile's automated-query artifacts
// (rules 1, 2, 4, 5).  Unbounded repetitive streams — keep-alive PINGs and
// the remote (hops >= 2) traffic an ultrapeer forwards — are generated
// lazily by the peer, one chained event at a time, using the factory
// methods below; pre-planning them would hold megabytes per long session.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "behavior/client_profile.hpp"
#include "core/generator.hpp"
#include "geo/geoip.hpp"
#include "gnutella/message.hpp"

namespace p2pgen::behavior {

/// How the connection ends.
enum class EndMode {
  kSilent,    // peer just stops talking; the idle probe reaps it
  kBye,       // polite BYE then teardown
  kTeardown,  // transport close without BYE
};

/// One scheduled outbound QUERY, relative to handshake completion.  A
/// plan holds these small descriptors rather than Messages: most peers
/// are refused at capacity and never send (DESIGN.md §15), so the peer
/// renders each Message only when it sends it.  Every random draw (the
/// SHA1 digest, then the GUID) is made at plan time, in the order the
/// Message factories make it.
struct PlannedSend {
  double at = 0.0;  // seconds after the session becomes established
  gnutella::Guid guid;
  /// The query text: a catalog string of the planner's
  /// core::QueryVocabulary, whose address outlives the plan.  Null for a
  /// rule-1 re-query, whose keywords are empty.
  const std::string* keywords = nullptr;
  /// The base32 digest of a rule-1 re-query's "urn:sha1:" URN.
  std::array<char, 32> sha1{};

  /// The descriptor as the node receives it: a QUERY with TTL 6, hops 1.
  gnutella::Message render() const;
};

/// The bounded script for one connection.
struct PeerPlan {
  bool quick_disconnect = false;
  bool user_passive = true;       // ground truth (quick disconnects: true)
  double duration = 30.0;         // seconds from establishment to end action
  EndMode end_mode = EndMode::kTeardown;
  std::uint32_t shared_files = 0; // advertised in PONG responses

  /// The query strings this peer's shared files match (sampled from the
  /// popularity model, so popular content is replicated on more peers).
  /// Leaves summarize these in a QRP table for the ultrapeer; QUERYHIT
  /// responses come from exact canonical matches against this set.  They
  /// point at catalog strings, like PlannedSend::keywords.
  std::vector<const std::string*> shared_keywords;

  std::vector<PlannedSend> sends; // user queries + artifacts, sorted by .at
};

/// Rates of remote (hops >= 2) traffic forwarded to the measurement node
/// by each directly-connected ultrapeer, per second of connection time.
struct BackgroundTrafficConfig {
  double query_rate = 0.13;
  double ping_rate = 0.01;
  double pong_rate = 0.02;
  double queryhit_rate = 0.006;
};

/// Builds connection scripts and mints the lazily-generated remote
/// descriptors.  Holds references; callers keep the sampler and allocator
/// alive for the planner's lifetime, and the sampler for as long as any
/// plan it made is read (plans point into its vocabulary).
class PeerPlanner {
 public:
  PeerPlanner(core::SessionSampler& sampler, const geo::IpAllocator& allocator,
              BackgroundTrafficConfig background);

  /// Plans one connection for a peer in `region` arriving at absolute time
  /// `abs_start`, running `profile`.
  PeerPlan plan(double abs_start, geo::Region region,
                const ClientProfile& profile, stats::Rng& rng);

  const BackgroundTrafficConfig& background() const noexcept {
    return background_;
  }

  /// Factories for the lazily generated streams (absolute time `t`).
  gnutella::Message remote_query(double t, stats::Rng& rng);
  gnutella::Message remote_ping(stats::Rng& rng);
  gnutella::Message remote_pong(double t, stats::Rng& rng);
  gnutella::Message remote_queryhit(double t, stats::Rng& rng);

 private:
  void add_user_session(PeerPlan& plan, double abs_start, geo::Region region,
                        const ClientProfile& profile, stats::Rng& rng);
  void add_preconnect_replay(PeerPlan& plan, double abs_start, geo::Region region,
                             const ClientProfile& profile, stats::Rng& rng);

  core::SessionSampler& sampler_;
  const geo::IpAllocator& allocator_;
  BackgroundTrafficConfig background_;
};

}  // namespace p2pgen::behavior
