#include "sim/fault.hpp"

#include <bit>

namespace p2pgen::sim {

std::uint64_t fault_config_digest(const FaultConfig& config) noexcept {
  std::uint64_t hash = 0xcbf29ce484222325ULL;  // FNV-1a
  auto mix = [&hash](std::uint64_t bits) {
    for (int i = 0; i < 8; ++i) {
      hash ^= (bits >> (8 * i)) & 0xff;
      hash *= 0x100000001b3ULL;
    }
  };
  for (double field :
       {config.loss_prob, config.corrupt_prob, config.duplicate_prob,
        config.jitter_seconds, config.crash_rate, config.half_open_prob,
        config.half_open_after_mean}) {
    mix(std::bit_cast<std::uint64_t>(field));
  }
  return hash;
}

LinkFaultPlan FaultInjector::plan_link(double now) {
  LinkFaultPlan plan;
  if (config_.crash_rate > 0.0) {
    plan.crash_at = now + rng_.exponential(config_.crash_rate);
  }
  if (config_.half_open_prob > 0.0 && rng_.bernoulli(config_.half_open_prob)) {
    const double mean =
        config_.half_open_after_mean > 0.0 ? config_.half_open_after_mean : 1.0;
    plan.half_open_at = now + rng_.exponential(1.0 / mean);
    plan.half_open_from_a = rng_.bernoulli(0.5);
  }
  return plan;
}

void FaultInjector::corrupt_bytes(std::vector<std::uint8_t>& wire) {
  if (wire.empty()) return;
  const std::uint64_t flips = 1 + rng_.uniform_index(4);
  for (std::uint64_t i = 0; i < flips; ++i) {
    const std::size_t pos = rng_.uniform_index(wire.size());
    std::uint8_t mask = 0;
    while (mask == 0) mask = static_cast<std::uint8_t>(rng_.next_u64() & 0xff);
    wire[pos] ^= mask;
  }
}

}  // namespace p2pgen::sim
