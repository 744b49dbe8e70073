#include "sim/proxied.hpp"

#include "obs/profile.hpp"
#include "sim/walk.hpp"

namespace mobiweb::sim {

std::uint64_t generation_at(double time, double update_interval_s) {
  if (update_interval_s <= 0.0 || time <= 0.0) return 0;
  return static_cast<std::uint64_t>(time / update_interval_s);
}

ProxiedTransferResult simulate_proxied_transfer(
    const std::vector<double>& clear_content,
    const ProxiedTransferConfig& config,
    const std::function<bool()>& next_corrupted) {
  MOBIWEB_PROFILE_SCOPE("sim.proxied_transfer");
  return walk_to_end(clear_content, config.base, &config.retry,
                     config.jitter_seed, &config, next_corrupted);
}

ProxiedTransferResult simulate_proxied_transfer(
    const std::vector<double>& clear_content,
    const ProxiedTransferConfig& config, Rng& rng) {
  return simulate_proxied_transfer(clear_content, config,
                                   bernoulli_draws(config.base, rng));
}

}  // namespace mobiweb::sim
