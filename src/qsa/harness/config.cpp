#include "qsa/harness/config.hpp"

#include <algorithm>

#include "qsa/probe/neighbor_table.hpp"
#include "qsa/util/expects.hpp"

namespace qsa::harness {

std::string_view to_string(OverlayKind kind) {
  switch (kind) {
    case OverlayKind::kChord:
      return "chord";
    case OverlayKind::kCan:
      return "can";
    case OverlayKind::kPastry:
      return "pastry";
  }
  return "?";
}

std::string_view to_string(DiscoveryKind kind) {
  switch (kind) {
    case DiscoveryKind::kDirectory:
      return "directory";
    case DiscoveryKind::kDht:
      return "dht";
  }
  return "?";
}

std::string_view GridConfig::validate() const {
  // Each rule is the condition that must hold, so a NaN knob breaks it too.
  const sim::SimTime zero = sim::SimTime::zero();
  const auto loss_ok = [](double p) { return p >= 0 && p <= 1; };
  const struct {
    bool holds;
    std::string_view rule;
  } rules[] = {
      {peers >= 1, "peers >= 1"},
      {min_providers >= 1 && min_providers <= max_providers,
       "1 <= min_providers <= max_providers"},
      {probe_period > zero, "probe_period > 0"},
      {probe_budget >= 1 && probe_budget <= probe::kMaxNeighborBudget,
       "1 <= probe_budget <= 65535"},
      {requests.rate_per_min >= 0, "requests.rate_per_min >= 0"},
      {churn.events_per_min >= 0, "churn.events_per_min >= 0"},
      {admission_retries >= 0, "admission_retries >= 0"},
      {bandwidth_weight <= 1, "bandwidth_weight <= 1 (negative = uniform)"},
      {discovery_cache_ttl >= zero, "discovery_cache_ttl >= 0"},
      {replication.threshold > 0, "replication.threshold > 0"},
      {replication.cooldown > zero, "replication.cooldown > 0"},
      {replication.max_replicas >= 0, "replication.max_replicas >= 0"},
      {loss_ok(faults.probe_loss) && loss_ok(faults.notify_loss) &&
           loss_ok(faults.lookup_loss) && loss_ok(faults.reservation_loss),
       "0 <= faults.*_loss <= 1"},
      {faults.max_extra_delay >= zero, "faults.max_extra_delay >= 0"},
      {faults.max_retries >= 0, "faults.max_retries >= 0"},
      {horizon > zero, "horizon > 0"},
      {obs_window >= zero, "obs_window >= 0"},
  };
  for (const auto& r : rules) {
    if (!r.holds) return r.rule;
  }
  return {};
}

void GridConfig::scale(double factor) {
  QSA_EXPECTS(factor > 0 && static_cast<double>(peers) * factor <=
                                static_cast<double>(kMaxPeers));
  peers = std::max<std::size_t>(
      200, static_cast<std::size_t>(static_cast<double>(peers) * factor));
  requests.rate_per_min *= factor;
  churn.events_per_min *= factor;
}

}  // namespace qsa::harness
