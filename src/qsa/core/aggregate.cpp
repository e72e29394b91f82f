#include "qsa/core/aggregate.hpp"

#include <algorithm>

#include "qsa/core/baselines.hpp"
#include "qsa/util/expects.hpp"

namespace qsa::core {

std::string_view to_string(FailureCause cause) {
  switch (cause) {
    case FailureCause::kNone:
      return "none";
    case FailureCause::kDiscovery:
      return "discovery";
    case FailureCause::kComposition:
      return "composition";
    case FailureCause::kSelection:
      return "selection";
    case FailureCause::kAdmission:
      return "admission";
    case FailureCause::kDeparture:
      return "departure";
  }
  return "?";
}

bool discover_candidates(const GridServices& services,
                         const ServiceRequest& request, sim::SimTime now,
                         std::vector<std::vector<registry::InstanceId>>& out,
                         AggregationPlan& plan) {
  const std::size_t services_on_path = request.abstract_path.size();
  // Grow-only: shrinking would free the inner vectors' buffers; callers
  // read exactly the first services_on_path entries.
  if (out.size() < services_on_path) out.resize(services_on_path);
  registry::DiscoveryQuery query;
  query.from = request.requester;
  query.requirement = &request.requirement;
  query.session_duration = request.session_duration;
  for (std::size_t i = 0; i < services_on_path; ++i) {
    query.service = request.abstract_path[i];
    query.is_sink = (i + 1 == services_on_path);
    const registry::DiscoveryStats stats =
        services.discovery->discover_into(query, services.net, now, out[i]);
    plan.lookup_hops += stats.hops;
    plan.setup_latency += stats.latency;
    if (out[i].empty()) {
      plan.failure = FailureCause::kDiscovery;
      return false;
    }
  }
  return true;
}

void eligible_providers(const registry::PlacementMap& placement,
                        registry::InstanceId instance,
                        const std::vector<net::PeerId>& excluded,
                        std::vector<net::PeerId>& out) {
  out.clear();
  for (net::PeerId p : placement.providers(instance)) {
    if (std::find(excluded.begin(), excluded.end(), p) == excluded.end()) {
      out.push_back(p);
    }
  }
}

QsaAlgorithm::QsaAlgorithm(GridServices services, qos::TupleWeights weights,
                           qos::ResourceSchema schema, std::uint64_t seed,
                           QsaOptions options,
                           cache::ComposeCache* compose_cache)
    : services_(services),
      composer_(*services.catalog, weights, schema),
      selector_(weights, schema, options.use_uptime_filter),
      options_(options),
      rng_(util::derive_seed(seed, "qsa-algorithm", 0)) {
  QSA_EXPECTS(services.catalog && services.placement && services.discovery &&
              services.peers && services.net && services.neighbors);
  composer_.set_cache(compose_cache);
}

void QsaAlgorithm::aggregate_into(const ServiceRequest& request,
                                  sim::SimTime now, AggregationPlan& plan) {
  QSA_EXPECTS(!request.abstract_path.empty());
  plan.reset();

  // Tier 1a: discover candidate instances through the P2P lookup service.
  if (!discover_candidates(services_, request, now, candidates_, plan)) {
    return;
  }
  const std::span<const std::vector<registry::InstanceId>> candidates(
      candidates_.data(), request.abstract_path.size());

  // Tier 1b: compose the QoS-consistent shortest service path.
  if (options_.qcs_composition) {
    composer_.compose_into(candidates, request.requirement, comp_);
  } else {
    // Ablation: a random QoS-consistent path (the baseline composer), built
    // with this algorithm's own RNG stream.
    comp_ = compose_random(
        composer_,
        CompositionRequest{{candidates.begin(), candidates.end()},
                           request.requirement},
        rng_);
  }
  if (!comp_.success) {
    plan.failure = FailureCause::kComposition;
    return;
  }
  plan.instances = comp_.instances;
  plan.composition_cost = comp_.cost;

  // Tier 2: dynamic peer selection, hop by hop in the reverse direction of
  // the aggregation flow (hop 1 = the sink-layer instance, selected by the
  // requester's host).
  const std::size_t layers = plan.instances.size();
  if (hop_candidates_.size() < layers) hop_candidates_.resize(layers);
  for (std::size_t hop = 1; hop <= layers; ++hop) {
    auto& cands = hop_candidates_[hop - 1];
    eligible_providers(*services_.placement, plan.instances[layers - hop],
                       request.excluded_hosts, cands);
    if (cands.empty()) {
      plan.failure = FailureCause::kSelection;
      return;
    }
  }
  const std::span<const std::vector<net::PeerId>> hop_candidates(
      hop_candidates_.data(), layers);
  services_.neighbors->register_path(request.requester, hop_candidates, now);

  plan.hosts.assign(layers, net::kNoPeer);
  net::PeerId current = request.requester;
  for (std::size_t hop = 1; hop <= layers; ++hop) {
    const auto& inst =
        services_.catalog->instance(plan.instances[layers - hop]);
    const auto& cands = hop_candidates[hop - 1];
    const bool direct = current == request.requester;
    services_.neighbors->prepare_selection(
        current, cands, static_cast<std::uint8_t>(hop), direct, now);

    HopSelection chosen;
    if (options_.smart_selection) {
      chosen = selector_.select_hop(
          *services_.peers, *services_.net, services_.neighbors->table(current),
          current, inst, cands, request.session_duration, now, rng_);
    } else {
      // Ablation: random peer per hop, ignoring all performance information.
      chosen = HopSelection{cands[rng_.index(cands.size())], true};
    }
    if (!chosen.ok()) {
      plan.failure = FailureCause::kSelection;
      return;
    }
    if (chosen.random_fallback) ++plan.random_fallback_hops;
    plan.hosts[layers - hop] = chosen.peer;
    current = chosen.peer;
  }
}

}  // namespace qsa::core
