#include "qsa/core/baselines.hpp"

#include <algorithm>

#include "qsa/util/expects.hpp"

namespace qsa::core {
namespace {

/// Backtracking DFS over the layered candidate graph, trying candidates in
/// the order of `order` (which may be shuffled). Fills `chosen`
/// sink -> source; returns true on a full consistent path. Consistency
/// checks go through the composer so they share its compatibility memo.
bool dfs_path(const QcsComposer& composer, const qos::QosVector& requirement,
              const std::vector<std::vector<registry::InstanceId>>& order,
              std::size_t layer_from_sink,
              const registry::ServiceInstance* downstream,
              std::vector<registry::InstanceId>& chosen) {
  const std::size_t layer = order.size() - 1 - layer_from_sink;  // source index
  for (registry::InstanceId id : order[layer]) {
    const auto& inst = composer.catalog().instance(id);
    const bool consistent =
        layer_from_sink == 0
            ? composer.satisfies_requirement(inst, requirement)
            : composer.compatible(inst, *downstream);
    if (!consistent) continue;
    chosen[layer] = id;
    if (layer == 0) return true;  // reached the source layer
    if (dfs_path(composer, requirement, order, layer_from_sink + 1, &inst,
                 chosen)) {
      return true;
    }
  }
  return false;
}

/// The DFS composer behind both baselines: shuffles each layer (source
/// first) when `rng` is set, then takes the first consistent path.
CompositionResult compose_dfs(
    const QcsComposer& composer,
    std::span<const std::vector<registry::InstanceId>> candidates,
    const qos::QosVector& requirement, util::Rng* rng) {
  CompositionResult result;
  const std::size_t layers = candidates.size();
  if (layers == 0) return result;
  for (const auto& layer : candidates) {
    if (layer.empty()) return result;
    result.nodes += layer.size();
  }

  std::vector<std::vector<registry::InstanceId>> order(candidates.begin(),
                                                       candidates.end());
  if (rng != nullptr) {
    for (auto& layer : order) rng->shuffle(std::span<registry::InstanceId>(layer));
  }

  std::vector<registry::InstanceId> chosen(layers, registry::kNoInstance);
  if (!dfs_path(composer, requirement, order, 0, nullptr, chosen)) {
    return result;
  }
  result.success = true;
  result.instances = std::move(chosen);
  for (registry::InstanceId id : result.instances) {
    result.cost += composer.instance_cost(id);
  }
  return result;
}

}  // namespace

CompositionResult compose_random(const QcsComposer& composer,
                                 const CompositionRequest& req,
                                 util::Rng& rng) {
  return compose_dfs(composer, req.candidates, req.requirement, &rng);
}

CompositionResult compose_first(const QcsComposer& composer,
                                const CompositionRequest& req) {
  return compose_dfs(composer, req.candidates, req.requirement, nullptr);
}

BaselineAlgorithm::BaselineAlgorithm(BaselinePolicy policy,
                                     GridServices services,
                                     qos::TupleWeights weights,
                                     qos::ResourceSchema schema,
                                     std::uint64_t seed,
                                     cache::ComposeCache* compose_cache)
    : policy_(policy),
      services_(services),
      composer_(*services.catalog, weights, schema),
      rng_(util::derive_seed(seed, "random-algorithm", 0)) {
  QSA_EXPECTS(services.catalog && services.placement && services.discovery &&
              services.net);
  composer_.set_cache(compose_cache);
}

void BaselineAlgorithm::aggregate_into(const ServiceRequest& request,
                                       sim::SimTime now,
                                       AggregationPlan& plan) {
  QSA_EXPECTS(!request.abstract_path.empty());
  plan.reset();
  if (!discover_candidates(services_, request, now, candidates_, plan)) {
    return;
  }
  // Fixed's determinism: the directory returns candidates in sorted id
  // order, so the first consistent DFS path is the same for every identical
  // request — the "always picks the same service path" behaviour.
  const bool random = policy_ == BaselinePolicy::kRandom;
  const CompositionResult comp = compose_dfs(
      composer_, {candidates_.data(), request.abstract_path.size()},
      request.requirement, random ? &rng_ : nullptr);
  if (!comp.success) {
    plan.failure = FailureCause::kComposition;
    return;
  }
  plan.instances = comp.instances;
  plan.composition_cost = comp.cost;

  // Random: a uniform provider per instance, chosen without performance
  // information. Fixed: dedicated servers, the lowest-id provider of each
  // instance, exactly as a client-server deployment pins services to fixed
  // hosts; when the dedicated host has been excluded (its reservation just
  // failed), fail over to the next-lowest id, the way such deployments
  // fail over to a standby replica.
  for (registry::InstanceId id : plan.instances) {
    eligible_providers(*services_.placement, id, request.excluded_hosts,
                       eligible_);
    if (eligible_.empty()) {
      plan.failure = FailureCause::kSelection;
      plan.hosts.clear();
      return;
    }
    if (random) {
      plan.hosts.push_back(eligible_[rng_.index(eligible_.size())]);
      ++plan.random_fallback_hops;
    } else {
      plan.hosts.push_back(
          *std::min_element(eligible_.begin(), eligible_.end()));
    }
  }
}

}  // namespace qsa::core
