// The paper's two comparison heuristics (Section 4.1), one pipeline with
// two policies:
//
//  * random — picks a random QoS-consistent service path (ignoring
//    aggregated resource cost) and a uniformly random provider peer per hop
//    (ignoring all performance information);
//  * fixed — always picks the same (deterministic first) consistent service
//    path and "dedicated" peers: the lowest-id provider of each instance.
//    This models the conventional client-server deployment the paper
//    contrasts against.
#pragma once

#include "qsa/core/aggregate.hpp"

namespace qsa::core {

/// A uniformly random QoS-consistent path through the candidate layers
/// (randomized backtracking DFS: succeeds whenever any consistent path
/// exists). Cost is reported with the same scalarization QCS uses so the
/// two are comparable.
[[nodiscard]] CompositionResult compose_random(const QcsComposer& composer,
                                               const CompositionRequest& req,
                                               util::Rng& rng);

/// The deterministic first consistent path (candidates tried in the order
/// given), used by the fixed baseline.
[[nodiscard]] CompositionResult compose_first(const QcsComposer& composer,
                                              const CompositionRequest& req);

/// Which Section 4.1 heuristic a BaselineAlgorithm runs.
enum class BaselinePolicy : std::uint8_t { kRandom, kFixed };

/// Both baselines: discover candidates, compose a path by DFS, then place
/// one provider per instance, source to sink, among the providers the
/// request has not excluded. The policy decides three things: whether the
/// DFS is shuffled (compose_random) or ordered (compose_first), whether
/// the provider is a uniform draw or the lowest id, and whether each hop
/// counts as a random-fallback hop (random only). Random draws one shuffle
/// per layer, then one provider per instance; fixed draws nothing.
class BaselineAlgorithm final : public AggregationAlgorithm {
 public:
  BaselineAlgorithm(BaselinePolicy policy, GridServices services,
                    qos::TupleWeights weights, qos::ResourceSchema schema,
                    std::uint64_t seed,
                    cache::ComposeCache* compose_cache = nullptr);

  void aggregate_into(const ServiceRequest& request, sim::SimTime now,
                      AggregationPlan& out) override;

 private:
  BaselinePolicy policy_;
  GridServices services_;
  QcsComposer composer_;  // reused only for cost bookkeeping + satisfy checks
  util::Rng rng_;

  // Per-request scratch, grow-only like QsaAlgorithm's.
  std::vector<std::vector<registry::InstanceId>> candidates_;
  std::vector<net::PeerId> eligible_;
};

}  // namespace qsa::core
