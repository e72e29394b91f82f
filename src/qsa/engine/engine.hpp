// The sim-free serving facade (DESIGN.md §13): everything the per-request
// composition+selection hot path needs — the aggregation algorithm under
// test (QCS composer + dynamic peer selector, or a baseline), the
// compose/discovery memo caches, and the selector's live load signal —
// assembled behind injected seams:
//
//   * time comes from the caller (the harness passes the simulator's now
//     to aggregate()) or from an engine::Clock (a standalone request loop
//     drives a ManualClock through serve_into());
//   * randomness is the algorithm's own deterministic RNG, derived from
//     EngineConfig::seed with the same labels the harness always used, so a
//     simulation routed through the engine is byte-identical to the
//     pre-engine harness;
//   * world state (peer table, WAN model, overlay, catalog, placement)
//     arrives as non-owning pointers, probed through the same snapshot
//     interfaces the simulator uses.
//
// One ServingEngine serves one logical requester stream on one thread; a
// multi-threaded server runs one engine per shard over a shared immutable
// world and merges the shards' engine::ServeStats (engine/serve.hpp).
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>

#include "qsa/cache/compose_cache.hpp"
#include "qsa/core/aggregate.hpp"
#include "qsa/engine/clock.hpp"
#include "qsa/obs/registry.hpp"
#include "qsa/registry/directory.hpp"

namespace qsa::engine {

/// The aggregation algorithm a grid (simulated or serving) runs.
enum class AlgorithmKind : std::uint8_t { kQsa, kRandom, kFixed };

[[nodiscard]] std::string_view to_string(AlgorithmKind kind);

/// Engine construction knobs — the algorithm-facing subset of the harness's
/// GridConfig, with identical defaults and seed-derivation labels.
struct EngineConfig {
  std::uint64_t seed = 42;
  AlgorithmKind algorithm = AlgorithmKind::kQsa;
  core::QsaOptions qsa_options;
  /// Weight on the bandwidth term of Definition 3.1 / Phi; negative =
  /// uniform over all m+1 terms (the paper's setup).
  double bandwidth_weight = -1;
  /// Attach the compatibility/cost memo tables (bit-identical on or off).
  bool compose_caches = true;
  /// TTL of the requester-side discovery cache; zero disables it.
  sim::SimTime discovery_cache_ttl = sim::SimTime::zero();
};

/// The world the engine serves against. Non-owning; everything but the
/// directory and neighbor tables is read-only shared state (safe to share
/// across shard engines), while `directory` and `neighbors` carry
/// per-requester soft state and must be exclusive to one engine's thread.
struct EngineDeps {
  const registry::ServiceCatalog* catalog = nullptr;
  const registry::PlacementMap* placement = nullptr;
  /// Non-const: the engine owns the discovery-cache policy (TTL) of its
  /// directory view.
  registry::ServiceDirectory* directory = nullptr;
  /// Candidate-lookup backend the algorithms actually query. Null = the
  /// directory above (the default); the harness points it at its
  /// index::AttributeIndex when --discovery=dht swaps the backend.
  const registry::DiscoveryBackend* discovery = nullptr;
  const net::PeerTable* peers = nullptr;
  const net::NetworkModel* net = nullptr;
  probe::NeighborResolution* neighbors = nullptr;
  /// Optional; required only by the clock-driven serve_into().
  const Clock* clock = nullptr;
};

class ServingEngine {
 public:
  ServingEngine(const EngineConfig& config, const EngineDeps& deps);

  ServingEngine(const ServingEngine&) = delete;
  ServingEngine& operator=(const ServingEngine&) = delete;
  ~ServingEngine();

  /// One compose+select pass at an explicit time (the simulator-driven
  /// entry point).
  [[nodiscard]] core::AggregationPlan aggregate(
      const core::ServiceRequest& request, sim::SimTime now) {
    core::AggregationPlan plan;
    algorithm_->aggregate_into(request, now, plan);
    return plan;
  }

  /// Clock-driven entry point (a standalone request loop's): time is read
  /// from the injected Clock. Requires EngineDeps::clock. Reuses `out`'s
  /// buffers (see AggregationAlgorithm::aggregate_into).
  void serve_into(const core::ServiceRequest& request,
                  core::AggregationPlan& out) {
    QSA_EXPECTS(clock_ != nullptr);
    algorithm_->aggregate_into(request, clock_->now(), out);
  }

  [[nodiscard]] core::AggregationAlgorithm& algorithm() noexcept {
    return *algorithm_;
  }
  /// The compatibility/cost memo; non-null iff config.compose_caches.
  [[nodiscard]] const cache::ComposeCache* compose_cache() const noexcept {
    return compose_cache_.get();
  }
  [[nodiscard]] const qos::TupleWeights& weights() const noexcept {
    return weights_;
  }

  /// Attaches observability to the engine-owned pieces (the compose cache's
  /// hit/miss counters). Gated on the cache existing, so knobs-off metric
  /// exports stay byte-identical.
  void set_metrics(obs::MetricsRegistry* metrics) {
    if (compose_cache_ != nullptr) compose_cache_->set_metrics(metrics);
  }

 private:
  const Clock* clock_ = nullptr;
  qos::TupleWeights weights_;
  std::unique_ptr<cache::ComposeCache> compose_cache_;
  std::unique_ptr<core::AggregationAlgorithm> algorithm_;
};

}  // namespace qsa::engine
