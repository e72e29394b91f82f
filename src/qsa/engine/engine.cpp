#include "qsa/engine/engine.hpp"

#include "qsa/core/baselines.hpp"
#include "qsa/util/expects.hpp"
#include "qsa/util/rng.hpp"

namespace qsa::engine {
namespace {

// Identical to the harness's historical weight computation: uniform over
// all m+1 terms, or the given bandwidth mass with the remainder split
// evenly across the end-system resource kinds.
qos::TupleWeights make_weights(double bandwidth_weight, std::size_t kinds) {
  if (bandwidth_weight < 0) return qos::TupleWeights::uniform(kinds);
  return qos::TupleWeights(
      util::SmallVec<double, qos::kMaxResources>(
          kinds, (1.0 - bandwidth_weight) / static_cast<double>(kinds)),
      bandwidth_weight);
}

}  // namespace

std::string_view to_string(AlgorithmKind kind) {
  switch (kind) {
    case AlgorithmKind::kQsa:
      return "qsa";
    case AlgorithmKind::kRandom:
      return "random";
    case AlgorithmKind::kFixed:
      return "fixed";
  }
  return "?";
}

ServingEngine::ServingEngine(const EngineConfig& config,
                             const EngineDeps& deps)
    : clock_(deps.clock),
      weights_(make_weights(config.bandwidth_weight,
                            deps.peers != nullptr ? deps.peers->schema().kinds()
                                                  : 0)) {
  QSA_EXPECTS(deps.catalog && deps.placement && deps.directory && deps.peers &&
              deps.net && deps.neighbors);
  // Cache wiring precedes any metrics attachment: the directory gates its
  // cache counters on whether the TTL cache is enabled.
  deps.directory->set_cache_ttl(config.discovery_cache_ttl);
  if (config.compose_caches) {
    compose_cache_ = std::make_unique<cache::ComposeCache>();
  }

  const core::GridServices services{
      deps.catalog, deps.placement,
      deps.discovery != nullptr
          ? deps.discovery
          : static_cast<const registry::DiscoveryBackend*>(deps.directory),
      deps.peers, deps.net, deps.neighbors};
  // Seed-derivation labels are load-bearing: they match the pre-engine
  // harness exactly, so simulations routed through the facade replay the
  // same RNG streams bit for bit.
  const std::uint64_t algo_seed = util::derive_seed(config.seed, "algo", 0);
  if (config.algorithm == AlgorithmKind::kQsa) {
    algorithm_ = std::make_unique<core::QsaAlgorithm>(
        services, weights_, deps.peers->schema(), algo_seed,
        config.qsa_options, compose_cache_.get());
  } else {
    algorithm_ = std::make_unique<core::BaselineAlgorithm>(
        config.algorithm == AlgorithmKind::kRandom
            ? core::BaselinePolicy::kRandom
            : core::BaselinePolicy::kFixed,
        services, weights_, deps.peers->schema(), algo_seed,
        compose_cache_.get());
  }
}

ServingEngine::~ServingEngine() = default;

}  // namespace qsa::engine
