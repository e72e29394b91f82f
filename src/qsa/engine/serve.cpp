#include "qsa/engine/serve.hpp"

namespace qsa::engine {

void ServeStats::count(const core::AggregationPlan& plan) noexcept {
  ++requests;
  switch (plan.failure) {
    case core::FailureCause::kNone:
      ++ok;
      break;
    case core::FailureCause::kDiscovery:
      ++fail_discovery;
      break;
    case core::FailureCause::kComposition:
      ++fail_composition;
      break;
    default:
      // The engine runs setup only; admission/departure never occur here.
      ++fail_selection;
      break;
  }
  lookup_hops += static_cast<std::uint64_t>(plan.lookup_hops);
  random_fallback_hops +=
      static_cast<std::uint64_t>(plan.random_fallback_hops);
}

void ServeStats::merge(const ServeStats& other) noexcept {
  requests += other.requests;
  ok += other.ok;
  fail_discovery += other.fail_discovery;
  fail_composition += other.fail_composition;
  fail_selection += other.fail_selection;
  lookup_hops += other.lookup_hops;
  random_fallback_hops += other.random_fallback_hops;
}

}  // namespace qsa::engine
