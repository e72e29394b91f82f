// Outcome accounting for a request loop driving ServingEngine::serve_into
// (DESIGN.md §13). A loop keeps one ServeStats per shard thread and merges
// them when the threads join.
#pragma once

#include <cstdint>

#include "qsa/core/aggregate.hpp"

namespace qsa::engine {

/// Outcome accounting of one shard's request loop. Mergeable across shards.
struct ServeStats {
  std::uint64_t requests = 0;
  std::uint64_t ok = 0;
  std::uint64_t fail_discovery = 0;
  std::uint64_t fail_composition = 0;
  std::uint64_t fail_selection = 0;
  std::uint64_t lookup_hops = 0;
  std::uint64_t random_fallback_hops = 0;

  void count(const core::AggregationPlan& plan) noexcept;
  void merge(const ServeStats& other) noexcept;
};

}  // namespace qsa::engine
