// Experiment runner: executes a list of independent GridConfigs (sweep
// points x algorithms x replications) across threads and returns
// results in input order — bit-identical regardless of thread count, since
// every simulation is self-seeded and single-threaded. A result carries the
// GridResult and, for an observed cell, the metrics registry; traces and
// series stream only to writers a caller attaches to its own
// GridSimulation.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "qsa/harness/config.hpp"
#include "qsa/harness/grid.hpp"

namespace qsa::harness {

struct ExperimentCell {
  std::string label;
  GridConfig config;
};

struct ExperimentResult {
  std::string label;
  GridResult result;
  /// The metrics registry as sorted-key JSON, filled iff the cell's config
  /// set `observe`. Byte-identical across runner thread counts: every
  /// simulation is self-seeded, single-threaded and sim-time-stamped.
  std::string metrics_json;
};

class ExperimentRunner {
 public:
  /// `threads` = 0: one thread per hardware thread; N: at most N threads,
  /// the calling one included.
  explicit ExperimentRunner(std::size_t threads = 0) : threads_(threads) {}

  [[nodiscard]] std::vector<ExperimentResult> run(
      std::span<const ExperimentCell> cells) const;

 private:
  std::size_t threads_;
};

/// Builds the three algorithm variants of one configuration (the standard
/// QSA / random / fixed comparison every figure plots).
[[nodiscard]] std::vector<ExperimentCell> algorithm_comparison(
    const GridConfig& base, std::string_view label_prefix = "");

}  // namespace qsa::harness
