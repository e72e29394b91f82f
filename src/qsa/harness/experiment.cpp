#include "qsa/harness/experiment.hpp"

#include "qsa/obs/export.hpp"
#include "qsa/util/parallel_for.hpp"

namespace qsa::harness {

std::vector<ExperimentResult> ExperimentRunner::run(
    std::span<const ExperimentCell> cells) const {
  std::vector<ExperimentResult> results(cells.size());
  util::parallel_for(cells.size(), threads_, [&](std::size_t i) {
    // Each cell owns an independent simulation; results land at the cell's
    // index so output order never depends on scheduling.
    GridSimulation grid(cells[i].config);
    results[i].label = cells[i].label;
    results[i].result = grid.run();
    if (cells[i].config.observe) {
      results[i].metrics_json = obs::metrics_json(*grid.metrics());
    }
  });
  return results;
}

std::vector<ExperimentCell> algorithm_comparison(const GridConfig& base,
                                                 std::string_view label_prefix) {
  std::vector<ExperimentCell> cells;
  for (AlgorithmKind kind :
       {AlgorithmKind::kQsa, AlgorithmKind::kRandom, AlgorithmKind::kFixed}) {
    GridConfig config = base;
    config.algorithm = kind;
    cells.push_back(ExperimentCell{
        std::string(label_prefix) + std::string(to_string(kind)), config});
  }
  return cells;
}

}  // namespace qsa::harness
