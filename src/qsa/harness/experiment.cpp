#include "qsa/harness/experiment.hpp"

#include <memory>

#include "qsa/obs/export.hpp"
#include "qsa/util/thread_pool.hpp"

namespace qsa::harness {

std::vector<ExperimentResult> ExperimentRunner::run(
    std::span<const ExperimentCell> cells) const {
  std::vector<ExperimentResult> results(cells.size());
  // Default thread count draws from the process-wide pool (one thread owner
  // per process); an explicit count still gets a dedicated pool of that
  // exact size, since shared_pool() is always hardware-sized.
  std::unique_ptr<util::ThreadPool> own =
      threads_ == 0 ? nullptr : std::make_unique<util::ThreadPool>(threads_);
  util::ThreadPool& pool = own ? *own : util::shared_pool();
  pool.parallel_for(cells.size(), [&](std::size_t i) {
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
