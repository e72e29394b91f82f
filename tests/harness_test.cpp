// Experiment runner, config scaling, and harness-level helpers.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <string_view>
#include <utility>

#include "qsa/harness/experiment.hpp"

namespace qsa::harness {
namespace {

GridConfig tiny_config() {
  GridConfig c;
  c.seed = 5;
  c.peers = 200;
  c.min_providers = 10;
  c.max_providers = 20;
  c.apps.applications = 4;
  c.requests.rate_per_min = 10;
  c.horizon = sim::SimTime::minutes(6);
  return c;
}

TEST(AlgorithmKindNames, RoundTrip) {
  EXPECT_EQ(to_string(AlgorithmKind::kQsa), "qsa");
  EXPECT_EQ(to_string(AlgorithmKind::kRandom), "random");
  EXPECT_EQ(to_string(AlgorithmKind::kFixed), "fixed");
}

TEST(GridConfigScale, ScalesPopulationBoundKnobs) {
  GridConfig c;
  c.peers = 10'000;
  c.requests.rate_per_min = 200;
  c.churn.events_per_min = 50;
  c.scale(0.1);
  EXPECT_EQ(c.peers, 1000u);
  EXPECT_DOUBLE_EQ(c.requests.rate_per_min, 20);
  EXPECT_DOUBLE_EQ(c.churn.events_per_min, 5);
}

TEST(GridConfigScale, EnforcesMinimumPopulation) {
  GridConfig c;
  c.peers = 1000;
  c.scale(0.01);
  EXPECT_EQ(c.peers, 200u);
}

TEST(GridConfigValidate, DefaultAndBoundaryConfigsPass) {
  EXPECT_EQ(GridConfig{}.validate(), "");
  GridConfig c = tiny_config();
  EXPECT_EQ(c.validate(), "");
  c.bandwidth_weight = 1;
  c.faults.set_all_loss(1);
  c.faults.max_retries = 0;
  c.admission_retries = 0;
  c.requests.rate_per_min = 0;
  c.replication.max_replicas = 0;
  c.obs_window = sim::SimTime::zero();
  EXPECT_EQ(c.validate(), "");
}

TEST(GridConfigValidate, NamesTheBrokenRule) {
  using Edit = void (*)(GridConfig&);
  const std::pair<Edit, std::string_view> cases[] = {
      {[](GridConfig& c) { c.peers = 0; }, "peers >= 1"},
      {[](GridConfig& c) { c.min_providers = c.max_providers + 1; },
       "1 <= min_providers <= max_providers"},
      {[](GridConfig& c) { c.probe_budget = 0; },
       "1 <= probe_budget <= 65535"},
      {[](GridConfig& c) { c.requests.rate_per_min = -5; },
       "requests.rate_per_min >= 0"},
      {[](GridConfig& c) { c.requests.rate_per_min = std::nan(""); },
       "requests.rate_per_min >= 0"},
      {[](GridConfig& c) { c.churn.events_per_min = -3; },
       "churn.events_per_min >= 0"},
      {[](GridConfig& c) { c.admission_retries = -2; },
       "admission_retries >= 0"},
      {[](GridConfig& c) { c.bandwidth_weight = 2; },
       "bandwidth_weight <= 1 (negative = uniform)"},
      {[](GridConfig& c) { c.replication.threshold = -1; },
       "replication.threshold > 0"},
      {[](GridConfig& c) { c.replication.max_replicas = -1; },
       "replication.max_replicas >= 0"},
      {[](GridConfig& c) { c.faults.set_all_loss(1.5); },
       "0 <= faults.*_loss <= 1"},
      {[](GridConfig& c) { c.faults.set_all_loss(-0.1); },
       "0 <= faults.*_loss <= 1"},
      {[](GridConfig& c) { c.faults.max_retries = -1; },
       "faults.max_retries >= 0"},
      {[](GridConfig& c) { c.horizon = sim::SimTime::minutes(-1); },
       "horizon > 0"},
      {[](GridConfig& c) { c.obs_window = sim::SimTime::millis(-5); },
       "obs_window >= 0"},
  };
  for (const auto& [edit, rule] : cases) {
    GridConfig c = tiny_config();
    edit(c);
    EXPECT_EQ(c.validate(), rule);
  }
  // Several broken rules: the first in declaration order is named.
  GridConfig c = tiny_config();
  c.horizon = sim::SimTime::zero();
  c.admission_retries = -1;
  EXPECT_EQ(c.validate(), "admission_retries >= 0");
}

TEST(GridConfigDeathTest, GridSimulationRejectsABrokenRule) {
  GridConfig c = tiny_config();
  c.replication.threshold = 0;
  EXPECT_DEATH({ GridSimulation grid(c); },
               "precondition violated: \\(replication.threshold > 0\\)");
  c = tiny_config();
  c.horizon = sim::SimTime::zero();
  EXPECT_DEATH({ GridSimulation grid(c); }, "horizon > 0");
  c = tiny_config();
  c.peers = 0;
  EXPECT_DEATH({ GridSimulation grid(c); }, "peers >= 1");
}

TEST(AlgorithmComparison, BuildsThreeCells) {
  const auto cells = algorithm_comparison(tiny_config(), "r100/");
  ASSERT_EQ(cells.size(), 3u);
  EXPECT_EQ(cells[0].label, "r100/qsa");
  EXPECT_EQ(cells[0].config.algorithm, AlgorithmKind::kQsa);
  EXPECT_EQ(cells[1].label, "r100/random");
  EXPECT_EQ(cells[2].label, "r100/fixed");
  // Everything else is inherited from the base config.
  EXPECT_EQ(cells[1].config.peers, tiny_config().peers);
}

TEST(ExperimentRunner, RunsCellsAndPreservesOrder) {
  std::vector<ExperimentCell> cells;
  for (int i = 0; i < 3; ++i) {
    auto c = tiny_config();
    c.seed = static_cast<std::uint64_t>(100 + i);
    cells.push_back(ExperimentCell{"cell" + std::to_string(i), c});
  }
  ExperimentRunner runner(2);
  const auto results = runner.run(cells);
  ASSERT_EQ(results.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(results[static_cast<std::size_t>(i)].label,
              "cell" + std::to_string(i));
    EXPECT_GT(results[static_cast<std::size_t>(i)].result.requests, 0u);
  }
}

TEST(ExperimentRunner, ThreadCountDoesNotChangeResults) {
  std::vector<ExperimentCell> cells;
  for (int i = 0; i < 4; ++i) {
    auto c = tiny_config();
    c.seed = static_cast<std::uint64_t>(7 + i);
    cells.push_back(ExperimentCell{std::to_string(i), c});
  }
  const auto serial = ExperimentRunner(1).run(cells);
  const auto parallel = ExperimentRunner(4).run(cells);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].result.requests, parallel[i].result.requests);
    EXPECT_EQ(serial[i].result.successes, parallel[i].result.successes);
    EXPECT_EQ(serial[i].result.lookup_hops, parallel[i].result.lookup_hops);
  }
}

TEST(QsaOptionsAblation, TiersCanBeDisabled) {
  // Full QSA vs selection-ablated QSA on the same saturated grid: smart
  // selection must not lose.
  auto base = tiny_config();
  base.requests.rate_per_min = 80;
  base.horizon = sim::SimTime::minutes(10);

  auto run_with = [&](core::QsaOptions options) {
    auto c = base;
    c.qsa_options = options;
    GridSimulation grid(c);
    return grid.run().success_ratio();
  };
  const double full = run_with(core::QsaOptions{});
  const double no_selection =
      run_with(core::QsaOptions{.smart_selection = false});
  EXPECT_GE(full, no_selection);
}

}  // namespace
}  // namespace qsa::harness
