// Churn resilience: demonstrates the uptime heuristic of the dynamic peer
// selection tier. Two identical grids run under heavy topological variation;
// one QSA selector matches candidate uptime against the session duration,
// the other ignores uptime. Sessions placed on long-lived peers survive
// churn measurably more often.
//
//   ./examples/churn_resilience [--minutes=40] [--churn=12]
#include <cstdio>

#include "qsa/harness/grid.hpp"
#include "qsa/util/flags.hpp"

using namespace qsa;

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const double minutes =
      util::get_double_in(flags, "minutes", 40, -util::kMaxFlagMinutes,
                          util::kMaxFlagMinutes, "churn_resilience");
  const double churn = flags.get_double("churn", 12);
  util::reject_unknown_flags(flags, "churn_resilience");

  harness::GridConfig base;
  base.seed = 31;
  base.peers = 500;
  base.min_providers = 15;
  base.max_providers = 30;
  base.requests.rate_per_min = 25;
  base.churn.events_per_min = churn;
  base.horizon = sim::SimTime::minutes(minutes);
  base.algorithm = harness::AlgorithmKind::kQsa;
  harness::GridConfig blind = base;
  blind.qsa_options.use_uptime_filter = false;
  // A grid aborts on a config that breaks a rule; check both first.
  for (const harness::GridConfig* cfg : {&base, &blind}) {
    if (const std::string_view rule = cfg->validate(); !rule.empty()) {
      std::printf("out-of-range knob: need %.*s\n",
                  static_cast<int>(rule.size()), rule.data());
      return 2;
    }
  }

  std::printf("grid of %zu peers, %g churn events/min (~%.1f%%/min), "
              "%g req/min, %g minutes\n\n",
              base.peers, churn, 100 * churn / static_cast<double>(base.peers),
              base.requests.rate_per_min, minutes);

  struct Row {
    const char* name;
    harness::GridResult result;
  };
  Row rows[2];

  {
    harness::GridSimulation grid(base);  // uptime filter on (default)
    rows[0] = Row{"uptime-aware", grid.run()};
  }
  {
    harness::GridSimulation grid(blind);
    rows[1] = Row{"uptime-blind", grid.run()};
  }

  std::printf("%-14s %8s %10s %12s %10s\n", "selector", "requests",
              "psi", "dep-aborts", "admitted");
  for (const auto& row : rows) {
    std::printf("%-14s %8llu %9.1f%% %12llu %10llu\n", row.name,
                static_cast<unsigned long long>(row.result.requests),
                100 * row.result.success_ratio(),
                static_cast<unsigned long long>(row.result.failures_departure),
                static_cast<unsigned long long>(
                    row.result.counter("sessions.admitted")));
  }

  std::printf("\nThe uptime-aware selector avoids freshly joined peers for "
              "long sessions, so fewer of its sessions are killed by "
              "departures — the mechanism behind the paper's Figure 7/8 "
              "results.\n");
  return 0;
}
