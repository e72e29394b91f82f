// Ablation: sensitivity of psi to the probing budget M (the paper fixes
// M = 100 to cap probing overhead at 1% of a 10^4-peer grid). Small budgets
// force the selector into its random fallback for candidates it cannot
// probe.
#include <vector>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace qsa;
  util::Flags flags(argc, argv);
  const auto opt = bench::parse_options(flags);

  auto base = bench::paper_config(opt);
  base.horizon = sim::SimTime::minutes(flags.get_double("minutes", 60));
  base.requests.rate_per_min = flags.get_double("rate", 400) * opt.scale;
  base.churn.events_per_min = 0;
  base.algorithm = harness::AlgorithmKind::kQsa;

  const std::vector<double> budgets =
      util::parse_double_list(flags.get("budgets", "5,10,25,50,100,200"));
  util::reject_unknown_flags(flags, "ablation_probe_budget");

  bench::print_header("Ablation: probe budget M",
                      "paper fixes M = 100 (1% probing overhead)", opt, base);

  std::vector<harness::ExperimentCell> cells;
  for (double m : budgets) {
    auto cfg = base;
    cfg.probe_budget = static_cast<std::size_t>(m);
    cells.push_back(
        harness::ExperimentCell{"M=" + metrics::Table::num(m, 0), cfg});
  }
  bench::enable_observability(cells, opt);
  const auto results = harness::ExperimentRunner(opt.threads).run(cells);
  bench::write_metrics_sidecar("ablation_probe_budget", results, opt);

  metrics::Table table({"M", "psi_pct", "random_fallback_hops_per_req",
                        "notify_msgs_per_req"});
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i].result;
    const double reqs =
        static_cast<double>(std::max<std::uint64_t>(1, r.requests));
    table.add_row(
        {metrics::Table::num(budgets[i], 0),
         metrics::Table::num(100 * r.success_ratio(), 1),
         metrics::Table::num(static_cast<double>(r.random_fallback_hops) / reqs,
                             3),
         metrics::Table::num(
             static_cast<double>(r.notification_messages) / reqs, 0)});
  }
  bench::emit(table, opt);

  const bool more_fallbacks = results.front().result.random_fallback_hops >
                              results.back().result.random_fallback_hops;
  std::printf("shape: tight budgets force more random fallbacks: %s\n",
              more_fallbacks ? "yes" : "NO");
  return more_fallbacks ? 0 : 1;
}
