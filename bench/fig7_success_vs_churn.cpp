// Figure 7: average success ratio vs topological variation rate
// (peers/min), 60-minute runs at request rate = 100 req/min.
#include <vector>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace qsa;
  util::Flags flags(argc, argv);
  const auto opt = bench::parse_options(flags);

  auto base = bench::paper_config(opt);
  base.horizon = sim::SimTime::minutes(flags.get_double("minutes", 60));
  base.requests.rate_per_min = flags.get_double("rate", 100) * opt.scale;

  // The paper sweeps 0..200 peers/min (pre-scaling; <= 2% of the population).
  std::vector<double> churn_rates =
      util::parse_double_list(flags.get("churn", "0,25,50,100,150,200"));
  util::reject_unknown_flags(flags, "fig7_success_vs_churn");

  bench::print_header(
      "Figure 7: average success ratio vs topological variation rate",
      "10^4 peers, 60 min, rate = 100 req/min, churn 0..200 peers/min", opt,
      base);

  std::vector<harness::ExperimentCell> cells;
  for (double churn : churn_rates) {
    auto cfg = base;
    cfg.churn.events_per_min = churn * opt.scale;
    for (auto& cell : harness::algorithm_comparison(cfg)) {
      cells.push_back(std::move(cell));
    }
  }
  bench::enable_observability(cells, opt);
  const auto results = harness::ExperimentRunner(opt.threads).run(cells);
  bench::write_metrics_sidecar("fig7_success_vs_churn", results, opt);

  metrics::Table table({"churn_peers_per_min", "psi_qsa", "psi_random",
                        "psi_fixed"});
  for (std::size_t i = 0; i < churn_rates.size(); ++i) {
    table.add_row(
        {metrics::Table::num(churn_rates[i], 0),
         metrics::Table::num(100 * results[i * 3].result.success_ratio(), 1),
         metrics::Table::num(100 * results[i * 3 + 1].result.success_ratio(), 1),
         metrics::Table::num(100 * results[i * 3 + 2].result.success_ratio(), 1)});
  }
  bench::emit(table, opt);

  // Shape: QSA tolerates churn best; success degrades as churn grows.
  bool qsa_best = true;
  for (std::size_t i = 0; i < churn_rates.size(); ++i) {
    qsa_best &= results[i * 3].result.success_ratio() + 1e-9 >=
                results[i * 3 + 1].result.success_ratio();
  }
  const double qsa_first = results[0].result.success_ratio();
  const double qsa_last =
      results[(churn_rates.size() - 1) * 3].result.success_ratio();
  const bool churn_sensitive = qsa_last < qsa_first;
  std::printf("shape: psi(QSA) >= psi(random) at every churn rate: %s\n",
              qsa_best ? "yes" : "NO");
  std::printf("shape: churn sensitivity visible (psi drops %0.1f%% -> %0.1f%%): %s\n",
              100 * qsa_first, 100 * qsa_last,
              churn_sensitive ? "yes" : "NO");
  return qsa_best && churn_sensitive ? 0 : 1;
}
