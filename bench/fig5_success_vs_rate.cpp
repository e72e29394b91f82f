// Figure 5: average service aggregation request success ratio (psi) vs
// request rate, over 400 simulated minutes, no topological variation,
// QSA vs random vs fixed.
//
// Paper setup: 10^4 peers; request rates 0..1000 req/min; each point is the
// average success ratio over a 400-minute run.
#include <vector>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace qsa;
  util::Flags flags(argc, argv);
  const auto opt = bench::parse_options(flags);

  auto base = bench::paper_config(opt);
  base.horizon = sim::SimTime::minutes(flags.get_double("minutes", 400));
  base.churn.events_per_min = 0;

  // The paper sweeps 0..1000 req/min (pre-scaling).
  std::vector<double> rates = util::parse_double_list(
      flags.get("rates", "50,100,200,400,600,800,1000"));
  util::reject_unknown_flags(flags, "fig5_success_vs_rate");

  bench::print_header(
      "Figure 5: average success ratio vs request rate",
      "10^4 peers, 400 min, no churn, rates 0..1000 req/min", opt, base);

  std::vector<harness::ExperimentCell> cells;
  for (double rate : rates) {
    auto cfg = base;
    cfg.requests.rate_per_min = rate * opt.scale;
    for (auto& cell : harness::algorithm_comparison(cfg)) {
      cell.label = cell.label + "@" + metrics::Table::num(rate, 0);
      cells.push_back(std::move(cell));
    }
  }

  bench::enable_observability(cells, opt);
  const auto results = harness::ExperimentRunner(opt.threads).run(cells);
  bench::write_metrics_sidecar("fig5_success_vs_rate", results, opt);

  metrics::Table table({"rate_req_per_min", "psi_qsa", "psi_random",
                        "psi_fixed"});
  for (std::size_t i = 0; i < rates.size(); ++i) {
    const auto& qsa_r = results[i * 3 + 0].result;
    const auto& rnd_r = results[i * 3 + 1].result;
    const auto& fix_r = results[i * 3 + 2].result;
    table.add_row({metrics::Table::num(rates[i], 0),
                   metrics::Table::num(100 * qsa_r.success_ratio(), 1),
                   metrics::Table::num(100 * rnd_r.success_ratio(), 1),
                   metrics::Table::num(100 * fix_r.success_ratio(), 1)});
  }
  bench::emit(table, opt);

  // Shape checks the paper's Figure 5 exhibits.
  bool qsa_beats_random = true, random_beats_fixed = true;
  for (std::size_t i = 0; i < rates.size(); ++i) {
    qsa_beats_random &= results[i * 3].result.success_ratio() + 1e-9 >=
                        results[i * 3 + 1].result.success_ratio();
    random_beats_fixed &= results[i * 3 + 1].result.success_ratio() + 1e-9 >=
                          results[i * 3 + 2].result.success_ratio();
  }
  std::printf("shape: psi(QSA) >= psi(random) at every rate: %s\n",
              qsa_beats_random ? "yes" : "NO");
  std::printf("shape: psi(random) >= psi(fixed) at every rate: %s\n",
              random_beats_fixed ? "yes" : "NO");
  return qsa_beats_random && random_beats_fixed ? 0 : 1;
}
