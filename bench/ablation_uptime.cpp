// Ablation: value of the uptime filter under churn. The paper credits QSA's
// churn tolerance to matching candidate uptime against the application's
// session duration; disabling only that filter isolates its contribution.
#include <vector>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace qsa;
  util::Flags flags(argc, argv);
  const auto opt = bench::parse_options(flags);

  auto base = bench::paper_config(opt);
  base.horizon = sim::SimTime::minutes(flags.get_double("minutes", 60));
  base.requests.rate_per_min = flags.get_double("rate", 100) * opt.scale;
  base.algorithm = harness::AlgorithmKind::kQsa;

  const std::vector<double> churn_rates =
      util::parse_double_list(flags.get("churn", "0,50,100,200"));
  util::reject_unknown_flags(flags, "ablation_uptime");

  bench::print_header("Ablation: uptime filter under churn",
                      "QSA with vs without the uptime>=duration match", opt,
                      base);

  std::vector<harness::ExperimentCell> cells;
  for (double churn : churn_rates) {
    for (bool uptime : {true, false}) {
      auto cfg = base;
      cfg.churn.events_per_min = churn * opt.scale;
      cfg.qsa_options.selector.use_uptime_filter = uptime;
      cells.push_back(harness::ExperimentCell{
          (uptime ? "with@" : "without@") + metrics::Table::num(churn, 0),
          cfg});
    }
  }
  bench::enable_observability(cells, opt);
  const auto results = harness::ExperimentRunner(opt.threads).run(cells);
  bench::write_metrics_sidecar("ablation_uptime", results, opt);

  metrics::Table table({"churn_peers_per_min", "psi_with_uptime",
                        "psi_without_uptime", "departures_with",
                        "departures_without"});
  for (std::size_t i = 0; i < churn_rates.size(); ++i) {
    const auto& with = results[i * 2].result;
    const auto& without = results[i * 2 + 1].result;
    table.add_row({metrics::Table::num(churn_rates[i], 0),
                   metrics::Table::num(100 * with.success_ratio(), 1),
                   metrics::Table::num(100 * without.success_ratio(), 1),
                   std::to_string(with.failures_departure),
                   std::to_string(without.failures_departure)});
  }
  bench::emit(table, opt);

  // Under the heaviest churn, the filter should not hurt and usually helps.
  const auto& heavy_with = results[(churn_rates.size() - 1) * 2].result;
  const auto& heavy_without = results[(churn_rates.size() - 1) * 2 + 1].result;
  const bool filter_helps =
      heavy_with.failures_departure <= heavy_without.failures_departure;
  std::printf("shape: at max churn, departure-aborts with filter (%llu) <= "
              "without (%llu): %s\n",
              static_cast<unsigned long long>(heavy_with.failures_departure),
              static_cast<unsigned long long>(heavy_without.failures_departure),
              filter_helps ? "yes" : "NO");
  return filter_helps ? 0 : 1;
}
