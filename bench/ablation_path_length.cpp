// Ablation: service path length (the paper's n-hop aggregation, Figure 1b).
// Longer abstract paths multiply everything — composition layers, peers to
// select, reservations to hold, exposure to departures — so psi falls with
// hop count. The paper mixes lengths 2-5; this bench isolates each.
#include <vector>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace qsa;
  util::Flags flags(argc, argv);
  const auto opt = bench::parse_options(flags);

  auto base = bench::paper_config(opt);
  base.horizon = sim::SimTime::minutes(flags.get_double("minutes", 60));
  base.requests.rate_per_min = flags.get_double("rate", 400) * opt.scale;
  base.churn.events_per_min = flags.get_double("churn", 50) * opt.scale;
  util::reject_unknown_flags(flags, "ablation_path_length");
  base.algorithm = harness::AlgorithmKind::kQsa;

  bench::print_header(
      "Ablation: abstract service path length (n-hop aggregation)",
      "paper mixes lengths 2-5; moderate churn (50 peers/min pre-scale)",
      opt, base);

  std::vector<harness::ExperimentCell> cells;
  for (int len = 1; len <= 5; ++len) {
    auto cfg = base;
    cfg.apps.min_path_len = len;
    cfg.apps.max_path_len = len;
    cells.push_back(
        harness::ExperimentCell{"len=" + std::to_string(len), cfg});
  }
  bench::enable_observability(cells, opt);
  const auto results = harness::ExperimentRunner(opt.threads).run(cells);
  bench::write_metrics_sidecar("ablation_path_length", results, opt);

  metrics::Table table({"path_length", "psi_pct", "composition_failures",
                        "departure_failures", "lookup_hops_per_req"});
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i].result;
    const double reqs =
        static_cast<double>(std::max<std::uint64_t>(1, r.requests));
    table.add_row(
        {std::to_string(i + 1),
         metrics::Table::num(100 * r.success_ratio(), 1),
         std::to_string(r.failures_composition),
         std::to_string(r.failures_departure),
         metrics::Table::num(static_cast<double>(r.lookup_hops) / reqs, 1)});
  }
  bench::emit(table, opt);

  const bool psi_falls = results.front().result.success_ratio() >
                         results.back().result.success_ratio();
  const bool exposure_grows = results.back().result.failures_departure >
                              results.front().result.failures_departure;
  std::printf("shape: psi decreases with path length: %s\n",
              psi_falls ? "yes" : "NO");
  std::printf("shape: departure exposure grows with path length: %s\n",
              exposure_grows ? "yes" : "NO");
  return psi_falls && exposure_grows ? 0 : 1;
}
