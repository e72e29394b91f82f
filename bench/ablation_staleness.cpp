// Ablation: probing period (information staleness). Dynamic peer selection
// acts on performance information as of the last probe epoch; the longer
// the period, the more concurrent requests pile onto the same
// attractive-looking peer before anyone notices it filled up, and the
// longer departed peers keep being selected. The paper's design leans on
// "up-to-date performance information ... through a controlled,
// benefit-based probing method" — this bench quantifies "up-to-date".
#include <vector>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace qsa;
  util::Flags flags(argc, argv);
  const auto opt = bench::parse_options(flags);

  auto base = bench::paper_config(opt);
  base.horizon = sim::SimTime::minutes(flags.get_double("minutes", 60));
  base.requests.rate_per_min = flags.get_double("rate", 800) * opt.scale;
  base.churn.events_per_min = flags.get_double("churn", 50) * opt.scale;
  base.algorithm = harness::AlgorithmKind::kQsa;

  const std::vector<double> periods_s =
      util::parse_double_list(flags.get("periods", "5,30,120,600"));
  util::reject_unknown_flags(flags, "ablation_staleness");

  bench::print_header(
      "Ablation: probe period (performance-information staleness)",
      "heavy load + churn; selection quality vs probing freshness", opt,
      base);

  std::vector<harness::ExperimentCell> cells;
  for (double s : periods_s) {
    auto cfg = base;
    cfg.probe_period = sim::SimTime::seconds(s);
    cells.push_back(harness::ExperimentCell{
        metrics::Table::num(s, 0) + "s", cfg});
  }
  bench::enable_observability(cells, opt);
  const auto results = harness::ExperimentRunner(opt.threads).run(cells);
  bench::write_metrics_sidecar("ablation_staleness", results, opt);

  metrics::Table table({"probe_period_s", "psi_pct", "admission_failures",
                        "departure_failures"});
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i].result;
    table.add_row({metrics::Table::num(periods_s[i], 0),
                   metrics::Table::num(100 * r.success_ratio(), 1),
                   std::to_string(r.failures_admission),
                   std::to_string(r.failures_departure)});
  }
  bench::emit(table, opt);

  const bool more_collisions = results.back().result.failures_admission >=
                               results.front().result.failures_admission;
  std::printf(
      "shape: staler probes mean more admission collisions (first %llu vs "
      "last %llu): %s\n",
      static_cast<unsigned long long>(results.front().result.failures_admission),
      static_cast<unsigned long long>(results.back().result.failures_admission),
      more_collisions ? "yes" : "NO");
  return more_collisions ? 0 : 1;
}
