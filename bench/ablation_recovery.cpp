// Extension study: runtime failure recovery. The paper stops at setup time
// and notes that "we do need runtime failure detection and recovery" under
// churn (Section 4.2) — this bench implements that future-work extension
// (re-select a replacement host when a provisioning peer departs, migrate
// the reservations) and measures how much of the churn-induced loss it
// recovers.
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
      util::parse_double_list(flags.get("churn", "50,100,200"));
  util::reject_unknown_flags(flags, "ablation_recovery");

  bench::print_header("Extension: mid-session departure recovery",
                      "the paper's future-work item, quantified under churn",
                      opt, base);

  std::vector<harness::ExperimentCell> cells;
  for (double churn : churn_rates) {
    for (bool recovery : {false, true}) {
      auto cfg = base;
      cfg.churn.events_per_min = churn * opt.scale;
      cfg.enable_recovery = recovery;
      cells.push_back(harness::ExperimentCell{
          (recovery ? "recovery@" : "abort@") + metrics::Table::num(churn, 0),
          cfg});
    }
  }
  bench::enable_observability(cells, opt);
  const auto results = harness::ExperimentRunner(opt.threads).run(cells);
  bench::write_metrics_sidecar("ablation_recovery", results, opt);

  metrics::Table table({"churn_peers_per_min", "psi_abort", "psi_recovery",
                        "sessions_recovered", "aborts_with_recovery"});
  for (std::size_t i = 0; i < churn_rates.size(); ++i) {
    const auto& off = results[i * 2].result;
    const auto& on = results[i * 2 + 1].result;
    table.add_row({metrics::Table::num(churn_rates[i], 0),
                   metrics::Table::num(100 * off.success_ratio(), 1),
                   metrics::Table::num(100 * on.success_ratio(), 1),
                   std::to_string(on.counters.get("sessions.recovered")),
                   std::to_string(on.counters.get("sessions.aborted"))});
  }
  bench::emit(table, opt);

  bool helps = true;
  for (std::size_t i = 0; i < churn_rates.size(); ++i) {
    helps &= results[i * 2 + 1].result.success_ratio() + 1e-9 >=
             results[i * 2].result.success_ratio();
  }
  std::printf("shape: recovery never hurts and lifts psi under churn: %s\n",
              helps ? "yes" : "NO");
  return helps ? 0 : 1;
}
