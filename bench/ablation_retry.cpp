// Extension study: admission retries. Selection acts on probe-epoch-stale
// information, so under load several requests can pile onto the same
// attractive peer within one epoch and fail admission. A retry that
// excludes the blamed peer recovers most of these stale-info collisions at
// the cost of extra setup work.
#include <vector>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace qsa;
  util::Flags flags(argc, argv);
  const auto opt = bench::parse_options(flags);

  auto base = bench::paper_config(opt);
  base.horizon = sim::SimTime::minutes(flags.get_double("minutes", 60));
  base.requests.rate_per_min = flags.get_double("rate", 1000) * opt.scale;
  base.churn.events_per_min = 0;
  base.algorithm = harness::AlgorithmKind::kQsa;

  const std::vector<double> retries =
      util::parse_double_list(flags.get("retries", "0,1,2,4"));
  util::reject_unknown_flags(flags, "ablation_retry");

  bench::print_header(
      "Extension: admission retries (second-chance selection)",
      "saturated grid; paper behaviour = 0 retries", opt, base);

  std::vector<harness::ExperimentCell> cells;
  for (double r : retries) {
    auto cfg = base;
    cfg.admission_retries = static_cast<int>(r);
    cells.push_back(
        harness::ExperimentCell{"retries=" + metrics::Table::num(r, 0), cfg});
  }
  bench::enable_observability(cells, opt);
  const auto results = harness::ExperimentRunner(opt.threads).run(cells);
  bench::write_metrics_sidecar("ablation_retry", results, opt);

  metrics::Table table({"retries", "psi_pct", "admission_failures",
                        "retry_attempts"});
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i].result;
    table.add_row({metrics::Table::num(retries[i], 0),
                   metrics::Table::num(100 * r.success_ratio(), 1),
                   std::to_string(r.failures_admission),
                   std::to_string(r.counters.get("admission.retries"))});
  }
  bench::emit(table, opt);

  const bool fewer_failures = results.front().result.failures_admission >=
                              results.back().result.failures_admission;
  std::printf("shape: retries reduce admission failures monotonically: %s\n",
              fewer_failures ? "yes" : "NO");
  return fewer_failures ? 0 : 1;
}
