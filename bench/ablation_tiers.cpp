// Ablation: how much does each of QSA's two tiers contribute?
//   full        = QCS composition + smart peer selection (the paper's QSA)
//   compose-only= QCS composition + random peers
//   select-only = random consistent path + smart peer selection
//   neither     = random path + random peers (the `random` baseline)
#include <vector>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace qsa;
  util::Flags flags(argc, argv);
  const auto opt = bench::parse_options(flags);

  auto base = bench::paper_config(opt);
  base.horizon = sim::SimTime::minutes(flags.get_double("minutes", 100));
  base.requests.rate_per_min = flags.get_double("rate", 400) * opt.scale;
  util::reject_unknown_flags(flags, "ablation_tiers");
  base.churn.events_per_min = 0;

  bench::print_header(
      "Ablation: QSA tier contributions",
      "10^4 peers, 100 min, rate = 400 req/min, no churn (design-choice study)",
      opt, base);

  struct Variant {
    const char* name;
    core::QsaOptions options;
  };
  const Variant variants[] = {
      {"full", {}},
      {"compose-only", {.qcs_composition = true, .smart_selection = false}},
      {"select-only", {.qcs_composition = false, .smart_selection = true}},
      {"neither", {.qcs_composition = false, .smart_selection = false}},
  };

  std::vector<harness::ExperimentCell> cells;
  for (const auto& v : variants) {
    auto cfg = base;
    cfg.algorithm = harness::AlgorithmKind::kQsa;
    cfg.qsa_options = v.options;
    cells.push_back(harness::ExperimentCell{v.name, cfg});
  }
  bench::enable_observability(cells, opt);
  const auto results = harness::ExperimentRunner(opt.threads).run(cells);
  bench::write_metrics_sidecar("ablation_tiers", results, opt);

  metrics::Table table(
      {"variant", "psi_pct", "avg_composition_cost", "admission_failures"});
  for (const auto& r : results) {
    table.add_row({r.label,
                   metrics::Table::num(100 * r.result.success_ratio(), 1),
                   metrics::Table::num(r.result.avg_composition_cost, 4),
                   std::to_string(r.result.failures_admission)});
  }
  bench::emit(table, opt);

  // Expected ordering: smart selection carries most of the gain (variants
  // with it beat variants without it by a wide margin), and QCS keeps the
  // aggregated resource cost visibly lower than random composition. Whether
  // `full` or `select-only` lands on top is load-dependent: QCS concentrates
  // demand on the cheapest instance chain (one provider pool), while random
  // composition spreads it across every instance's pool — an interaction the
  // paper does not ablate; see EXPERIMENTS.md.
  const bool selection_dominates =
      results[0].result.success_ratio() >
          results[1].result.success_ratio() + 0.02 &&
      results[2].result.success_ratio() >
          results[3].result.success_ratio() + 0.02;
  const bool qcs_cheaper = results[0].result.avg_composition_cost <
                           results[2].result.avg_composition_cost;
  std::printf("shape: smart selection dominates either composition mode: %s\n",
              selection_dominates ? "yes" : "NO");
  std::printf("shape: QCS paths cheaper than random consistent paths: %s\n",
              qcs_cheaper ? "yes" : "NO");
  return selection_dominates && qcs_cheaper ? 0 : 1;
}
