// Robustness study: message loss. The fault plan drops probes, soft-state
// notifications, lookup hops and recovery round-trips at a configurable
// rate; retry + backoff and alternate-route lookups absorb some of it, the
// rest surfaces as discovery/selection/admission failures and stale probe
// data. Sweeps the loss rate for each algorithm and reconciles the observed
// drop fraction against the configured one (deterministic hash-derived
// verdicts make this exact under a fixed seed).
#include <cmath>
#include <vector>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace qsa;
  util::Flags flags(argc, argv);
  const auto opt = bench::parse_options(flags);

  auto base = bench::paper_config(opt);
  base.horizon = sim::SimTime::minutes(flags.get_double("minutes", 60));
  base.requests.rate_per_min = flags.get_double("rate", 200) * opt.scale;
  base.churn.events_per_min = flags.get_double("churn", 0) * opt.scale;
  base.enable_recovery = flags.get_bool("recovery", false);
  base.faults.max_retries =
      static_cast<int>(flags.get_int("fault-retries", 2));

  const std::vector<double> losses =
      util::parse_double_list(flags.get("loss", "0,0.01,0.05,0.1,0.2,0.4"));
  util::reject_unknown_flags(flags, "ablation_loss");
  const harness::AlgorithmKind algos[] = {harness::AlgorithmKind::kQsa,
                                          harness::AlgorithmKind::kRandom,
                                          harness::AlgorithmKind::kFixed};

  bench::print_header(
      "Robustness: message loss vs request success",
      "loss sweep over all channels; retries + alternate-route lookups",
      opt, base);

  std::vector<harness::ExperimentCell> cells;
  for (const auto algo : algos) {
    for (double p : losses) {
      auto cfg = base;
      cfg.algorithm = algo;
      cfg.faults.set_all_loss(p);
      cells.push_back(harness::ExperimentCell{
          std::string(harness::to_string(algo)) +
              " loss=" + metrics::Table::num(p, 2),
          cfg});
    }
  }
  bench::enable_observability(cells, opt);
  const auto results = harness::ExperimentRunner(opt.threads).run(cells);
  bench::write_metrics_sidecar("ablation_loss", results, opt);

  metrics::Table table({"algorithm", "loss", "psi_pct", "fail_discovery",
                        "dropped", "drop_rate", "retries", "rerouted"});
  bool monotone = true;
  bool rates_ok = true;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i].result;
    const double p = losses[i % losses.size()];
    const auto messages = r.counters.get("fault.messages");
    const auto dropped = r.counters.get("fault.dropped");
    const double observed =
        messages == 0 ? 0
                      : static_cast<double>(dropped) /
                            static_cast<double>(messages);
    const auto retries = r.counters.get("probe.retries") +
                         r.counters.get("lookup.retries") +
                         r.counters.get("session.recovery_retries");
    table.add_row({std::string(harness::to_string(
                       cells[i].config.algorithm)),
                   metrics::Table::num(p, 2),
                   metrics::Table::num(100 * r.success_ratio(), 1),
                   std::to_string(r.failures_discovery),
                   std::to_string(dropped), metrics::Table::num(observed, 3),
                   std::to_string(retries),
                   std::to_string(r.counters.get("lookup.rerouted"))});
    // Within one algorithm psi must not improve as loss grows (small
    // tolerance: psi is a ratio of integer counts).
    if (i % losses.size() != 0 &&
        r.success_ratio() >
            results[i - 1].result.success_ratio() + 0.02) {
      monotone = false;
    }
    // The empirical drop fraction must track the configured rate.
    if (messages > 1000 && std::abs(observed - p) > 0.05) rates_ok = false;
  }
  bench::emit(table, opt);

  std::printf("shape: psi degrades monotonically with loss:   %s\n",
              monotone ? "yes" : "NO");
  std::printf("shape: observed drop rate matches configured:  %s\n",
              rates_ok ? "yes" : "NO");
  return monotone && rates_ok ? 0 : 1;
}
