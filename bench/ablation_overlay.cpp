// Substrate study: the paper's discovery step works over "Chord or CAN".
// This bench runs the same workload on both lookup substrates and compares
// end-to-end success ratio (which should be substrate-insensitive) and the
// discovery cost (hops per request), where the substrates differ by design:
// Chord routes in O(log N), 2-d CAN in O(sqrt N).
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
  util::reject_unknown_flags(flags, "ablation_overlay");
  base.algorithm = harness::AlgorithmKind::kQsa;

  bench::print_header("Substrate: Chord vs CAN lookup",
                      "Section 3.2 invokes 'Chord or CAN' for discovery",
                      opt, base);

  std::vector<harness::ExperimentCell> cells;
  for (harness::OverlayKind kind :
       {harness::OverlayKind::kChord, harness::OverlayKind::kCan,
        harness::OverlayKind::kPastry}) {
    auto cfg = base;
    cfg.overlay = kind;
    cells.push_back(
        harness::ExperimentCell{std::string(to_string(kind)), cfg});
  }
  bench::enable_observability(cells, opt);
  const auto results = harness::ExperimentRunner(opt.threads).run(cells);
  bench::write_metrics_sidecar("ablation_overlay", results, opt);

  metrics::Table table(
      {"overlay", "psi_pct", "lookup_hops_per_request", "setup_ms_per_req"});
  for (const auto& r : results) {
    const double reqs =
        static_cast<double>(std::max<std::uint64_t>(1, r.result.requests));
    table.add_row(
        {r.label, metrics::Table::num(100 * r.result.success_ratio(), 1),
         metrics::Table::num(static_cast<double>(r.result.lookup_hops) / reqs, 2),
         metrics::Table::num(
             static_cast<double>(r.result.setup_latency_ms) / reqs, 1)});
  }
  bench::emit(table, opt);

  double psi_lo = 1, psi_hi = 0;
  for (const auto& r : results) {
    psi_lo = std::min(psi_lo, r.result.success_ratio());
    psi_hi = std::max(psi_hi, r.result.success_ratio());
  }
  const bool insensitive = psi_hi - psi_lo < 0.05;
  const bool hops_ordered =
      results[2].result.lookup_hops < results[0].result.lookup_hops &&
      results[0].result.lookup_hops < results[1].result.lookup_hops;
  std::printf("shape: psi substrate-insensitive (spread %.1f%%): %s\n",
              100 * (psi_hi - psi_lo), insensitive ? "yes" : "NO");
  std::printf(
      "shape: hop cost ordering pastry (log16) < chord (log2) < can (sqrt): "
      "%s\n",
      hops_ordered ? "yes" : "NO");
  return insensitive && hops_ordered ? 0 : 1;
}
