// The paper's evaluation (Section 4, Figures 5-8) and the repository's
// design-choice, extension, robustness and discovery studies, run by one
// table-driven driver. Each row of kStudies names a study, its title and
// the paper setup it reproduces, its base horizon and rates, a function
// that builds its cells from the scaled paper configuration, and a function
// that turns the cells' results into a table and shape predicates. The
// driver runs the selected studies in table order, one ExperimentRunner
// batch each, and prints per study:
//
//   === <title> ===               header (bench_common.hpp print_header)
//   <table>                       plus a CSV copy with --csv
//   shape: <claim>: yes|NO        one line per predicate, next to the
//                                 study's informational lines
//
// Flags: --only=NAME[,NAME...]   studies to run (default: all of them)
//        --scale --seed --threads  as in bench_common.hpp
//        --csv                   also print each table as CSV
//        --metrics-out=FILE      one JSON sidecar for every selected cell,
//                                labelled `<study>/<cell>`; enables
//                                observability on every cell
// Exit status: 0 when every predicate holds; 1 when one prints NO, a cell
// lacks a count its verdicts read, or the sidecar cannot be written; 2 on
// an unknown flag or study name, or a --metrics-out file that cannot be
// opened.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "qsa/metrics/table.hpp"

namespace {

using namespace qsa;
using harness::AlgorithmKind;
using harness::GridConfig;
using harness::GridResult;
using metrics::Table;
using sim::SimTime;
using Cells = std::vector<harness::ExperimentCell>;
using Results = std::vector<harness::ExperimentResult>;

[[gnu::format(printf, 1, 2)]] std::string strf(const char* format, ...) {
  char buf[256];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof(buf), format, args);
  va_end(args);
  return buf;
}

unsigned long long ull(std::uint64_t v) { return v; }

double psi(const Results& r, std::size_t i) {
  return r[i].result.success_ratio();
}

std::string pct(double ratio) { return Table::num(100 * ratio, 1); }

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

/// The count `name` of a cell. With `must` set, the cell's configuration
/// exports it, so an absent name means the export broke and a verdict
/// reading it would hold on a vacuous 0: exit 1 instead.
std::uint64_t count(const GridResult& g, std::string_view name, bool must) {
  const auto it = g.counters.find(name);
  if (it != g.counters.end()) return it->second;
  if (must) {
    std::fprintf(stderr, "paper: a cell exported no %.*s count\n",
                 static_cast<int>(name.size()), name.data());
    std::exit(1);
  }
  return 0;
}

/// `count` per request, counting an idle run as one request.
double per_req(const GridResult& r, std::uint64_t count) {
  return ratio(count, std::max<std::uint64_t>(1, r.requests));
}

/// What a study prints under its table, in order: predicates, printed as
/// `shape: <text>: yes|NO`, and informational lines, printed verbatim.
struct Report {
  explicit Report(std::vector<std::string> columns)
      : table(std::move(columns)) {}

  void check(const std::string& text, bool holds) {
    lines.emplace_back("shape: " + text + ":", holds);
  }
  void note(std::string text) {
    lines.emplace_back(std::move(text), std::nullopt);
  }

  metrics::Table table;
  /// `shape: <text>:` is padded to this width, so a study's verdicts can
  /// share one column.
  int verdict_width = 0;
  std::vector<std::pair<std::string, std::optional<bool>>> lines;
};

/// One cell per swept value, labelled with the printf format `label`.
template <typename Apply>
Cells sweep(const GridConfig& base, std::span<const double> values,
            const char* label, Apply apply) {
  Cells cells;
  for (const double v : values) {
    GridConfig cfg = base;
    apply(cfg, v);
    cells.push_back({strf(label, v), cfg});
  }
  return cells;
}

// ------------------------------------------------- Figures 5 and 7: sweeps

/// qsa, random and fixed cells (in that order) per swept value, labelled
/// `<algorithm>@<value>`.
template <typename Apply>
Cells compare_algorithms(const GridConfig& base,
                         std::span<const double> values, Apply apply) {
  Cells cells;
  for (const double v : values) {
    GridConfig cfg = base;
    apply(cfg, v);
    for (auto& cell : harness::algorithm_comparison(cfg)) {
      cell.label += strf("@%.0f", v);
      cells.push_back(std::move(cell));
    }
  }
  return cells;
}

/// One row per swept value: the value, then psi (%) of qsa, random, fixed.
Report psi_by_algorithm(const char* column, std::span<const double> values,
                        const Results& r) {
  Report out({column, "psi_qsa", "psi_random", "psi_fixed"});
  for (std::size_t i = 0; i < values.size(); ++i) {
    out.table.add_row({Table::num(values[i], 0), pct(psi(r, i * 3)),
                       pct(psi(r, i * 3 + 1)), pct(psi(r, i * 3 + 2))});
  }
  return out;
}

/// psi(algorithm a) >= psi(algorithm b) at every swept value, where a and b
/// index the qsa/random/fixed triple.
bool at_least(const Results& r, std::size_t a, std::size_t b) {
  for (std::size_t i = 0; i + 2 < r.size(); i += 3) {
    if (psi(r, i + a) + 1e-9 < psi(r, i + b)) return false;
  }
  return true;
}

constexpr double kFig5Rates[] = {50, 100, 200, 400, 600, 800, 1000};

Cells fig5_cells(const GridConfig& base, double scale) {
  return compare_algorithms(base, kFig5Rates, [scale](GridConfig& cfg,
                                                      double rate) {
    cfg.requests.rate_per_min = rate * scale;
  });
}

Report fig5_report(const Results& r) {
  Report out = psi_by_algorithm("rate_req_per_min", kFig5Rates, r);
  out.check("psi(QSA) >= psi(random) at every rate", at_least(r, 0, 1));
  out.check("psi(random) >= psi(fixed) at every rate", at_least(r, 1, 2));
  return out;
}

// Pre-scaling; the paper's largest rate is 2% of the population per minute.
constexpr double kFig7Churn[] = {0, 25, 50, 100, 150, 200};

Cells fig7_cells(const GridConfig& base, double scale) {
  return compare_algorithms(base, kFig7Churn, [scale](GridConfig& cfg,
                                                      double churn) {
    cfg.churn.events_per_min = churn * scale;
  });
}

Report fig7_report(const Results& r) {
  Report out = psi_by_algorithm("churn_peers_per_min", kFig7Churn, r);
  const double first = psi(r, 0);
  const double last = psi(r, r.size() - 3);
  out.check("psi(QSA) >= psi(random) at every churn rate", at_least(r, 0, 1));
  out.check(strf("churn sensitivity visible (psi drops %0.1f%% -> %0.1f%%)",
                 100 * first, 100 * last),
            last < first);
  return out;
}

// ------------------------------------- Figures 6 and 8: 2-minute windows

/// The qsa, random and fixed cells' windowed psi, cut to the shortest.
using Windows = std::array<std::span<const metrics::Sample>, 3>;

Windows windows(const Results& r) {
  std::size_t n = r[0].result.series.size();
  for (std::size_t a = 1; a < 3; ++a) {
    n = std::min(n, r[a].result.series.size());
  }
  Windows w;
  for (std::size_t a = 0; a < 3; ++a) {
    w[a] = std::span(r[a].result.series.samples()).first(n);
  }
  return w;
}

/// Windows in which algorithm a's psi is at least algorithm b's.
std::size_t windows_at_least(const Windows& w, std::size_t a, std::size_t b) {
  std::size_t count = 0;
  for (std::size_t i = 0; i < w[0].size(); ++i) {
    count += w[a][i].value + 1e-9 >= w[b][i].value;
  }
  return count;
}

Report window_rows(const Windows& w) {
  Report out({"minute", "psi_qsa", "psi_random", "psi_fixed"});
  for (std::size_t i = 0; i < w[0].size(); ++i) {
    out.table.add_row({Table::num(w[0][i].time.as_minutes(), 0),
                       Table::num(w[0][i].value, 3),
                       Table::num(w[1][i].value, 3),
                       Table::num(w[2][i].value, 3)});
  }
  return out;
}

/// qsa, random and fixed cells, each sampling psi every
/// GridConfig::sample_period (2 minutes).
Cells windowed_cells(const GridConfig& base, double) {
  return harness::algorithm_comparison(base);
}

Report fig6_report(const Results& r) {
  const Windows w = windows(r);
  const std::size_t n = w[0].size();
  Report out = window_rows(w);
  double gap_random = 0, gap_fixed = 0;
  std::size_t ordered = 0;
  for (std::size_t i = 0; i < n; ++i) {
    gap_random = std::max(gap_random, w[0][i].value - w[1][i].value);
    gap_fixed = std::max(gap_fixed, w[0][i].value - w[2][i].value);
    ordered += w[0][i].value + 1e-9 >= w[1][i].value &&
               w[1][i].value + 1e-9 >= w[2][i].value;
  }
  out.note(strf("shape: QSA >= random in %zu/%zu windows",
                windows_at_least(w, 0, 1), n));
  out.note(strf("shape: max gap QSA-random = %.0f%% (paper: up to ~15%%), "
                "QSA-fixed = %.0f%% (paper: up to ~90%%)",
                100 * gap_random, 100 * gap_fixed));
  out.check(strf("psi(QSA) >= psi(random) >= psi(fixed) in every window "
                 "(%zu/%zu)",
                 ordered, n),
            n > 0 && ordered == n);
  return out;
}

Report fig8_report(const Results& r) {
  const Windows w = windows(r);
  const std::size_t n = w[0].size();
  const std::size_t wins = windows_at_least(w, 0, 1);
  Report out = window_rows(w);
  out.note(strf("shape: QSA >= random in %zu/%zu windows under churn", wins,
                n));
  out.note(strf("departure-induced failures: qsa=%llu random=%llu fixed=%llu",
                ull(r[0].result.failures_departure),
                ull(r[1].result.failures_departure),
                ull(r[2].result.failures_departure)));
  // Under churn single windows are noisy (a departure wave can sink any
  // algorithm); the run average must keep the paper's ordering.
  out.check(strf("run-averaged psi(QSA) >= psi(random) >= psi(fixed) "
                 "(%.1f%% / %.1f%% / %.1f%%)",
                 100 * psi(r, 0), 100 * psi(r, 1), 100 * psi(r, 2)),
            at_least(r, 0, 1) && at_least(r, 1, 2));
  out.check(strf("QSA >= random in more than half the windows (%zu/%zu)",
                 wins, n),
            2 * wins > n);
  return out;
}

// ------------------------------------------------------------- ablations

// QSA's two tiers: QCS composition and smart peer selection, each on/off.
// `neither` is the random baseline.
Cells tiers_cells(const GridConfig& base, double) {
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
  Cells cells;
  for (const auto& v : variants) {
    GridConfig cfg = base;
    cfg.qsa_options = v.options;
    cells.push_back({v.name, cfg});
  }
  return cells;
}

Report tiers_report(const Results& r) {
  Report out(
      {"variant", "psi_pct", "avg_composition_cost", "admission_failures"});
  for (const auto& c : r) {
    out.table.add_row({c.label, pct(c.result.success_ratio()),
                       Table::num(c.result.avg_composition_cost, 4),
                       std::to_string(c.result.failures_admission)});
  }
  // Smart selection carries most of the gain, and QCS keeps the aggregated
  // resource cost visibly lower than random composition. Whether `full` or
  // `select-only` lands on top is load-dependent: QCS concentrates demand
  // on the cheapest instance chain (one provider pool), while random
  // composition spreads it across every instance's pool (EXPERIMENTS.md).
  out.check("smart selection dominates either composition mode",
            psi(r, 0) > psi(r, 1) + 0.02 && psi(r, 2) > psi(r, 3) + 0.02);
  out.check("QCS paths cheaper than random consistent paths",
            r[0].result.avg_composition_cost <
                r[2].result.avg_composition_cost);
  return out;
}

// The paper fixes M = 100 (1% probing overhead on 10^4 peers); small
// budgets force the selector into its random fallback.
constexpr double kProbeBudgets[] = {5, 10, 25, 50, 100, 200};

Cells probe_budget_cells(const GridConfig& base, double) {
  return sweep(base, kProbeBudgets, "M=%.0f", [](GridConfig& cfg, double m) {
    cfg.probe_budget = static_cast<std::size_t>(m);
  });
}

Report probe_budget_report(const Results& r) {
  Report out({"M", "psi_pct", "random_fallback_hops_per_req",
              "notify_msgs_per_req"});
  for (std::size_t i = 0; i < r.size(); ++i) {
    const GridResult& g = r[i].result;
    out.table.add_row(
        {Table::num(kProbeBudgets[i], 0), pct(g.success_ratio()),
         Table::num(per_req(g, g.random_fallback_hops), 3),
         Table::num(per_req(g, g.notification_messages), 0)});
  }
  out.check("tight budgets force more random fallbacks",
            r.front().result.random_fallback_hops >
                r.back().result.random_fallback_hops);
  return out;
}

// The paper credits QSA's churn tolerance to matching candidate uptime
// against the session duration; each churn rate runs with and without it.
constexpr double kUptimeChurn[] = {0, 50, 100, 200};

Cells uptime_cells(const GridConfig& base, double scale) {
  Cells cells;
  for (const double churn : kUptimeChurn) {
    for (const bool uptime : {true, false}) {
      GridConfig cfg = base;
      cfg.churn.events_per_min = churn * scale;
      cfg.qsa_options.use_uptime_filter = uptime;
      cells.push_back({strf(uptime ? "with@%.0f" : "without@%.0f", churn),
                       cfg});
    }
  }
  return cells;
}

Report uptime_report(const Results& r) {
  Report out({"churn_peers_per_min", "psi_with_uptime", "psi_without_uptime",
              "departures_with", "departures_without"});
  for (std::size_t i = 0; i < std::size(kUptimeChurn); ++i) {
    const GridResult& with = r[i * 2].result;
    const GridResult& without = r[i * 2 + 1].result;
    out.table.add_row({Table::num(kUptimeChurn[i], 0),
                       pct(with.success_ratio()), pct(without.success_ratio()),
                       std::to_string(with.failures_departure),
                       std::to_string(without.failures_departure)});
  }
  // Under the heaviest churn the filter should not hurt, and usually helps.
  const GridResult& with = r[r.size() - 2].result;
  const GridResult& without = r.back().result;
  out.check(strf("at max churn, departure-aborts with filter (%llu) <= "
                 "without (%llu)",
                 ull(with.failures_departure),
                 ull(without.failures_departure)),
            with.failures_departure <= without.failures_departure);
  return out;
}

// The paper's future-work item (Section 4.2): re-select a replacement host
// when a provisioning peer departs mid-session, off vs on per churn rate.
constexpr double kRecoveryChurn[] = {50, 100, 200};

Cells recovery_cells(const GridConfig& base, double scale) {
  Cells cells;
  for (const double churn : kRecoveryChurn) {
    for (const bool recovery : {false, true}) {
      GridConfig cfg = base;
      cfg.churn.events_per_min = churn * scale;
      cfg.enable_recovery = recovery;
      cells.push_back(
          {strf(recovery ? "recovery@%.0f" : "abort@%.0f", churn), cfg});
    }
  }
  return cells;
}

Report recovery_report(const Results& r) {
  Report out({"churn_peers_per_min", "psi_abort", "psi_recovery",
              "sessions_recovered", "aborts_with_recovery"});
  bool helps = true;
  for (std::size_t i = 0; i < std::size(kRecoveryChurn); ++i) {
    const GridResult& off = r[i * 2].result;
    const GridResult& on = r[i * 2 + 1].result;
    out.table.add_row({Table::num(kRecoveryChurn[i], 0),
                       pct(off.success_ratio()), pct(on.success_ratio()),
                       std::to_string(on.counter("sessions.recovered")),
                       std::to_string(on.counter("sessions.aborted"))});
    helps &= on.success_ratio() + 1e-9 >= off.success_ratio();
  }
  out.check("recovery never hurts and lifts psi under churn", helps);
  return out;
}

// Section 3.2 discovers over "Chord or CAN": psi should not depend on the
// substrate, while hops per lookup differ by design.
Cells overlay_cells(const GridConfig& base, double) {
  Cells cells;
  for (const auto kind : {harness::OverlayKind::kChord,
                          harness::OverlayKind::kCan,
                          harness::OverlayKind::kPastry}) {
    GridConfig cfg = base;
    cfg.overlay = kind;
    cells.push_back({std::string(harness::to_string(kind)), cfg});
  }
  return cells;
}

Report overlay_report(const Results& r) {
  Report out(
      {"overlay", "psi_pct", "lookup_hops_per_request", "setup_ms_per_req"});
  double lo = 1, hi = 0;
  for (const auto& c : r) {
    const GridResult& g = c.result;
    out.table.add_row({c.label, pct(g.success_ratio()),
                       Table::num(per_req(g, g.lookup_hops), 2),
                       Table::num(per_req(g, g.setup_latency_ms), 1)});
    lo = std::min(lo, g.success_ratio());
    hi = std::max(hi, g.success_ratio());
  }
  out.check(strf("psi substrate-insensitive (spread %.1f%%)", 100 * (hi - lo)),
            hi - lo < 0.05);
  out.check("hop cost ordering pastry (log16) < chord (log2) < can (sqrt)",
            r[2].result.lookup_hops < r[0].result.lookup_hops &&
                r[0].result.lookup_hops < r[1].result.lookup_hops);
  return out;
}

// The bandwidth weight omega_{m+1} of Definition 3.1 and the Phi metric
// (eq. 4-5), swept from resource-only to bandwidth-only on a saturated
// grid; the paper weights uniformly.
constexpr double kBandwidthWeights[] = {0, 0.1, 0.333, 0.6, 0.9};

Cells weights_cells(const GridConfig& base, double) {
  return sweep(base, kBandwidthWeights, "w=%.3f",
               [](GridConfig& cfg, double w) { cfg.bandwidth_weight = w; });
}

Report weights_report(const Results& r) {
  Report out({"bandwidth_weight", "psi_pct", "admission_failures",
              "avg_composition_cost"});
  double rest_lo = 1, hi = 0;
  for (std::size_t i = 0; i < r.size(); ++i) {
    const GridResult& g = r[i].result;
    out.table.add_row({Table::num(kBandwidthWeights[i], 3),
                       pct(g.success_ratio()),
                       std::to_string(g.failures_admission),
                       Table::num(g.avg_composition_cost, 4)});
    if (i > 0) rest_lo = std::min(rest_lo, g.success_ratio());
    hi = std::max(hi, g.success_ratio());
  }
  const double lo = std::min(rest_lo, psi(r, 0));
  out.note(strf("shape: weight configuration moves psi by %.1f%%",
                100 * (hi - lo)));
  // Ignoring bandwidth entirely picks hosts behind links that cannot carry
  // the session; every weight that counts it does better.
  out.check(strf("w=0 gives the sweep's lowest psi (%.1f%% vs >= %.1f%%)",
                 100 * psi(r, 0), 100 * rest_lo),
            psi(r, 0) < rest_lo);
  out.check(strf("psi spans at least 5 points across the sweep (%.1f)",
                 100 * (hi - lo)),
            hi - lo >= 0.05);
  return out;
}

// A retry re-selects with the blamed peer excluded, recovering collisions
// on probe-epoch-stale information at the cost of extra setup work.
constexpr double kRetries[] = {0, 1, 2, 4};

Cells retry_cells(const GridConfig& base, double) {
  return sweep(base, kRetries, "retries=%.0f", [](GridConfig& cfg, double n) {
    cfg.admission_retries = static_cast<int>(n);
  });
}

Report retry_report(const Results& r) {
  Report out({"retries", "psi_pct", "admission_failures", "retry_attempts"});
  for (std::size_t i = 0; i < r.size(); ++i) {
    const GridResult& g = r[i].result;
    out.table.add_row({Table::num(kRetries[i], 0), pct(g.success_ratio()),
                       std::to_string(g.failures_admission),
                       std::to_string(g.counter("admission.retries"))});
  }
  out.check("retries reduce admission failures monotonically",
            r.front().result.failures_admission >=
                r.back().result.failures_admission);
  return out;
}

// The paper mixes abstract paths of 2-5 hops (Figure 1b); each length runs
// alone here. Longer paths mean more peers to select, reservations to hold
// and exposure to departures.
constexpr double kPathLengths[] = {1, 2, 3, 4, 5};

Cells path_length_cells(const GridConfig& base, double) {
  return sweep(base, kPathLengths, "len=%.0f", [](GridConfig& cfg, double n) {
    cfg.apps.min_path_len = static_cast<int>(n);
    cfg.apps.max_path_len = static_cast<int>(n);
  });
}

Report path_length_report(const Results& r) {
  Report out({"path_length", "psi_pct", "composition_failures",
              "departure_failures", "lookup_hops_per_req"});
  for (std::size_t i = 0; i < r.size(); ++i) {
    const GridResult& g = r[i].result;
    out.table.add_row({Table::num(kPathLengths[i], 0), pct(g.success_ratio()),
                       std::to_string(g.failures_composition),
                       std::to_string(g.failures_departure),
                       Table::num(per_req(g, g.lookup_hops), 1)});
  }
  out.check("psi decreases with path length",
            r.front().result.success_ratio() > r.back().result.success_ratio());
  out.check("departure exposure grows with path length",
            r.back().result.failures_departure >
                r.front().result.failures_departure);
  return out;
}

// Selection acts on performance information as of the last probe epoch:
// the longer the period, the more requests pile onto one attractive peer
// before anyone sees it fill up.
constexpr double kProbePeriodsS[] = {5, 30, 120, 600};

Cells staleness_cells(const GridConfig& base, double) {
  return sweep(base, kProbePeriodsS, "%.0fs", [](GridConfig& cfg, double s) {
    cfg.probe_period = SimTime::seconds(s);
  });
}

Report staleness_report(const Results& r) {
  Report out({"probe_period_s", "psi_pct", "admission_failures",
              "departure_failures"});
  for (std::size_t i = 0; i < r.size(); ++i) {
    const GridResult& g = r[i].result;
    out.table.add_row({Table::num(kProbePeriodsS[i], 0), pct(g.success_ratio()),
                       std::to_string(g.failures_admission),
                       std::to_string(g.failures_departure)});
  }
  const GridResult& first = r.front().result;
  const GridResult& last = r.back().result;
  out.check(strf("staler probes mean more admission collisions (first %llu "
                 "vs last %llu)",
                 ull(first.failures_admission), ull(last.failures_admission)),
            last.failures_admission >= first.failures_admission);
  return out;
}

// Message loss on every channel (probes, notifications, lookup hops,
// recovery round-trips) per algorithm; retries with backoff and
// alternate-route lookups absorb part of it. Verdicts are hash-derived, so
// the observed drop fraction is exact under a fixed seed.
constexpr double kLossRates[] = {0, 0.01, 0.05, 0.1, 0.2, 0.4};
constexpr AlgorithmKind kAlgorithms[] = {
    AlgorithmKind::kQsa, AlgorithmKind::kRandom, AlgorithmKind::kFixed};

Cells loss_cells(const GridConfig& base, double) {
  Cells cells;
  for (const AlgorithmKind algo : kAlgorithms) {
    for (const double p : kLossRates) {
      GridConfig cfg = base;
      cfg.algorithm = algo;
      cfg.faults.set_all_loss(p);
      cells.push_back(
          {std::string(harness::to_string(algo)) + strf(" loss=%.2f", p), cfg});
    }
  }
  return cells;
}

Report loss_report(const Results& r) {
  Report out({"algorithm", "loss", "psi_pct", "fail_discovery", "dropped",
              "drop_rate", "retries", "rerouted"});
  out.verdict_width = 46;
  const std::size_t n = std::size(kLossRates);
  bool monotone = true;
  bool rates_ok = true;
  for (std::size_t i = 0; i < r.size(); ++i) {
    const GridResult& g = r[i].result;
    const double p = kLossRates[i % n];
    // A loss-free cell runs without a fault plan and exports no fault.*.
    const auto fault_count = [&](std::string_view name) {
      return count(g, name, p > 0);
    };
    const auto messages = fault_count("fault.messages");
    const auto dropped = fault_count("fault.dropped");
    const double observed = ratio(dropped, messages);
    const auto retries = fault_count("probe.retries") +
                         fault_count("lookup.retries") +
                         fault_count("session.recovery_retries");
    out.table.add_row({std::string(harness::to_string(kAlgorithms[i / n])),
                       Table::num(p, 2), pct(g.success_ratio()),
                       std::to_string(g.failures_discovery),
                       std::to_string(dropped), Table::num(observed, 3),
                       std::to_string(retries),
                       std::to_string(fault_count("lookup.rerouted"))});
    // Within one algorithm psi must not improve as loss grows (with a small
    // tolerance: psi is a ratio of integer counts).
    if (i % n != 0 && g.success_ratio() > psi(r, i - 1) + 0.02) {
      monotone = false;
    }
    if (messages > 1000 && std::abs(observed - p) > 0.05) rates_ok = false;
  }
  out.check("psi degrades monotonically with loss", monotone);
  out.check("observed drop rate matches configured", rates_ok);
  return out;
}

// DESIGN.md §10: QCS sends every request for an application to the one
// cheapest instance chain, so one provider pool saturates while equal
// capacity idles. The top two rates sit past the saturation knee, where
// demand-driven replication should win psi back with a lower concentration
// (the mean co-location share at admission) and an untouched composed
// cost: clones never enter QCS.
constexpr double kReplicationRates[] = {400, 800, 1600, 3200};

Cells replication_cells(const GridConfig& base, double scale) {
  Cells cells;
  for (const AlgorithmKind algo : kAlgorithms) {
    for (const double rate : kReplicationRates) {
      for (const bool on : {false, true}) {
        GridConfig cfg = base;
        cfg.algorithm = algo;
        cfg.requests.rate_per_min = rate * scale;
        cfg.replication.enabled = on;
        cfg.track_load = true;  // concentration is measured in every cell
        cells.push_back({std::string(harness::to_string(algo)) +
                             strf(" rate=%.0f", rate) +
                             (on ? " +replication" : ""),
                         cfg});
      }
    }
  }
  return cells;
}

Report replication_report(const Results& r) {
  Report out({"algorithm", "rate", "replication", "psi_pct", "fail_selection",
              "fail_admission", "peak_load", "concentration", "replicas",
              "retired", "no_host"});
  out.verdict_width = 57;
  const std::size_t nrates = std::size(kReplicationRates);
  for (std::size_t i = 0; i < r.size(); ++i) {
    const GridResult& g = r[i].result;
    out.table.add_row(
        {std::string(harness::to_string(kAlgorithms[i / (nrates * 2)])),
         Table::num(kReplicationRates[i / 2 % nrates], 0),
         i % 2 != 0 ? "on" : "off", pct(g.success_ratio()),
         std::to_string(g.failures_selection),
         std::to_string(g.failures_admission),
         std::to_string(g.counter("load.provider_peak")),
         Table::num(g.avg_service_concentration, 4),
         std::to_string(g.counter("replica.created")),
         std::to_string(g.counter("replica.retired")),
         std::to_string(g.counter("replica.rejected_no_host"))});
  }
  // QSA's cells come first, as (off, on) pairs per rate. Spread is judged
  // on the mean co-location share, not the run-wide peak: replication
  // admits more sessions, so its worst moment can be higher even while
  // typical placements spread across the widened pool.
  bool psi_ok = true, spread_ok = true, cost_ok = true;
  for (std::size_t ri = 0; ri < nrates; ++ri) {
    const GridResult& off = r[ri * 2].result;
    const GridResult& on = r[ri * 2 + 1].result;
    if (ri + 2 >= nrates) {
      psi_ok &= on.success_ratio() >= off.success_ratio();
      spread_ok &= on.avg_service_concentration < off.avg_service_concentration;
    }
    cost_ok &= off.avg_composition_cost == on.avg_composition_cost;
  }
  out.check("psi(QSA+replication) >= psi(QSA) at top two rates", psi_ok);
  out.check("replication strictly lowers service concentration", spread_ok);
  out.check("composed cost bit-identical (QCS objective kept)", cost_ok);
  return out;
}

// DESIGN.md §15: the flat directory (one overlay lookup per abstract
// service, no filtering) vs the attribute index (per-attribute bucket scans
// with the uptime and sink-level predicates pushed down, then a
// client-side re-check), over populations and churn rates. This sweep
// runs fault-free and sets its own populations: --scale does not apply.
constexpr std::size_t kDiscoveryPeers[] = {600, 1200, 2400};
constexpr double kDiscoveryChurn[] = {0, 20};  // events/min per 10^4 peers

Cells discovery_cells(const GridConfig& base, double) {
  Cells cells;
  for (const std::size_t n : kDiscoveryPeers) {
    for (const double churn : kDiscoveryChurn) {
      for (const auto backend : {harness::DiscoveryKind::kDirectory,
                                 harness::DiscoveryKind::kDht}) {
        GridConfig cfg = base;
        const double factor = static_cast<double>(n) / 1e4;
        cfg.peers = n;
        cfg.requests.rate_per_min = 150 * factor;
        cfg.churn.events_per_min = churn * factor;
        cfg.discovery = backend;
        cells.push_back({std::string(harness::to_string(backend)) +
                             " N=" + std::to_string(n) +
                             strf(" churn=%.0f", churn),
                         cfg});
      }
    }
  }
  return cells;
}

Report discovery_report(const Results& r) {
  Report out({"backend", "peers", "churn", "psi_pct", "hops_per_req",
              "hops_per_scan", "fp_rate", "stale_rate", "failed_scans"});
  out.verdict_width = 54;
  const std::size_t nchurn = std::size(kDiscoveryChurn);
  bool completed_ok = true, hops_ok = true, psi_ok = true;
  double max_fp = 0;
  for (std::size_t i = 0; i < r.size(); ++i) {
    const GridResult& g = r[i].result;
    const std::size_t n = kDiscoveryPeers[i / (nchurn * 2)];
    const bool dht = i % 2 != 0;
    // Only the dht backend exports index.*; directory rows print dashes.
    const auto index_count = [&](std::string_view name) {
      return count(g, name, dht);
    };
    const auto scans = index_count("index.scans");
    const auto scanned = index_count("index.scanned_postings");
    const double hops_per_scan =
        ratio(index_count("index.scan_hops"), scans);
    const double fp = ratio(index_count("index.false_positives"), scanned);
    const auto dash = [dht](std::string s) { return dht ? s : "-"; };
    out.table.add_row(
        {dht ? "dht" : "directory", std::to_string(n),
         Table::num(kDiscoveryChurn[i / 2 % nchurn], 0), pct(g.success_ratio()),
         Table::num(ratio(g.lookup_hops, g.requests), 2),
         dash(Table::num(hops_per_scan, 2)), dash(Table::num(fp, 3)),
         dash(Table::num(
             ratio(index_count("index.stale_postings"), scanned), 4)),
         dash(std::to_string(index_count("index.failed_scans")))});
    if (!dht) continue;
    // Every dht cell answers its scans, routes each in O(log N + span)
    // rather than a per-bucket O(log N), tracks the directory's psi, and
    // stays a useful filter rather than a full-table transfer.
    completed_ok &= g.requests != 0 && scans != 0 &&
                    index_count("index.failed_scans") == 0;
    hops_ok &= hops_per_scan <=
               4.0 * std::log2(static_cast<double>(n)) + 140.0;
    psi_ok &= g.success_ratio() >= psi(r, i - 1) - 0.2;
    max_fp = std::max(max_fp, fp);
  }
  out.check("every dht cell completes its scans fault-free", completed_ok);
  out.check("scan cost bounded by O(log N + span)", hops_ok);
  out.check("psi(dht) within 0.2 of psi(directory) per cell", psi_ok);
  out.check(strf("false-positive rate <= 0.9 (max %.3f)", max_fp),
            max_fp <= 0.9);
  return out;
}

// ------------------------------------------------------------------ driver

struct Study {
  std::string_view name;
  const char* title;
  const char* setup;
  /// The base cell: horizon (minutes), and request and churn rates per
  /// minute before scaling. Cells override what they sweep (0 here).
  double minutes, rate, churn;
  Cells (*cells)(const GridConfig& base, double scale);
  Report (*report)(const Results& results);
};

constexpr Study kStudies[] = {
    {"fig5", "Figure 5: average success ratio vs request rate",
     "10^4 peers, 400 min, no churn, rates 0..1000 req/min", 400, 0, 0,
     fig5_cells, fig5_report},
    {"fig6", "Figure 6: success ratio fluctuation (no churn)",
     "10^4 peers, 100 min, rate = 200 req/min, 2-min samples", 100, 200, 0,
     windowed_cells, fig6_report},
    {"fig7", "Figure 7: average success ratio vs topological variation rate",
     "10^4 peers, 60 min, rate = 100 req/min, churn 0..200 peers/min", 60,
     100, 0, fig7_cells, fig7_report},
    {"fig8", "Figure 8: success ratio fluctuation under churn",
     "10^4 peers, 60 min, rate = 100 req/min, churn = 100 peers/min", 60,
     100, 100, windowed_cells, fig8_report},
    {"tiers", "Ablation: QSA tier contributions",
     "10^4 peers, 100 min, rate = 400 req/min, no churn (design-choice "
     "study)",
     100, 400, 0, tiers_cells, tiers_report},
    {"probe_budget", "Ablation: probe budget M",
     "paper fixes M = 100 (1% probing overhead)", 60, 400, 0,
     probe_budget_cells, probe_budget_report},
    {"uptime", "Ablation: uptime filter under churn",
     "QSA with vs without the uptime>=duration match", 60, 100, 0,
     uptime_cells, uptime_report},
    {"recovery", "Extension: mid-session departure recovery",
     "the paper's future-work item, quantified under churn", 60, 100, 0,
     recovery_cells, recovery_report},
    {"overlay", "Substrate: Chord vs CAN lookup",
     "Section 3.2 invokes 'Chord or CAN' for discovery", 60, 200, 0,
     overlay_cells, overlay_report},
    {"weights", "Ablation: importance weight on bandwidth (omega_{m+1})",
     "paper uses uniform weights (= 1/3 with cpu+mem); saturated grid", 60,
     600, 0, weights_cells, weights_report},
    {"retry", "Extension: admission retries (second-chance selection)",
     "saturated grid; paper behaviour = 0 retries", 60, 1000, 0, retry_cells,
     retry_report},
    {"path_length",
     "Ablation: abstract service path length (n-hop aggregation)",
     "paper mixes lengths 2-5; moderate churn (50 peers/min pre-scale)", 60,
     400, 50, path_length_cells, path_length_report},
    {"staleness", "Ablation: probe period (performance-information staleness)",
     "heavy load + churn; selection quality vs probing freshness", 60, 800,
     50, staleness_cells, staleness_report},
    {"loss", "Robustness: message loss vs request success",
     "loss sweep over all channels; retries + alternate-route lookups", 60,
     200, 0, loss_cells, loss_report},
    {"replication",
     "Replication: demand-driven clones vs the QCS concentration hotspot",
     "rate sweep, replication off/on per algorithm; psi + peak provider load",
     60, 0, 0, replication_cells, replication_report},
    {"discovery",
     "Discovery: directory lookup vs attribute-indexed range scans",
     "population x churn sweep, both backends; psi + routing cost", 15, 0, 0,
     discovery_cells, discovery_report},
};
constexpr std::size_t kNumStudies = std::size(kStudies);

/// The studies --only names (all when absent), as a mask over kStudies.
/// Exits 2 on a name that is not a study.
std::array<bool, kNumStudies> select_studies(const util::Flags& flags) {
  std::array<bool, kNumStudies> selected{};
  const std::optional<std::string> only = flags.raw("only");
  if (!only) {
    selected.fill(true);
    return selected;
  }
  std::array<std::string_view, kNumStudies> names;
  for (std::size_t i = 0; i < kNumStudies; ++i) names[i] = kStudies[i].name;
  std::string_view list = *only;
  while (true) {
    const std::size_t comma = std::min(list.find(','), list.size());
    const std::string_view name = list.substr(0, comma);
    const auto it = std::find(names.begin(), names.end(), name);
    if (it == names.end()) {
      util::reject_unknown_choice("paper", "only", name, names.data(),
                                  names.size());
    }
    selected[static_cast<std::size_t>(it - names.begin())] = true;
    if (comma == list.size()) return selected;
    list.remove_prefix(comma + 1);
  }
}

/// Prints the report; true when every predicate in it holds.
bool print_report(const Report& report, bool csv) {
  report.table.print(std::cout);
  if (csv) {
    std::printf("\n--- CSV ---\n");
    report.table.print_csv(std::cout);
  }
  std::printf("\n");
  bool all_hold = true;
  for (const auto& [text, verdict] : report.lines) {
    if (verdict) {
      std::printf("%-*s %s\n", report.verdict_width, text.c_str(),
                  *verdict ? "yes" : "NO");
      all_hold &= *verdict;
    } else {
      std::printf("%s\n", text.c_str());
    }
  }
  return all_hold;
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const bench::BenchOptions opt = bench::parse_options(flags, "paper");
  const bool csv = flags.get_bool("csv", false);
  const std::string metrics_out = flags.get("metrics-out", "");
  const auto selected = select_studies(flags);
  util::reject_unknown_flags(flags, "paper");

  // Opened before any study runs, so a bad path fails in a second, not
  // after the whole evaluation.
  std::ofstream sidecar;
  if (!metrics_out.empty()) {
    sidecar.open(metrics_out);
    if (!sidecar) {
      std::fprintf(stderr, "paper: cannot open --metrics-out file %s\n",
                   metrics_out.c_str());
      return 2;
    }
    sidecar << "{\"bench\":\"paper\",\"cells\":[";
  }

  bool all_hold = true;
  bool first_study = true;
  bool first_cell = true;
  for (std::size_t s = 0; s < kNumStudies; ++s) {
    if (!selected[s]) continue;
    const Study& study = kStudies[s];
    GridConfig base = bench::paper_config(opt);
    base.horizon = SimTime::minutes(study.minutes);
    base.requests.rate_per_min = study.rate * opt.scale;
    base.churn.events_per_min = study.churn * opt.scale;
    Cells cells = study.cells(base, opt.scale);
    if (!first_study) std::printf("\n");
    first_study = false;
    bench::print_header(study.title, study.setup, opt, cells.front().config);
    if (sidecar.is_open()) {
      for (auto& cell : cells) cell.config.observe = true;
    }
    const Results results = harness::ExperimentRunner(opt.threads).run(cells);

    if (sidecar.is_open()) {
      for (const auto& r : results) {
        std::string_view metrics = r.metrics_json;
        while (metrics.ends_with('\n')) metrics.remove_suffix(1);
        sidecar << (first_cell ? "" : ",") << "{\"label\":\"" << study.name
                << '/' << r.label << "\",\"metrics\":"
                << (metrics.empty() ? "{}" : metrics) << '}';
        first_cell = false;
      }
    }

    all_hold &= print_report(study.report(results), csv);
  }

  if (sidecar.is_open()) {
    sidecar << "]}\n";
    sidecar.close();
    if (!sidecar) {
      std::fprintf(stderr, "paper: cannot write --metrics-out file %s\n",
                   metrics_out.c_str());
      return 1;
    }
    std::printf("metrics sidecar -> %s\n", metrics_out.c_str());
  }
  return all_hold ? 0 : 1;
}
