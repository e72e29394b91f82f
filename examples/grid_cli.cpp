// grid_cli: run one fully configurable grid simulation from the command
// line and print the complete accounting — the "kick the tires" driver for
// the whole library.
//
//   ./examples/grid_cli --peers=2000 --rate=80 --minutes=60
//       --algorithm=qsa --overlay=can --churn=20 --recovery --retries=1
//       --probe-budget=100 --seed=7 --csv
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>

#include "qsa/harness/grid.hpp"
#include "qsa/metrics/table.hpp"
#include "qsa/obs/export.hpp"
#include "qsa/obs/sink.hpp"
#include "qsa/probe/neighbor_table.hpp"
#include "qsa/util/flags.hpp"

using namespace qsa;

namespace {

void print_usage() {
  std::printf(
      "grid_cli — run one QSA grid simulation\n\n"
      "  --peers=N          population (default 1000)\n"
      "  --rate=R           requests/min (default 100)\n"
      "  --minutes=M        simulated horizon (default 60). Time knobs\n"
      "                     take at most 1e9 minutes (6e10 seconds)\n"
      "  --algorithm=A      qsa | random | fixed (default qsa)\n"
      "  --overlay=O        chord | can | pastry (default chord)\n"
      "  --discovery=D      directory | dht (default directory). dht swaps\n"
      "                     the flat per-service lookup for the attribute\n"
      "                     index: QoS range predicates resolved by bounded\n"
      "                     scans over order-preserving key arcs\n"
      "  --net-model=N      paper | coords (default paper). coords derives\n"
      "                     latency/bandwidth from per-peer synthetic\n"
      "                     coordinates — same marginals, O(peers) state —\n"
      "                     for million-peer runs\n"
      "  --churn=C          churn events/min (default 0)\n"
      "  --recovery         enable mid-session departure recovery\n"
      "  --retries=K        admission retries (default 0). Integer knobs\n"
      "                     (--retries, --fault-retries, --max-replicas)\n"
      "                     take at most 2147483647\n"
      "  --probe-budget=M   neighbors probed per peer, 1..65535\n"
      "                     (default 100)\n"
      "  --bw-weight=W      bandwidth importance weight (default uniform)\n"
      "  --discovery-cache-ttl=S  requester-side discovery cache TTL in\n"
      "                     seconds (default 0 = off; cached lookups cost\n"
      "                     zero hops/latency until the entry expires)\n"
      "  --no-compose-cache disable the compatibility/cost memo tables\n"
      "                     (results are bit-identical either way)\n"
      "  --fault-loss=P     message loss probability on every channel\n"
      "                     (default 0 = perfect messaging)\n"
      "  --fault-delay-ms=D max extra delay on delivered messages (default 0;\n"
      "                     at most 6e13 ms, the time-knob bound)\n"
      "  --fault-retries=K  resends per lost message (default 2)\n"
      "  --replication      enable demand-driven service replication\n"
      "                     (off by default; off = byte-identical output)\n"
      "  --replica-threshold=T  demand score that trips a clone (default 4)\n"
      "  --replica-cooldown=S   refractory/retirement period in seconds\n"
      "                     (default 120)\n"
      "  --max-replicas=K   clone cap per service instance (default 8)\n"
      "  --track-load       provider-load concentration accounting without\n"
      "                     replication (implied by --replication)\n"
      "  --seed=S           root seed (default 42)\n"
      "  --profile          wall-clock the bootstrap and event-loop phases\n"
      "                     (summary on stderr; with --metrics-out, also\n"
      "                     perf.* gauges — host timings, non-deterministic)\n"
      "  --csv              also emit the psi time series as CSV\n"
      "  --trace-out=FILE   stream the per-request trace as JSON lines\n"
      "                     (written incrementally as requests finish)\n"
      "  --trace-sample=K   keep 1-in-K request traces, chosen head-based\n"
      "                     from (seed, request id) — deterministic at any\n"
      "                     thread count; failure counters stay exact\n"
      "                     (default 1 = keep all)\n"
      "  --flight-recorder=K  retain the full span chains of the last K\n"
      "                     failed/recovered requests per failure cause,\n"
      "                     regardless of sampling (default 0 = off)\n"
      "  --flight-out=FILE  write the flight recorder's chains as JSON\n"
      "                     lines (implies --flight-recorder=8 if unset;\n"
      "                     with --flight-recorder=0 it exits 2)\n"
      "  --obs-window-ms=M  sample live time-series (windowed psi, queue\n"
      "                     depth, cache hit rates, replica counts) every\n"
      "                     M sim-milliseconds (default 0 = off)\n"
      "  --series-out=FILE  write the live time-series as CSV rows\n"
      "                     `series,time_ms,value` (implies a 2-minute\n"
      "                     --obs-window-ms if unset; with\n"
      "                     --obs-window-ms=0 it exits 2)\n"
      "  --metrics-out=FILE write the metrics snapshot (CSV if FILE ends\n"
      "                     in .csv, JSON otherwise)\n"
      "A file that cannot be written exits 1.\n");
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  if (flags.help()) {
    print_usage();
    return 0;
  }

  harness::GridConfig cfg;
  cfg.seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));
  // The unsigned knobs are range-checked as they are read, so a negative
  // value cannot wrap into a huge one, and the int knobs so that a value
  // past int cannot wrap on narrowing; GridConfig::validate() below checks
  // the rest, signs included.
  constexpr std::int64_t kU32Max = std::numeric_limits<std::uint32_t>::max();
  constexpr std::int64_t kIntMin = std::numeric_limits<int>::min();
  constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();
  cfg.peers = static_cast<std::size_t>(
      util::get_int_in(flags, "peers", 1000, 1, kU32Max, "grid_cli"));
  cfg.requests.rate_per_min = flags.get_double("rate", 100);
  // Time knobs are bounded before they convert to SimTime; their sign rules
  // are validate()'s.
  cfg.horizon = sim::SimTime::minutes(util::get_double_in(
      flags, "minutes", 60, -util::kMaxFlagMinutes, util::kMaxFlagMinutes,
      "grid_cli"));
  cfg.churn.events_per_min = flags.get_double("churn", 0);
  cfg.enable_recovery = flags.get_bool("recovery", false);
  cfg.admission_retries = static_cast<int>(
      util::get_int_in(flags, "retries", 0, kIntMin, kIntMax, "grid_cli"));
  cfg.probe_budget = static_cast<std::size_t>(util::get_int_in(
      flags, "probe-budget", 100, 1, probe::kMaxNeighborBudget, "grid_cli"));
  cfg.bandwidth_weight = flags.get_double("bw-weight", -1);
  cfg.discovery_cache_ttl = sim::SimTime::seconds(util::get_double_in(
      flags, "discovery-cache-ttl", 0, -util::kMaxFlagSeconds,
      util::kMaxFlagSeconds, "grid_cli"));
  cfg.compose_caches = !flags.get_bool("no-compose-cache", false);
  cfg.faults.set_all_loss(flags.get_double("fault-loss", 0));
  constexpr auto kMaxFlagMs =
      static_cast<std::int64_t>(util::kMaxFlagSeconds * 1000);
  cfg.faults.max_extra_delay = sim::SimTime::millis(util::get_int_in(
      flags, "fault-delay-ms", 0, -kMaxFlagMs, kMaxFlagMs, "grid_cli"));
  cfg.faults.max_retries = static_cast<int>(util::get_int_in(
      flags, "fault-retries", 2, kIntMin, kIntMax, "grid_cli"));
  cfg.replication.enabled = flags.get_bool("replication", false);
  cfg.replication.threshold = flags.get_double(
      "replica-threshold", cfg.replication.threshold);
  cfg.replication.cooldown = sim::SimTime::seconds(util::get_double_in(
      flags, "replica-cooldown", cfg.replication.cooldown.as_seconds(),
      -util::kMaxFlagSeconds, util::kMaxFlagSeconds, "grid_cli"));
  cfg.replication.max_replicas = static_cast<int>(
      util::get_int_in(flags, "max-replicas", cfg.replication.max_replicas,
                       kIntMin, kIntMax, "grid_cli"));
  cfg.track_load = flags.get_bool("track-load", false);
  cfg.profile = flags.get_bool("profile", false);
  const std::string trace_out = flags.get("trace-out", "");
  const std::string metrics_out = flags.get("metrics-out", "");
  const std::string flight_out = flags.get("flight-out", "");
  const std::string series_out = flags.get("series-out", "");
  cfg.trace_sample = static_cast<std::uint32_t>(
      util::get_int_in(flags, "trace-sample", 1, 1, kU32Max, "grid_cli"));
  cfg.flight_recorder = static_cast<std::uint32_t>(
      util::get_int_in(flags, "flight-recorder", flight_out.empty() ? 0 : 8,
                       0, kU32Max, "grid_cli"));
  cfg.obs_window = sim::SimTime::millis(flags.get_int(
      "obs-window-ms",
      series_out.empty() ? 0 : sim::SimTime::minutes(2).as_millis()));
  cfg.observe = !trace_out.empty() || !metrics_out.empty() ||
                !flight_out.empty() || !series_out.empty() ||
                cfg.trace_sample > 1 || cfg.flight_recorder > 0 ||
                cfg.obs_window.as_millis() > 0;

  // Enum-valued flags through the shared choice parser: an inadmissible
  // value prints the admissible set and exits 2, like an unknown flag.
  static constexpr util::Choice<harness::AlgorithmKind> kAlgorithms[] = {
      {"qsa", harness::AlgorithmKind::kQsa},
      {"random", harness::AlgorithmKind::kRandom},
      {"fixed", harness::AlgorithmKind::kFixed},
  };
  cfg.algorithm = util::get_choice(flags, "algorithm", kAlgorithms,
                                   harness::AlgorithmKind::kQsa, "grid_cli");
  static constexpr util::Choice<net::NetModelKind> kNetModels[] = {
      {"paper", net::NetModelKind::kPaper},
      {"coords", net::NetModelKind::kCoords},
  };
  cfg.net_model = util::get_choice(flags, "net-model", kNetModels,
                                   net::NetModelKind::kPaper, "grid_cli");
  static constexpr util::Choice<harness::OverlayKind> kOverlays[] = {
      {"chord", harness::OverlayKind::kChord},
      {"can", harness::OverlayKind::kCan},
      {"pastry", harness::OverlayKind::kPastry},
  };
  cfg.overlay = util::get_choice(flags, "overlay", kOverlays,
                                 harness::OverlayKind::kChord, "grid_cli");
  static constexpr util::Choice<harness::DiscoveryKind> kDiscoveries[] = {
      {"directory", harness::DiscoveryKind::kDirectory},
      {"dht", harness::DiscoveryKind::kDht},
  };
  cfg.discovery = util::get_choice(flags, "discovery", kDiscoveries,
                                   harness::DiscoveryKind::kDirectory,
                                   "grid_cli");
  const bool emit_csv = flags.get_bool("csv", false);

  // Every recognized flag has been consulted by now; anything left in argv
  // is a typo that would otherwise silently run the wrong experiment.
  util::reject_unknown_flags(flags, "grid_cli");
  if (const std::string_view rule = cfg.validate(); !rule.empty()) {
    std::printf("out-of-range knob: need %.*s\n\n",
                static_cast<int>(rule.size()), rule.data());
    print_usage();
    return 2;
  }
  // An artifact whose recorder is switched off would be empty (flight) or
  // a bare header (series).
  const char* conflict =
      !flight_out.empty() && cfg.flight_recorder == 0
          ? "--flight-out needs --flight-recorder >= 1"
      : !series_out.empty() && cfg.obs_window.as_millis() == 0
          ? "--series-out needs --obs-window-ms >= 1"
          : nullptr;
  if (conflict != nullptr) {
    std::printf("conflicting knobs: %s\n\n", conflict);
    print_usage();
    return 2;
  }

  std::printf("qsa grid: %zu peers, %s algorithm on %s overlay (%s "
              "discovery), %.4g req/min, %.4g churn/min, %.4g min horizon\n\n",
              cfg.peers, std::string(to_string(cfg.algorithm)).c_str(),
              std::string(harness::to_string(cfg.overlay)).c_str(),
              std::string(harness::to_string(cfg.discovery)).c_str(),
              cfg.requests.rate_per_min, cfg.churn.events_per_min,
              cfg.horizon.as_minutes());

  harness::GridSimulation grid(cfg);

  // The trace streams out while the simulation runs (completed requests
  // flush incrementally), so the sink must exist before run().
  std::ofstream trace_os;
  std::unique_ptr<obs::JsonlSpanSink> trace_sink;
  if (!trace_out.empty()) {
    trace_os.open(trace_out);
    if (!trace_os) {
      std::printf("cannot open --trace-out file '%s'\n", trace_out.c_str());
      return 1;
    }
    trace_sink = std::make_unique<obs::JsonlSpanSink>(trace_os);
    grid.set_span_sink(trace_sink.get());
  }
  std::ofstream series_os;
  std::unique_ptr<obs::CsvMetricSink> series_sink;
  if (!series_out.empty()) {
    series_os.open(series_out);
    if (!series_os) {
      std::printf("cannot open --series-out file '%s'\n", series_out.c_str());
      return 1;
    }
    series_sink = std::make_unique<obs::CsvMetricSink>(series_os);
    grid.set_series_sink(series_sink.get());
  }

  const auto r = grid.run();

  std::printf("requests                 %llu\n",
              static_cast<unsigned long long>(r.requests));
  std::printf("success ratio (psi)      %.2f%%\n", 100 * r.success_ratio());
  std::printf("failures: discovery      %llu\n",
              static_cast<unsigned long long>(r.failures_discovery));
  std::printf("          composition    %llu\n",
              static_cast<unsigned long long>(r.failures_composition));
  std::printf("          selection      %llu\n",
              static_cast<unsigned long long>(r.failures_selection));
  std::printf("          admission      %llu\n",
              static_cast<unsigned long long>(r.failures_admission));
  std::printf("          departure      %llu\n",
              static_cast<unsigned long long>(r.failures_departure));
  std::printf("lookup hops / request    %.2f\n",
              r.requests ? static_cast<double>(r.lookup_hops) /
                               static_cast<double>(r.requests)
                         : 0.0);
  std::printf("avg composition cost     %.4f\n", r.avg_composition_cost);
  std::printf("notification messages    %llu\n",
              static_cast<unsigned long long>(r.notification_messages));
  std::printf("churn: departures        %llu, arrivals %llu\n",
              static_cast<unsigned long long>(r.churn_departures),
              static_cast<unsigned long long>(r.churn_arrivals));
  for (const auto& [name, value] : r.counters) {
    std::printf("%-24s %llu\n", name.c_str(),
                static_cast<unsigned long long>(value));
  }

  // A write that failed (a full disk, /dev/full) fails the run, as in
  // `paper`: the artifact would otherwise be silently truncated.
  const auto closed = [](std::ofstream& os, const char* flag,
                         const std::string& path) {
    os.close();
    if (!os) std::printf("cannot write --%s file '%s'\n", flag, path.c_str());
    return static_cast<bool>(os);
  };

  if (trace_sink != nullptr) {
    trace_sink->flush();
    if (!closed(trace_os, "trace-out", trace_out)) return 1;
    std::printf(
        "trace   -> %s (%llu spans)\n", trace_out.c_str(),
        static_cast<unsigned long long>(grid.tracer()->emitted_spans()));
  }
  if (series_sink != nullptr) {
    series_sink->flush();
    if (!closed(series_os, "series-out", series_out)) return 1;
    std::printf("series  -> %s\n", series_out.c_str());
  }
  if (!flight_out.empty()) {
    std::ofstream os(flight_out);
    if (!os) {
      std::printf("cannot open --flight-out file '%s'\n", flight_out.c_str());
      return 1;
    }
    // The recorder is bounded (K chains per cause), so this is the one
    // artifact small enough to render whole at end of run.
    const std::string jsonl = grid.flight()->jsonl();
    os.write(jsonl.data(), static_cast<std::streamsize>(jsonl.size()));
    if (!closed(os, "flight-out", flight_out)) return 1;
    std::printf("flight  -> %s\n", flight_out.c_str());
  }
  if (!metrics_out.empty()) {
    std::ofstream os(metrics_out);
    if (!os) {
      std::printf("cannot open --metrics-out file '%s'\n", metrics_out.c_str());
      return 1;
    }
    const bool csv = metrics_out.size() >= 4 &&
                     metrics_out.compare(metrics_out.size() - 4, 4, ".csv") == 0;
    os << (csv ? obs::metrics_csv(*grid.metrics())
               : obs::metrics_json(*grid.metrics()));
    if (!closed(os, "metrics-out", metrics_out)) return 1;
    std::printf("metrics -> %s\n", metrics_out.c_str());
  }

  if (cfg.profile) {
    // stderr, so stdout stays identical to an unprofiled run.
    const harness::ProfileReport& p = grid.profile_report();
    std::fprintf(stderr,
                 "profile: bootstrap %.1f ms (peers %.1f, overlay %.1f, "
                 "placement %.1f, publish %.1f), run %.1f ms, %llu events "
                 "(%.3g events/sec), queue peak %zu\n",
                 p.bootstrap_ms, p.bootstrap_peers_ms, p.bootstrap_overlay_ms,
                 p.bootstrap_placement_ms, p.bootstrap_publish_ms, p.run_ms,
                 static_cast<unsigned long long>(p.events), p.events_per_sec,
                 p.queue_peak);
  }

  if (emit_csv) {
    metrics::Table series({"minute", "psi"});
    for (const auto& s : r.series.samples()) {
      series.add_row({metrics::Table::num(s.time.as_minutes(), 0),
                      metrics::Table::num(s.value, 3)});
    }
    std::printf("\n");
    series.print_csv(std::cout);
  }
  return 0;
}
