// Observability overhead budget (DESIGN.md §12): the streaming obs pipeline
// must stay cheap enough to leave on — obs-on wall time within a small
// factor of obs-off, and resident obs memory O(active requests), i.e. flat
// when the run gets longer. This bench measures both and emits a JSON
// report for tools/check_obs_overhead.py, which gates CI on:
//
//   * wall overhead: obs-on (1-in-K sampling + flight recorder + live
//     series, streamed through real JSONL/CSV sinks into a null stream)
//     vs obs-off on the same cell, min-of-N repeats each;
//   * memory growth: the tracer's peak resident span count at 1x vs 10x
//     the request volume (10x the horizon at steady-state arrival rate) —
//     bounded memory means the high-water mark barely moves while total
//     spans grow ~10x.
//
// Flags (besides the bench_common set): --minutes=N (1x horizon, default
// 60 — long enough for the session population to reach steady state, so
// the 1x high-water is a real baseline), --repeats=N (wall repeats, >= 1,
// default 3), --trace-sample=K (1..2^32-1, default 8), --json-out=FILE (the
// machine-readable report). A knob out of range, or a cell that breaks a
// GridConfig::validate() rule, exits 2 before any cell runs.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <limits>
#include <ostream>
#include <streambuf>
#include <string>

#include "bench_common.hpp"
#include "qsa/harness/grid.hpp"
#include "qsa/obs/sink.hpp"

namespace {

/// Discards everything: the obs-on cells pay full serialization through the
/// real chunked sinks without the bench buffering (or writing) a whole run.
struct NullBuf final : std::streambuf {
  int overflow(int c) override { return c; }
  std::streamsize xsputn(const char*, std::streamsize n) override { return n; }
};

struct CellStats {
  double wall_ms = 0;  ///< min over repeats
  std::uint64_t requests = 0;
  std::uint64_t spans_emitted = 0;
  std::uint64_t sampled_requests = 0;
  std::size_t high_water = 0;  ///< peak resident spans (0 when obs off)
};

CellStats run_cell(const qsa::harness::GridConfig& cfg, int repeats) {
  CellStats out;
  for (int rep = 0; rep < repeats; ++rep) {
    NullBuf buf;
    std::ostream null_os(&buf);
    qsa::harness::GridSimulation grid(cfg);
    qsa::obs::JsonlSpanSink trace(null_os);
    qsa::obs::CsvMetricSink series(null_os);
    if (cfg.observe) {
      grid.set_span_sink(&trace);
      grid.set_series_sink(&series);
    }
    const auto t0 = std::chrono::steady_clock::now();
    const auto result = grid.run();
    const auto t1 = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (rep == 0 || ms < out.wall_ms) out.wall_ms = ms;
    out.requests = result.requests;
    if (grid.tracer() != nullptr) {
      out.spans_emitted = grid.tracer()->emitted_spans();
      out.sampled_requests = grid.tracer()->sampled_requests();
      out.high_water = grid.tracer()->peak_live_spans();
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace qsa;
  util::Flags flags(argc, argv);
  const auto opt = bench::parse_options(flags, "bench_obs_overhead");

  auto off = bench::paper_config(opt);
  // Bounded so that the 10x cell's horizon below cannot overflow either.
  off.horizon = sim::SimTime::minutes(util::get_double_in(
      flags, "minutes", 60, -util::kMaxFlagMinutes, util::kMaxFlagMinutes,
      "bench_obs_overhead"));
  off.enable_recovery = true;
  off.admission_retries = 1;

  auto on = off;
  on.observe = true;
  on.trace_sample = static_cast<std::uint32_t>(util::get_int_in(
      flags, "trace-sample", 8, 1, std::numeric_limits<std::uint32_t>::max(),
      "bench_obs_overhead"));
  on.flight_recorder = 8;
  on.obs_window = sim::SimTime::minutes(2);

  auto on_10x = on;
  on_10x.horizon = sim::SimTime::millis(on.horizon.as_millis() * 10);

  // At least one repeat, or both wall times stay 0 and the overhead is 0/0.
  const int repeats = static_cast<int>(
      util::get_int_in(flags, "repeats", 3, 1,
                       std::numeric_limits<int>::max(), "bench_obs_overhead"));
  const std::string json_out = flags.get("json-out", "");
  util::reject_unknown_flags(flags, "bench_obs_overhead");
  // A grid aborts on a config that breaks a rule; check every cell first.
  for (const harness::GridConfig* cfg : {&off, &on, &on_10x}) {
    if (const std::string_view rule = cfg->validate(); !rule.empty()) {
      std::printf("out-of-range knob: need %.*s\n",
                  static_cast<int>(rule.size()), rule.data());
      return 2;
    }
  }

  bench::print_header(
      "Observability overhead: streaming trace/series pipeline vs obs off",
      "same cell obs-off vs obs-on (sampled trace + flight recorder + live "
      "series); resident spans at 1x vs 10x request volume",
      opt, off);

  const CellStats s_off = run_cell(off, repeats);
  const CellStats s_on = run_cell(on, repeats);
  const CellStats s_10x = run_cell(on_10x, 1);

  const double overhead = s_on.wall_ms / s_off.wall_ms;
  const double growth =
      s_on.high_water > 0
          ? static_cast<double>(s_10x.high_water) /
                static_cast<double>(s_on.high_water)
          : 0.0;

  std::printf("%-28s %10s %10s %12s %12s\n", "cell", "wall ms", "requests",
              "spans", "peak spans");
  std::printf("%-28s %10.1f %10llu %12s %12s\n", "obs off (1x)", s_off.wall_ms,
              static_cast<unsigned long long>(s_off.requests), "-", "-");
  std::printf("%-28s %10.1f %10llu %12llu %12zu\n", "obs on (1x)", s_on.wall_ms,
              static_cast<unsigned long long>(s_on.requests),
              static_cast<unsigned long long>(s_on.spans_emitted),
              s_on.high_water);
  std::printf("%-28s %10.1f %10llu %12llu %12zu\n", "obs on (10x)",
              s_10x.wall_ms, static_cast<unsigned long long>(s_10x.requests),
              static_cast<unsigned long long>(s_10x.spans_emitted),
              s_10x.high_water);
  std::printf("\nwall overhead obs-on/obs-off : %.3fx (min of %d repeats)\n",
              overhead, repeats);
  std::printf("peak-span growth at 10x load : %.3fx (%zu -> %zu)\n", growth,
              s_on.high_water, s_10x.high_water);

  if (!json_out.empty()) {
    std::ofstream os(json_out);
    if (!os) {
      std::fprintf(stderr, "cannot open --json-out file %s\n",
                   json_out.c_str());
      return 1;
    }
    os << "{\"bench\":\"bench_obs_overhead\""
       << ",\"scale\":" << opt.scale << ",\"seed\":" << opt.seed
       << ",\"repeats\":" << repeats
       << ",\"trace_sample\":" << on.trace_sample << ",\"wall\":{"
       << "\"off_ms\":" << s_off.wall_ms << ",\"on_ms\":" << s_on.wall_ms
       << ",\"overhead\":" << overhead << "},\"memory\":{"
       << "\"requests_1x\":" << s_on.requests
       << ",\"requests_10x\":" << s_10x.requests
       << ",\"high_water_1x\":" << s_on.high_water
       << ",\"high_water_10x\":" << s_10x.high_water
       << ",\"growth\":" << growth << "},\"trace\":{"
       << "\"spans_emitted_1x\":" << s_on.spans_emitted
       << ",\"sampled_requests_1x\":" << s_on.sampled_requests << "}}\n";
    os.close();
    if (!os) {
      std::fprintf(stderr, "cannot write --json-out file %s\n",
                   json_out.c_str());
      return 1;
    }
    std::printf("json report -> %s\n", json_out.c_str());
  }
  return 0;
}
