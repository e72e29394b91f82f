// Byte-identity harness for whole-grid runs, digested against golden values
// so that pure-mechanics refactors (event engine, observability pipeline)
// cannot silently change observable behaviour.
//
// The digest is split in two since the streaming-observability rework:
//
//  * The SIM digest covers the simulation's own surface — GridResult
//    scalars (doubles bit_cast so NaN/sign/ULP changes are caught), the
//    name-sorted counter table and the psi time series. Its goldens were
//    captured from the pre-streaming tracer and are pinned hard: the obs
//    rework must not perturb the simulation by a single bit, sampled or
//    not, observing or not.
//
//  * The OBS digest covers the exported observability artifacts — FNV-1a
//    of the streamed trace JSONL and the metrics CSV. PR 6 intentionally
//    rebaselined this surface (spans now stream per finished request
//    instead of in global begin order, and obs.* meta-instruments were
//    added), so these goldens date from the streaming pipeline; they pin
//    its determinism going forward.
//
// Cells mirror cache_test's transparency matrix: every algorithm x two
// seeds on the base workload, plus one stressed cell with recovery +
// retries + faults + replication + the discovery cache all on, plus a
// sampled variant of the stressed cell (1-in-4 sampling + flight recorder;
// no obs window, since the window timer schedules real simulator events)
// whose SIM digest must stay equal to the unsampled one. One more cell runs
// 2 500 peers, a ring big enough that the bootstrap's finger rebuild takes
// the pooled path; its golden was captured while that rebuild was serial.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <sstream>
#include <string>

#include "obs_capture.hpp"
#include "qsa/harness/grid.hpp"
#include "qsa/obs/export.hpp"
#include "qsa/overlay/chord_ring.hpp"

namespace qsa::harness {
namespace {

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

GridConfig base_config(std::uint64_t seed, AlgorithmKind kind) {
  GridConfig c;
  c.seed = seed;
  c.peers = 200;
  c.min_providers = 10;
  c.max_providers = 20;
  c.apps.applications = 5;
  c.requests.rate_per_min = 30;
  c.churn.events_per_min = 6;
  c.admission_retries = 1;
  c.horizon = sim::SimTime::minutes(10);
  c.algorithm = kind;
  c.observe = true;
  return c;
}

GridConfig stress_config(std::uint64_t seed) {
  auto c = base_config(seed, AlgorithmKind::kQsa);
  c.enable_recovery = true;
  c.admission_retries = 2;
  c.faults.set_all_loss(0.05);
  c.replication.enabled = true;
  c.track_load = true;
  c.discovery_cache_ttl = sim::SimTime::minutes(2);
  return c;
}

// Above ChordRing::kPooledStabilizeMin nodes, so bootstrap rebuilds the
// finger tables in parallel. Observability off: a SIM digest only.
GridConfig pooled_bootstrap_config() {
  GridConfig c;
  c.peers = 2500;
  c.min_providers = 10;
  c.max_providers = 20;
  c.apps.applications = 5;
  c.requests.rate_per_min = 30;
  c.churn.events_per_min = 6;
  c.horizon = sim::SimTime::minutes(2);
  return c;
}

GridConfig sampled_stress_config(std::uint64_t seed) {
  auto c = stress_config(seed);
  c.trace_sample = 4;
  c.flight_recorder = 4;
  return c;
}

void append_sim_digest(std::ostringstream& os, const GridResult& r) {
  os << "req=" << r.requests << ";ok=" << r.successes
     << ";fd=" << r.failures_discovery << ";fc=" << r.failures_composition
     << ";fs=" << r.failures_selection << ";fa=" << r.failures_admission
     << ";fdep=" << r.failures_departure << ";hops=" << r.lookup_hops
     << ";setup=" << r.setup_latency_ms << ";notif=" << r.notification_messages
     << ";rand=" << r.random_fallback_hops << ";dep=" << r.churn_departures
     << ";arr=" << r.churn_arrivals
     << ";cost=" << std::bit_cast<std::uint64_t>(r.avg_composition_cost)
     << ";conc=" << std::bit_cast<std::uint64_t>(r.avg_service_concentration)
     << "\n";
  for (const auto& [name, value] : r.counters) {
    os << name << '=' << value << '\n';
  }
  for (const auto& s : r.series.samples()) {
    os << "s:" << s.time.as_millis() << '='
       << std::bit_cast<std::uint64_t>(s.value) << '\n';
  }
}

struct RunDigests {
  std::uint64_t sim = 0;
  std::uint64_t obs = 0;
};

RunDigests run_digests(const GridConfig& cfg) {
  GridSimulation grid(cfg);
  test::SpanCapture trace;
  grid.set_span_sink(&trace.sink);
  test::SeriesCapture series;
  grid.set_series_sink(&series.sink);
  const GridResult r = grid.run();

  std::ostringstream sim;
  append_sim_digest(sim, r);

  RunDigests out;
  out.sim = fnv1a(sim.str());
  if (cfg.observe) {
    std::ostringstream obs_os;
    obs_os << "trace:" << fnv1a(trace.str()) << '\n';
    obs_os << "metrics:" << fnv1a(obs::metrics_csv(*grid.metrics())) << '\n';
    if (grid.flight() != nullptr) {
      obs_os << "flight:" << fnv1a(grid.flight()->jsonl()) << '\n';
    }
    if (cfg.obs_window > sim::SimTime::zero()) {
      obs_os << "series:" << fnv1a(series.str()) << '\n';
    }
    out.obs = fnv1a(obs_os.str());
  }
  return out;
}

struct GoldenCell {
  const char* label;
  std::uint64_t digest;
};

// SIM goldens: captured from the pre-streaming-observability tracer (PR 5's
// engine). A mismatch means the simulation's own behaviour changed — that
// is a bug, not a "rebaseline and move on" situation. The obs-off cells pin
// the other half of the invariant: observing never perturbs the run.
constexpr GoldenCell kGoldenSim[] = {
    {"qsa/11", 0xb1cfc881cd6dbb8cULL},
    {"qsa/23", 0x040b85f9ae775313ULL},
    {"random/11", 0x0e75f2ceeeb72ca9ULL},
    {"random/23", 0xec18e30c8a0b05f4ULL},
    {"fixed/11", 0x8dbc0a30cab470b3ULL},
    {"fixed/23", 0x7ea417e558683be1ULL},
    {"stress/7", 0x2dc07af8d10a2bb7ULL},
    {"qsa/11/obs-off", 0xb1cfc881cd6dbb8cULL},
    {"qsa/23/obs-off", 0x040b85f9ae775313ULL},
    {"stress/7/obs-off", 0x2dc07af8d10a2bb7ULL},
    // Sampling and the flight recorder schedule no events and draw no RNG,
    // so the sampled cell's sim digest equals the unsampled one.
    {"stress-sampled/7", 0x2dc07af8d10a2bb7ULL},
    // Captured with a serial finger rebuild; the pooled one must match it.
    {"pooled-bootstrap/2500", 0x9d0801b7a2650222ULL},
};

// OBS goldens: captured from the streaming pipeline this test ships with
// (see header comment for why they were rebaselined in PR 6). From here on
// they are as hard as the sim goldens.
constexpr GoldenCell kGoldenObs[] = {
    {"qsa/11", 0x4ea5ec02be758814ULL},
    {"qsa/23", 0xe2c099f0ec1e46e6ULL},
    {"random/11", 0x615b9387e9fa661eULL},
    {"random/23", 0xf3708106722503a6ULL},
    {"fixed/11", 0x27b4c0be2bf2089dULL},
    {"fixed/23", 0x18b90d2e878092cbULL},
    // The stress cells lose messages: their probe.notifications row counts
    // every resend, as GridResult::notification_messages does.
    {"stress/7", 0x9b06cdc777b971d1ULL},
    {"stress-sampled/7", 0xb1025c9cc29f312fULL},
};

template <std::size_t N>
std::uint64_t golden(const GoldenCell (&table)[N], const std::string& label) {
  for (const auto& cell : table) {
    if (label == cell.label) return cell.digest;
  }
  ADD_FAILURE() << "no golden digest for cell " << label;
  return 0;
}

void expect_cell(const std::string& label, const GridConfig& cfg) {
  const RunDigests d = run_digests(cfg);
  EXPECT_EQ(d.sim, golden(kGoldenSim, label))
      << "sim digest drift at cell " << label;
  if (cfg.observe) {
    EXPECT_EQ(d.obs, golden(kGoldenObs, label))
        << "obs digest drift at cell " << label;
  }
}

class PerfRefactorIdentity : public ::testing::TestWithParam<AlgorithmKind> {};

TEST_P(PerfRefactorIdentity, MatchesPreRefactorGolden) {
  for (std::uint64_t seed : {11u, 23u}) {
    const std::string label =
        std::string(to_string(GetParam())) + "/" + std::to_string(seed);
    expect_cell(label, base_config(seed, GetParam()));
  }
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, PerfRefactorIdentity,
                         ::testing::Values(AlgorithmKind::kQsa,
                                           AlgorithmKind::kRandom,
                                           AlgorithmKind::kFixed),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

// Every optional subsystem at once: recovery, retries, lossy messaging,
// replication + load tracking, discovery cache. The widest event mix the
// engine serves — periodic timers, session ends, fault backoff retries,
// replica sweeps — all cancelling and rescheduling against the slab.
TEST(PerfRefactorIdentity, StressedCellMatchesGolden) {
  expect_cell("stress/7", stress_config(7));
}

// The same stressed cell with 1-in-4 head sampling and the flight recorder
// on: the simulation half of the digest must not move by a bit.
TEST(PerfRefactorIdentity, SampledStressedCellMatchesGolden) {
  expect_cell("stress-sampled/7", sampled_stress_config(7));
}

// Observability fully off: the sim digest equals the observed runs' — the
// whole obs layer (streaming tracer included) never perturbs the grid.
TEST(PerfRefactorIdentity, ObsOffCellsMatchObsOnSimDigests) {
  for (std::uint64_t seed : {11u, 23u}) {
    auto cfg = base_config(seed, AlgorithmKind::kQsa);
    cfg.observe = false;
    expect_cell("qsa/" + std::to_string(seed) + "/obs-off", cfg);
  }
  auto cfg = stress_config(7);
  cfg.observe = false;
  expect_cell("stress/7/obs-off", cfg);
}

// The bootstrap's finger rebuild runs in parallel at this ring size; the
// whole run must still equal the serial rebuild's golden.
TEST(PerfRefactorIdentity, PooledBootstrapMatchesSerialGolden) {
  const GridConfig cfg = pooled_bootstrap_config();
  ASSERT_GE(cfg.peers, overlay::ChordRing::kPooledStabilizeMin);
  expect_cell("pooled-bootstrap/2500", cfg);
}

// Same cell, same seed, two fresh grids in one process: the engine (slot
// recycling, shrink policy, DenseMap state) and the tracer slab leak
// nothing between runs.
TEST(PerfRefactorIdentity, RerunIsDeterministic) {
  const auto cfg = sampled_stress_config(7);
  const RunDigests a = run_digests(cfg);
  const RunDigests b = run_digests(cfg);
  EXPECT_EQ(a.sim, b.sim);
  EXPECT_EQ(a.obs, b.obs);
}

}  // namespace
}  // namespace qsa::harness
