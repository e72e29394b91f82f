// End-to-end integration of the full grid simulation.
#include <gtest/gtest.h>

#include "qsa/harness/grid.hpp"

namespace qsa::harness {
namespace {

GridConfig small_config() {
  GridConfig c;
  c.seed = 11;
  c.peers = 300;
  c.min_providers = 15;
  c.max_providers = 30;
  c.apps.applications = 6;
  c.requests.rate_per_min = 20;
  c.horizon = sim::SimTime::minutes(15);
  return c;
}

TEST(GridSimulation, BootstrapsConsistently) {
  GridSimulation grid(small_config());
  EXPECT_EQ(grid.peers().alive_count(), 300u);
  EXPECT_EQ(grid.ring().size(), 300u);
  EXPECT_GT(grid.catalog().instance_count(), 50u);
  EXPECT_EQ(grid.apps().apps().size(), 6u);
  // Every instance has providers within the configured bounds.
  for (registry::InstanceId i = 0; i < grid.catalog().instance_count(); ++i) {
    const auto n = grid.placement().provider_count(i);
    EXPECT_GE(n, 15u);
    EXPECT_LE(n, 30u);
  }
}

TEST(GridSimulation, SubmitRequestComposesAndSelects) {
  GridSimulation grid(small_config());
  const auto& app = grid.apps().apps()[0];
  core::ServiceRequest req;
  req.requester = grid.peers().alive_ids()[0];
  req.abstract_path = app.path;
  req.requirement =
      workload::requirement_for(workload::QosLevel::kLow, grid.universe());
  req.session_duration = sim::SimTime::minutes(5);
  const auto plan = grid.submit_request(req);
  ASSERT_TRUE(plan.ok()) << to_string(plan.failure);
  EXPECT_EQ(plan.instances.size(), app.path.size());
  EXPECT_EQ(plan.hosts.size(), app.path.size());
  for (std::size_t i = 0; i < plan.instances.size(); ++i) {
    EXPECT_EQ(grid.catalog().instance(plan.instances[i]).service, app.path[i]);
    EXPECT_TRUE(grid.peers().alive(plan.hosts[i]));
  }
}

TEST(GridSimulation, RunAccountsEveryRequest) {
  GridSimulation grid(small_config());
  const auto r = grid.run();
  EXPECT_GT(r.requests, 100u);  // ~ 20/min * 15 min
  const auto failures = r.failures_discovery + r.failures_composition +
                        r.failures_selection + r.failures_admission +
                        r.failures_departure;
  EXPECT_EQ(r.successes + failures, r.requests);
  EXPECT_GT(r.success_ratio(), 0.5);  // light load: mostly successful
  EXPECT_FALSE(r.series.empty());
  for (const auto& s : r.series.samples()) {
    EXPECT_GE(s.value, 0.0);
    EXPECT_LE(s.value, 1.0);
  }
}

TEST(GridSimulation, DeterministicAcrossRuns) {
  auto run_once = [] {
    GridSimulation grid(small_config());
    return grid.run();
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.successes, b.successes);
  EXPECT_EQ(a.failures_admission, b.failures_admission);
  EXPECT_EQ(a.lookup_hops, b.lookup_hops);
  EXPECT_EQ(a.notification_messages, b.notification_messages);
  ASSERT_EQ(a.series.size(), b.series.size());
  for (std::size_t i = 0; i < a.series.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.series.samples()[i].value, b.series.samples()[i].value);
  }
}

TEST(GridSimulation, DifferentSeedsDiffer) {
  auto cfg = small_config();
  GridSimulation g1(cfg);
  cfg.seed = 12;
  GridSimulation g2(cfg);
  const auto a = g1.run();
  const auto b = g2.run();
  // Request counts are Poisson draws from different streams.
  EXPECT_NE(a.requests, b.requests);
}

TEST(GridSimulation, LookupHopsScaleLogarithmically) {
  GridSimulation grid(small_config());
  const auto r = grid.run();
  ASSERT_GT(r.requests, 0u);
  // Path lengths are 2-5 services -> 2-5 lookups per request; each lookup
  // should average well under log2(300) ~ 8 hops.
  const double hops_per_request =
      static_cast<double>(r.lookup_hops) / static_cast<double>(r.requests);
  EXPECT_GT(hops_per_request, 1.0);
  EXPECT_LT(hops_per_request, 40.0);
}

TEST(GridSimulation, DepartPeerPurgesEverything) {
  GridSimulation grid(small_config());
  const net::PeerId victim = grid.peers().alive_ids()[5];
  grid.depart_peer(victim);
  EXPECT_FALSE(grid.peers().alive(victim));
  EXPECT_FALSE(grid.ring().contains(victim));
  EXPECT_TRUE(grid.placement().provided_by(victim).empty());
  EXPECT_EQ(grid.peers().alive_count(), 299u);
  grid.depart_peer(victim);  // idempotent
  EXPECT_EQ(grid.peers().alive_count(), 299u);
}

TEST(GridSimulation, ArrivePeerJoinsEverything) {
  GridSimulation grid(small_config());
  const auto id = grid.arrive_peer();
  EXPECT_TRUE(grid.peers().alive(id));
  EXPECT_TRUE(grid.ring().contains(id));
  EXPECT_EQ(grid.peers().alive_count(), 301u);
  EXPECT_GE(grid.placement().provided_by(id).size(), 1u);
}

TEST(GridSimulation, ChurnRunProducesDepartureFailures) {
  auto cfg = small_config();
  cfg.churn.events_per_min = 12;  // 4% of 300 per minute: aggressive
  cfg.requests.rate_per_min = 30;
  GridSimulation grid(cfg);
  const auto r = grid.run();
  EXPECT_GT(r.churn_departures, 50u);
  EXPECT_GT(r.churn_arrivals, 50u);
  EXPECT_GT(r.failures_departure, 0u);
  // Population stays near its initial size.
  EXPECT_NEAR(static_cast<double>(grid.peers().alive_count()), 300.0, 30.0);
}

TEST(GridSimulation, SaturationDegradesSuccessRatio) {
  auto low = small_config();
  low.requests.rate_per_min = 5;
  auto high = small_config();
  high.requests.rate_per_min = 300;
  GridSimulation g_low(low), g_high(high);
  const auto r_low = g_low.run();
  const auto r_high = g_high.run();
  EXPECT_GT(r_low.success_ratio(), r_high.success_ratio());
  EXPECT_GT(r_high.failures_admission + r_high.failures_selection, 0u);
}

// The headline comparison: under load, QSA > random > fixed.
TEST(GridSimulation, AlgorithmOrderingUnderLoad) {
  auto cfg = small_config();
  cfg.requests.rate_per_min = 60;
  cfg.horizon = sim::SimTime::minutes(20);

  double psi[3];
  const AlgorithmKind kinds[] = {AlgorithmKind::kQsa, AlgorithmKind::kRandom,
                                 AlgorithmKind::kFixed};
  for (int i = 0; i < 3; ++i) {
    auto c = cfg;
    c.algorithm = kinds[i];
    GridSimulation grid(c);
    psi[i] = grid.run().success_ratio();
  }
  EXPECT_GT(psi[0], psi[1]) << "QSA must beat random";
  EXPECT_GT(psi[1], psi[2]) << "random must beat fixed (client-server)";
}

TEST(GridSimulation, RunsOnCanOverlay) {
  auto cfg = small_config();
  cfg.overlay = OverlayKind::kCan;
  GridSimulation grid(cfg);
  const auto r = grid.run();
  EXPECT_GT(r.requests, 100u);
  EXPECT_GT(r.success_ratio(), 0.5);
  // CAN pays more hops than Chord for the same discovery workload.
  auto chord_cfg = small_config();
  GridSimulation chord_grid(chord_cfg);
  const auto chord_r = chord_grid.run();
  EXPECT_GT(static_cast<double>(r.lookup_hops),
            static_cast<double>(chord_r.lookup_hops));
}

TEST(GridSimulation, RecoveryImprovesChurnSurvival) {
  auto cfg = small_config();
  cfg.churn.events_per_min = 12;
  cfg.requests.rate_per_min = 30;
  auto with = cfg;
  with.enable_recovery = true;
  GridSimulation g_plain(cfg), g_recover(with);
  const auto r_plain = g_plain.run();
  const auto r_recover = g_recover.run();
  EXPECT_GT(r_recover.counter("sessions.recovered"), 0u);
  EXPECT_GE(r_recover.success_ratio() + 1e-9, r_plain.success_ratio());
  EXPECT_LT(r_recover.failures_departure, r_plain.failures_departure);
}

TEST(GridSimulation, BandwidthWeightConfigApplies) {
  // An extreme bandwidth weight changes selection behaviour; the grid must
  // accept the knob and stay deterministic.
  auto cfg = small_config();
  cfg.bandwidth_weight = 0.9;
  GridSimulation g1(cfg), g2(cfg);
  const auto a = g1.run();
  const auto b = g2.run();
  EXPECT_EQ(a.successes, b.successes);
  cfg.bandwidth_weight = -1;  // uniform default
  GridSimulation g3(cfg);
  const auto c = g3.run();
  EXPECT_EQ(a.requests, c.requests);  // same arrival stream
}

// Admission retries exclude the blamed host on the re-plan. That is only
// useful if the algorithm honors the exclusion — the fixed baseline would
// otherwise re-pick the very host whose reservation just failed and burn
// every retry on a guaranteed repeat failure.
TEST(GridSimulation, RetryExclusionHelpsFixedBaseline) {
  auto cfg = small_config();
  cfg.algorithm = AlgorithmKind::kFixed;
  cfg.requests.rate_per_min = 150;  // saturate the dedicated hosts
  auto with = cfg;
  with.admission_retries = 2;
  GridSimulation g_plain(cfg), g_retry(with);
  const auto r_plain = g_plain.run();
  const auto r_retry = g_retry.run();
  EXPECT_GT(r_retry.counter("admission.retries"), 0u);
  EXPECT_GT(r_retry.success_ratio(), r_plain.success_ratio());
  EXPECT_LT(r_retry.failures_admission, r_plain.failures_admission);
}

TEST(GridSimulation, CountersExported) {
  GridSimulation grid(small_config());
  const auto r = grid.run();
  EXPECT_GT(r.counter("sessions.admitted"), 0u);
  EXPECT_GT(r.counter("events.executed"), 0u);
  EXPECT_GT(r.notification_messages, 0u);
}

}  // namespace
}  // namespace qsa::harness
