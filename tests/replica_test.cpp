// qsa::replica — demand-driven, QoS-aware service replication. Under test:
//
//  1. the demand estimator: exponentially decayed event counts with the
//     configured half-life, fed by admission outcomes;
//  2. the placement rule: a trip only fires past the hysteresis threshold
//     under pool pressure, and the chosen clone host passes exactly the
//     checks a dynamically selected host would (headroom >= R, probed
//     bandwidth >= b, stable uptime), evidence kept on the ReplicaRecord;
//  3. lifecycle: refractory period, max_replicas cap, cold-replica
//     retirement, in-use pinning, and churn cleanup;
//  4. grid level: with --replication off the knobs are inert and no
//     replica/load metric ever appears (byte-identical artifacts); with it
//     on, runs are bit-reproducible across repeats and runner thread
//     counts, and every replica on file passed the QoS checks.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "obs_capture.hpp"
#include "qsa/harness/experiment.hpp"
#include "qsa/harness/grid.hpp"
#include "qsa/obs/export.hpp"
#include "qsa/overlay/chord_ring.hpp"
#include "qsa/qos/satisfy.hpp"
#include "qsa/registry/directory.hpp"
#include "qsa/replica/manager.hpp"

namespace qsa {
namespace {

constexpr qos::ParamId kLevel = 0;

qos::QosVector range_vec(double lo, double hi) {
  qos::QosVector v;
  v.set(kLevel, qos::QosValue::range(lo, hi));
  return v;
}

// ------------------------------------------------------------- fixture

/// 48 long-lived peers (capacity {500,500}), one service with one instance
/// (R = {50,50}, b = 10 kbps) provided by the first four peers. Tests
/// saturate the provider pool by reserving most of each provider's capacity
/// and drive the ReplicaManager directly with demand signals.
struct ReplicaFixture : ::testing::Test {
  void SetUp() override {
    for (int p = 0; p < 48; ++p) {
      ids.push_back(peers.add_peer(qos::ResourceVector{500, 500},
                                   sim::SimTime::minutes(-100)));
      ring.join(ids.back());
    }
    ring.stabilize_all();
    s0 = catalog.add_service("a");
    registry::ServiceInstance spec;
    spec.service = s0;
    spec.qout = range_vec(10, 20);
    spec.resources = qos::ResourceVector{50, 50};
    spec.bandwidth_kbps = 10;
    i0 = catalog.add_instance(spec);
    for (int k = 0; k < 4; ++k) placement.add_provider(i0, ids[k]);
    dir.publish_all();
  }

  /// Reserves all but `leave` of each provider's capacity at `when`; the
  /// probe snapshots see it from the next epoch boundary on.
  void saturate_providers(registry::InstanceId inst, double leave,
                          sim::SimTime when) {
    for (net::PeerId p : placement.providers(inst)) {
      const auto avail = peers.probed_available(p, when);
      (void)avail;
      ASSERT_TRUE(peers.try_reserve(
          p, qos::ResourceVector{500 - leave, 500 - leave}, when));
    }
  }

  replica::ReplicaConfig fast_config() const {
    replica::ReplicaConfig cfg;
    cfg.enabled = true;
    cfg.threshold = 4;
    cfg.cooldown = sim::SimTime::minutes(1);
    cfg.max_replicas = 4;
    return cfg;
  }

  std::unique_ptr<replica::ReplicaManager> make(
      const replica::ReplicaConfig& cfg, std::uint64_t seed = 7) {
    return std::make_unique<replica::ReplicaManager>(
        seed, cfg, catalog, placement, dir, peers, net,
        qos::TupleWeights::uniform(2), qos::ResourceSchema::paper());
  }

  overlay::ChordRing ring{1, 3};
  registry::ServiceCatalog catalog;
  registry::PlacementMap placement;
  registry::ServiceDirectory dir{1, ring, catalog};
  net::PeerTable peers{qos::ResourceSchema::paper(), net::ProbeClock()};
  net::NetworkModel net{1, net::ProbeClock()};
  std::vector<net::PeerId> ids;
  registry::ServiceId s0 = 0;
  registry::InstanceId i0 = 0;
};

// ------------------------------------------------------ demand estimator

TEST_F(ReplicaFixture, DemandDecaysWithConfiguredHalfLife) {
  auto cfg = fast_config();
  cfg.threshold = 1000;  // never trips here
  auto mgr = make(cfg);

  const registry::InstanceId insts[] = {i0};
  const auto t0 = sim::SimTime::zero();
  mgr->on_admitted(insts, t0);
  EXPECT_DOUBLE_EQ(mgr->demand(i0, t0), 1.0);
  EXPECT_NEAR(mgr->demand(i0, t0 + replica::kDemandHalfLife), 0.5, 1e-12);
  EXPECT_NEAR(mgr->demand(i0, t0 + sim::SimTime::minutes(8)), 1.0 / 16, 1e-12);
  EXPECT_DOUBLE_EQ(mgr->demand(i0 + 999, t0), 0.0);  // unknown instance
}

TEST_F(ReplicaFixture, RejectionBlameWeighsMoreThanPathPresence) {
  auto cfg = fast_config();
  cfg.threshold = 1000;
  auto mgr = make(cfg);

  const registry::InstanceId insts[] = {i0};
  const net::PeerId hosts[] = {ids[0]};
  const auto t0 = sim::SimTime::zero();
  mgr->on_rejected(insts, hosts, /*blamed=*/ids[0], t0);
  EXPECT_DOUBLE_EQ(mgr->demand(i0, t0), 2.0);  // blamed host: strong signal
  mgr->on_rejected(insts, hosts, /*blamed=*/ids[3], t0);
  EXPECT_DOUBLE_EQ(mgr->demand(i0, t0), 3.0);  // on the path: weak signal
}

// -------------------------------------------------------- placement rule

TEST_F(ReplicaFixture, TripPlacesQosCapableCloneAndPublishesIt) {
  saturate_providers(i0, 20, sim::SimTime::zero());  // headroom 20 < R=50
  auto mgr = make(fast_config());

  const registry::InstanceId insts[] = {i0};
  const auto now = sim::SimTime::minutes(2);  // reservations probe-visible
  mgr->on_selection_failure(insts, now);  // score 2 < 4
  EXPECT_EQ(mgr->stats().created, 0u);
  mgr->on_selection_failure(insts, now);  // score 4 -> trip
  ASSERT_EQ(mgr->stats().created, 1u);
  ASSERT_EQ(mgr->active(), 1u);

  const replica::ReplicaRecord& rec = mgr->replicas()[0];
  EXPECT_EQ(rec.instance, i0);
  ASSERT_NE(rec.host, net::kNoPeer);
  // The clone widened the provider pool and is not one of the originals.
  EXPECT_EQ(placement.provider_count(i0), 5u);
  for (int k = 0; k < 4; ++k) EXPECT_NE(rec.host, ids[k]);

  // The replica passed the same checks any dynamically selected host must:
  // probed headroom fits the instance's resource vector R...
  const auto& spec = catalog.instance(rec.instance);
  EXPECT_TRUE(spec.resources.fits_within(rec.headroom));
  EXPECT_EQ(rec.headroom, peers.probed_available(rec.host, now));
  // ...the host looked stable for at least one retirement cycle...
  EXPECT_GE(peers.probed_uptime(rec.host, now), mgr->config().cooldown);
  EXPECT_GT(rec.phi, 0.0);
  // ...and it serves the identical Qout spec, so any requirement the
  // original satisfied the replica satisfies too.
  EXPECT_TRUE(qos::satisfies(spec.qout, range_vec(0, 100)));
  EXPECT_EQ(rec.created, now);
}

TEST_F(ReplicaFixture, NoReplicationWithoutPoolPressure) {
  // Providers keep ample headroom: demand alone must not clone.
  auto mgr = make(fast_config());
  const registry::InstanceId insts[] = {i0};
  const auto now = sim::SimTime::minutes(2);
  for (int i = 0; i < 10; ++i) mgr->on_selection_failure(insts, now);
  EXPECT_EQ(mgr->stats().created, 0u);
  EXPECT_EQ(mgr->stats().rejected_no_host, 0u);
  EXPECT_EQ(placement.provider_count(i0), 4u);
}

TEST_F(ReplicaFixture, RefractoryAllowsOneDecisionPerCooldown) {
  saturate_providers(i0, 20, sim::SimTime::zero());
  auto mgr = make(fast_config());

  const registry::InstanceId insts[] = {i0};
  const auto t1 = sim::SimTime::minutes(2);
  mgr->on_selection_failure(insts, t1);
  mgr->on_selection_failure(insts, t1);
  EXPECT_EQ(mgr->stats().created, 1u);
  // More demand inside the refractory period: no second clone.
  for (int i = 0; i < 10; ++i) mgr->on_selection_failure(insts, t1);
  EXPECT_EQ(mgr->stats().created, 1u);
  // Past the cooldown the next trip may fire again.
  const auto t2 = t1 + mgr->config().cooldown + sim::SimTime::seconds(1);
  mgr->on_selection_failure(insts, t2);
  mgr->on_selection_failure(insts, t2);
  EXPECT_EQ(mgr->stats().created, 2u);
  EXPECT_EQ(placement.provider_count(i0), 6u);
}

TEST_F(ReplicaFixture, MaxReplicasCapsTheCloneCount) {
  saturate_providers(i0, 20, sim::SimTime::zero());
  auto cfg = fast_config();
  cfg.max_replicas = 1;
  auto mgr = make(cfg);

  const registry::InstanceId insts[] = {i0};
  auto now = sim::SimTime::minutes(2);
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 4; ++i) mgr->on_selection_failure(insts, now);
    now = now + mgr->config().cooldown + sim::SimTime::seconds(1);
  }
  EXPECT_EQ(mgr->stats().created, 1u);
  EXPECT_EQ(placement.provider_count(i0), 5u);
}

TEST_F(ReplicaFixture, NoCapableHostIsCountedNotCloned) {
  // An instance too big for any peer: every trip ends in rejected_no_host.
  registry::ServiceInstance big;
  big.service = s0;
  big.qout = range_vec(10, 20);
  big.resources = qos::ResourceVector{600, 600};  // > every peer's capacity
  big.bandwidth_kbps = 10;
  const auto ibig = catalog.add_instance(big);
  placement.add_provider(ibig, ids[0]);
  dir.publish(ibig);

  auto mgr = make(fast_config());
  const registry::InstanceId insts[] = {ibig};
  const auto now = sim::SimTime::minutes(2);
  mgr->on_selection_failure(insts, now);
  mgr->on_selection_failure(insts, now);
  EXPECT_EQ(mgr->stats().created, 0u);
  EXPECT_EQ(mgr->stats().rejected_no_host, 1u);
  EXPECT_EQ(placement.provider_count(ibig), 1u);
  // A miss burns the refractory period too (hysteresis, hit or miss).
  mgr->on_selection_failure(insts, now);
  EXPECT_EQ(mgr->stats().rejected_no_host, 1u);
}

// ------------------------------------------------------------- lifecycle

TEST_F(ReplicaFixture, SweepRetiresOnlyOldColdReplicas) {
  saturate_providers(i0, 20, sim::SimTime::zero());
  auto mgr = make(fast_config());  // watermark = 4 * 0.25 = 1

  const registry::InstanceId insts[] = {i0};
  const auto t1 = sim::SimTime::minutes(2);
  mgr->on_selection_failure(insts, t1);
  mgr->on_selection_failure(insts, t1);
  ASSERT_EQ(mgr->active(), 1u);

  mgr->sweep(t1);  // age 0 < cooldown: kept
  EXPECT_EQ(mgr->active(), 1u);
  mgr->sweep(t1 + sim::SimTime::minutes(1));  // old enough, demand ~1.4: kept
  EXPECT_EQ(mgr->active(), 1u);
  mgr->sweep(t1 + sim::SimTime::minutes(6));  // demand 2*2^-3 = 0.25 < 1
  EXPECT_EQ(mgr->active(), 0u);
  EXPECT_EQ(mgr->stats().retired, 1u);
  EXPECT_EQ(placement.provider_count(i0), 4u);
}

TEST_F(ReplicaFixture, ActiveSessionsPinReplicasUntilTeardown) {
  saturate_providers(i0, 20, sim::SimTime::zero());
  auto mgr = make(fast_config());

  const registry::InstanceId insts[] = {i0};
  const auto t1 = sim::SimTime::minutes(2);
  mgr->on_selection_failure(insts, t1);
  mgr->on_selection_failure(insts, t1);
  mgr->on_admitted(insts, t1);  // a session now uses the instance
  ASSERT_EQ(mgr->active(), 1u);

  mgr->sweep(t1 + sim::SimTime::minutes(30));  // stone cold, but in use
  EXPECT_EQ(mgr->active(), 1u);
  mgr->on_session_ended(insts);
  mgr->sweep(t1 + sim::SimTime::minutes(30));
  EXPECT_EQ(mgr->active(), 0u);
  EXPECT_EQ(mgr->stats().retired, 1u);
}

TEST_F(ReplicaFixture, HostDepartureDropsRecordsAndFreesTheSlot) {
  saturate_providers(i0, 20, sim::SimTime::zero());
  auto cfg = fast_config();
  cfg.max_replicas = 1;
  auto mgr = make(cfg);

  const registry::InstanceId insts[] = {i0};
  const auto t1 = sim::SimTime::minutes(2);
  mgr->on_selection_failure(insts, t1);
  mgr->on_selection_failure(insts, t1);
  ASSERT_EQ(mgr->active(), 1u);
  const net::PeerId host = mgr->replicas()[0].host;

  // Churn: the harness removes the peer from the placement map wholesale
  // and then tells the manager.
  (void)placement.remove_peer(host);
  mgr->peer_departed(host);
  EXPECT_EQ(mgr->active(), 0u);
  EXPECT_EQ(mgr->stats().host_departures, 1u);
  EXPECT_EQ(placement.provider_count(i0), 4u);

  // The departed clone no longer counts against max_replicas: once the
  // refractory period lapses the instance may be replicated again.
  const auto t2 = t1 + mgr->config().cooldown + sim::SimTime::seconds(1);
  mgr->on_selection_failure(insts, t2);
  mgr->on_selection_failure(insts, t2);
  EXPECT_EQ(mgr->stats().created, 2u);
  EXPECT_EQ(mgr->active(), 1u);
}

TEST_F(ReplicaFixture, MetricsExportCountersAndActiveGauge) {
  saturate_providers(i0, 20, sim::SimTime::zero());
  obs::MetricsRegistry reg;
  auto mgr = make(fast_config());
  mgr->set_metrics(&reg);

  const registry::InstanceId insts[] = {i0};
  const auto t1 = sim::SimTime::minutes(2);
  mgr->on_selection_failure(insts, t1);
  mgr->on_selection_failure(insts, t1);
  EXPECT_EQ(mgr->stats().created, 1u);
  EXPECT_DOUBLE_EQ(reg.gauge("replica.active").value, 1.0);
  mgr->sweep(t1 + sim::SimTime::minutes(6));
  EXPECT_EQ(mgr->stats().retired, 1u);
  EXPECT_DOUBLE_EQ(reg.gauge("replica.active").value, 0.0);
  EXPECT_DOUBLE_EQ(reg.gauge("replica.active").high_water, 1.0);
  // The counts live in stats() alone; the grid exports them at run end.
  EXPECT_TRUE(reg.counters().empty());
}

// ------------------------------------------------- grid-level guarantees

harness::GridConfig grid_config(std::uint64_t seed) {
  harness::GridConfig c;
  c.seed = seed;
  c.peers = 200;
  c.min_providers = 10;
  c.max_providers = 20;
  c.apps.applications = 5;
  c.requests.rate_per_min = 30;
  c.churn.events_per_min = 6;
  c.admission_retries = 1;
  c.horizon = sim::SimTime::minutes(10);
  c.algorithm = harness::AlgorithmKind::kQsa;
  c.observe = true;
  return c;
}

/// Replication tuned to actually fire inside the short test horizon.
harness::GridConfig replicating_config(std::uint64_t seed) {
  auto c = grid_config(seed);
  c.replication.enabled = true;
  c.replication.threshold = 2;
  c.replication.cooldown = sim::SimTime::minutes(1);
  c.replication.min_pool_pressure = 0;  // demand alone suffices in tests
  return c;
}

struct RunArtifacts {
  harness::GridResult result;
  std::string trace;
  std::string metrics_csv;
};

RunArtifacts run_grid(const harness::GridConfig& cfg) {
  harness::GridSimulation grid(cfg);
  test::SpanCapture trace;  // spans stream out as requests finish
  grid.set_span_sink(&trace.sink);
  RunArtifacts a;
  a.result = grid.run();
  a.trace = trace.str();
  a.metrics_csv = obs::metrics_csv(*grid.metrics());
  return a;
}

void expect_same_artifacts(const RunArtifacts& a, const RunArtifacts& b,
                           std::uint64_t seed) {
  EXPECT_EQ(a.result.requests, b.result.requests);
  EXPECT_EQ(a.result.successes, b.result.successes);
  EXPECT_EQ(a.result.failures_discovery, b.result.failures_discovery);
  EXPECT_EQ(a.result.failures_composition, b.result.failures_composition);
  EXPECT_EQ(a.result.failures_selection, b.result.failures_selection);
  EXPECT_EQ(a.result.failures_admission, b.result.failures_admission);
  EXPECT_EQ(a.result.failures_departure, b.result.failures_departure);
  EXPECT_EQ(a.result.lookup_hops, b.result.lookup_hops);
  EXPECT_EQ(a.result.setup_latency_ms, b.result.setup_latency_ms);
  EXPECT_EQ(a.result.notification_messages, b.result.notification_messages);
  EXPECT_EQ(a.result.random_fallback_hops, b.result.random_fallback_hops);
  EXPECT_EQ(a.result.avg_composition_cost, b.result.avg_composition_cost);
  EXPECT_EQ(a.result.counters, b.result.counters);
  ASSERT_EQ(a.result.series.size(), b.result.series.size());
  for (std::size_t i = 0; i < a.result.series.size(); ++i) {
    EXPECT_EQ(a.result.series.samples()[i].value,
              b.result.series.samples()[i].value);
  }
  EXPECT_EQ(a.trace, b.trace) << "seed " << seed;
  EXPECT_EQ(a.metrics_csv, b.metrics_csv) << "seed " << seed;
}

TEST(GridReplication, DisabledKnobsAreInertAndExportNothing) {
  for (const std::uint64_t seed : {11u, 23u}) {
    const auto base = grid_config(seed);  // replication off (the default)
    auto tweaked = base;
    // Every replica knob cranked — with enabled=false they must all be
    // inert, keeping the run byte-identical to the previous commit's.
    tweaked.replication.threshold = 2;
    tweaked.replication.cooldown = sim::SimTime::seconds(30);
    tweaked.replication.max_replicas = 16;
    tweaked.replication.min_pool_pressure = 0;

    const auto a = run_grid(base);
    const auto b = run_grid(tweaked);
    expect_same_artifacts(a, b, seed);

    // No replica or load-concentration artifact may leak into an off run.
    EXPECT_EQ(a.metrics_csv.find("replica."), std::string::npos);
    EXPECT_EQ(a.metrics_csv.find("provider.load"), std::string::npos);
    EXPECT_EQ(a.result.counter("replica.created"), 0u);
    EXPECT_EQ(a.result.counter("load.provider_peak"), 0u);
  }
}

TEST(GridReplication, EnabledRunsAreBitReproducible) {
  const auto cfg = replicating_config(17);
  const auto a = run_grid(cfg);
  const auto b = run_grid(cfg);
  expect_same_artifacts(a, b, 17);
  // The run actually exercised the subsystem.
  EXPECT_GT(a.result.counter("replica.created"), 0u);
  EXPECT_GT(a.result.counter("load.provider_peak"), 0u);
}

TEST(GridReplication, ReproducibleAcrossRunnerThreadCounts) {
  std::vector<harness::ExperimentCell> cells;
  for (const std::uint64_t seed : {5u, 29u, 83u}) {
    cells.push_back({"seed " + std::to_string(seed),
                     replicating_config(seed)});
  }
  const auto serial = harness::ExperimentRunner(1).run(cells);
  const auto parallel = harness::ExperimentRunner(4).run(cells);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].result.successes, parallel[i].result.successes);
    EXPECT_EQ(serial[i].result.counters, parallel[i].result.counters);
    EXPECT_EQ(serial[i].metrics_json, parallel[i].metrics_json) << cells[i].label;
  }
}

TEST(GridReplication, LiveReplicasPassedTheSameQosChecksAsOriginals) {
  const auto cfg = replicating_config(17);
  harness::GridSimulation grid(cfg);
  const auto r = grid.run();
  ASSERT_GT(r.counter("replica.created"), 0u);

  const replica::ReplicaManager* mgr = grid.replicas();
  ASSERT_NE(mgr, nullptr);
  for (const auto& rec : mgr->replicas()) {
    const auto& spec = grid.catalog().instance(rec.instance);
    // Same resource check as any admitted host: R fit the probed headroom.
    EXPECT_TRUE(spec.resources.fits_within(rec.headroom))
        << "instance " << rec.instance << " host " << rec.host;
    EXPECT_GT(rec.phi, 0.0);
    // The clone is a live provider of the template instance.
    const auto providers = grid.placement().providers(rec.instance);
    EXPECT_NE(std::find(providers.begin(), providers.end(), rec.host),
              providers.end());
  }
}

}  // namespace
}  // namespace qsa
