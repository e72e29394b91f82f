// The deterministic fault-injection substrate: plan verdicts, retry
// accounting, and its effect on resolution, overlay routing and full grid
// runs.
#include <gtest/gtest.h>

#include <vector>

#include "qsa/fault/fault.hpp"
#include "qsa/harness/grid.hpp"
#include "qsa/overlay/chord_ring.hpp"
#include "qsa/probe/resolution.hpp"

namespace qsa::fault {
namespace {

TEST(FaultConfig, DisabledByDefault) {
  const FaultConfig cfg;
  EXPECT_FALSE(cfg.enabled());
  FaultConfig lossy;
  lossy.set_all_loss(0.1);
  EXPECT_TRUE(lossy.enabled());
  EXPECT_DOUBLE_EQ(lossy.loss(Channel::kProbe), 0.1);
  EXPECT_DOUBLE_EQ(lossy.loss(Channel::kNotify), 0.1);
  EXPECT_DOUBLE_EQ(lossy.loss(Channel::kLookup), 0.1);
  EXPECT_DOUBLE_EQ(lossy.loss(Channel::kReservation), 0.1);
  FaultConfig delayed;
  delayed.max_extra_delay = sim::SimTime::millis(5);
  EXPECT_TRUE(delayed.enabled());
}

TEST(FaultPlan, DisabledPlanDeliversEverything) {
  const FaultPlan plan(7, FaultConfig{});
  for (int i = 0; i < 100; ++i) {
    const Delivery d = plan.attempt(Channel::kLookup, 1, 2);
    EXPECT_TRUE(d.delivered);
    EXPECT_EQ(d.extra_delay, sim::SimTime::zero());
  }
  EXPECT_EQ(plan.stats().total_dropped(), 0u);
}

TEST(FaultPlan, LossExtremes) {
  FaultConfig all;
  all.set_all_loss(1.0);
  const FaultPlan drop_all(7, all);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(drop_all.attempt(Channel::kProbe, 1, 2).delivered);
  }
  EXPECT_EQ(drop_all.stats().total_dropped(), 50u);

  FaultConfig none;
  none.max_extra_delay = sim::SimTime::millis(1);  // enabled, but lossless
  const FaultPlan keep_all(7, none);
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(keep_all.attempt(Channel::kProbe, 1, 2).delivered);
  }
  EXPECT_EQ(keep_all.stats().total_dropped(), 0u);
}

TEST(FaultPlan, EmpiricalRateMatchesConfigured) {
  FaultConfig cfg;
  cfg.set_all_loss(0.3);
  const FaultPlan plan(42, cfg);
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    (void)plan.attempt(Channel::kLookup, static_cast<net::PeerId>(i % 97),
                       static_cast<net::PeerId>(i % 89 + 100));
  }
  const double observed =
      static_cast<double>(plan.stats().total_dropped()) / n;
  EXPECT_NEAR(observed, 0.3, 0.02);
}

TEST(FaultPlan, DeterministicAndPairSymmetric) {
  FaultConfig cfg;
  cfg.set_all_loss(0.5);
  cfg.max_extra_delay = sim::SimTime::millis(40);
  const FaultPlan a(9, cfg);
  const FaultPlan b(9, cfg);
  const FaultPlan c(10, cfg);
  int differs_from_c = 0;
  for (int i = 0; i < 200; ++i) {
    // Same seed, endpoints named in either order: identical verdicts.
    const Delivery da = a.attempt(Channel::kNotify, 3, 8);
    const Delivery db = b.attempt(Channel::kNotify, 8, 3);
    EXPECT_EQ(da.delivered, db.delivered);
    EXPECT_EQ(da.extra_delay, db.extra_delay);
    const Delivery dc = c.attempt(Channel::kNotify, 3, 8);
    if (da.delivered != dc.delivered) ++differs_from_c;
  }
  EXPECT_GT(differs_from_c, 0);  // a different seed is a different plan
}

TEST(FaultPlan, ChannelsHaveIndependentRates) {
  FaultConfig cfg;
  cfg.probe_loss = 1.0;
  const FaultPlan plan(5, cfg);
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(plan.attempt(Channel::kProbe, 1, 2).delivered);
    EXPECT_TRUE(plan.attempt(Channel::kLookup, 1, 2).delivered);
  }
  const auto& s = plan.stats();
  EXPECT_EQ(s.dropped[static_cast<std::size_t>(Channel::kProbe)], 20u);
  EXPECT_EQ(s.dropped[static_cast<std::size_t>(Channel::kLookup)], 0u);
  EXPECT_EQ(s.attempts[static_cast<std::size_t>(Channel::kLookup)], 20u);
}

TEST(FaultPlan, ExtraDelayBoundedAndSometimesNonzero) {
  FaultConfig cfg;
  cfg.max_extra_delay = sim::SimTime::millis(100);
  const FaultPlan plan(3, cfg);
  int nonzero = 0;
  for (int i = 0; i < 200; ++i) {
    const Delivery d = plan.attempt(
        Channel::kLookup, static_cast<net::PeerId>(i), 1000);
    ASSERT_TRUE(d.delivered);
    EXPECT_GE(d.extra_delay, sim::SimTime::zero());
    EXPECT_LE(d.extra_delay, sim::SimTime::millis(100));
    if (d.extra_delay > sim::SimTime::zero()) ++nonzero;
  }
  EXPECT_GT(nonzero, 50);
}

TEST(FaultPlan, BackoffDoublesAndIsAccounted) {
  FaultConfig cfg;
  cfg.set_all_loss(0.5);
  const FaultPlan plan(1, cfg);
  const std::int64_t base = kBackoffBase.as_millis();
  EXPECT_EQ(plan.backoff(Channel::kLookup, 1), sim::SimTime::millis(base));
  EXPECT_EQ(plan.backoff(Channel::kLookup, 2), sim::SimTime::millis(2 * base));
  EXPECT_EQ(plan.backoff(Channel::kLookup, 3), sim::SimTime::millis(4 * base));
  EXPECT_EQ(plan.stats().retries[static_cast<std::size_t>(Channel::kLookup)],
            3u);
}

TEST(NeighborResolutionFaults, TotalNotifyLossLeavesTableEmpty) {
  probe::NeighborResolution res(8, sim::SimTime::minutes(10));
  FaultConfig cfg;
  cfg.notify_loss = 1.0;
  cfg.max_retries = 2;
  const FaultPlan plan(4, cfg);
  res.set_faults(&plan);
  const std::vector<std::vector<net::PeerId>> hops = {{10, 11}, {12}};
  res.register_path(1, hops, sim::SimTime::zero());
  EXPECT_FALSE(res.table(1).knows(10, sim::SimTime::millis(1)));
  EXPECT_FALSE(res.table(1).knows(11, sim::SimTime::millis(1)));
  // Every direct notification was sent 1 + max_retries times; the indirect
  // fan-out (2 * 1) is accounted once as before.
  EXPECT_EQ(res.messages(), 3u * 3u + 2u);
  EXPECT_EQ(plan.stats().retries[static_cast<std::size_t>(Channel::kNotify)],
            3u * 2u);
}

TEST(NeighborResolutionFaults, LostRefreshSkipsTheEntry) {
  probe::NeighborResolution res(8, sim::SimTime::minutes(10));
  FaultConfig cfg;
  cfg.probe_loss = 1.0;
  cfg.max_retries = 1;
  const FaultPlan plan(4, cfg);
  res.set_faults(&plan);
  const std::vector<net::PeerId> candidates = {10, 11};
  res.prepare_selection(2, candidates, 1, false, sim::SimTime::zero());
  EXPECT_EQ(res.table(2).size(), 0u);
  // Only the resends count as extra messages (first sends were accounted by
  // register_path's fan-out in the real protocol).
  EXPECT_EQ(res.messages(), 2u);
}

TEST(NeighborResolutionFaults, LosslessPlanMatchesPerfectMessaging) {
  probe::NeighborResolution faulty(8, sim::SimTime::minutes(10));
  probe::NeighborResolution perfect(8, sim::SimTime::minutes(10));
  FaultConfig cfg;
  cfg.max_extra_delay = sim::SimTime::millis(3);  // enabled, zero loss
  const FaultPlan plan(4, cfg);
  faulty.set_faults(&plan);
  const std::vector<std::vector<net::PeerId>> hops = {{10, 11}, {12, 13}};
  faulty.register_path(1, hops, sim::SimTime::zero());
  perfect.register_path(1, hops, sim::SimTime::zero());
  EXPECT_EQ(faulty.messages(), perfect.messages());
  EXPECT_EQ(faulty.table(1).size(), perfect.table(1).size());
}

class ChordFaultTest : public ::testing::Test {
 protected:
  ChordFaultTest() : ring_(77, 2) {
    for (net::PeerId p = 0; p < 16; ++p) ring_.join(p);
    ring_.stabilize_all();
  }
  overlay::ChordRing ring_;
};

TEST_F(ChordFaultTest, TotalLookupLossFailsTheRoute) {
  FaultConfig cfg;
  cfg.lookup_loss = 1.0;
  const FaultPlan plan(1, cfg);
  ring_.set_faults(&plan);
  int failed = 0;
  for (std::uint64_t k = 0; k < 50; ++k) {
    const auto stats = ring_.route(k * 0x9e3779b97f4a7c15ull, k % 16);
    if (!stats.ok()) ++failed;
  }
  // Lookups resolved locally (requester owns the key) cannot fail; every
  // lookup that needed at least one hop must.
  EXPECT_GT(failed, 30);
  EXPECT_GT(plan.stats().total_dropped(), 0u);
}

TEST_F(ChordFaultTest, PartialLossMostlySucceedsViaRetryAndReroute) {
  FaultConfig cfg;
  cfg.lookup_loss = 0.3;
  cfg.max_retries = 2;
  const FaultPlan plan(1, cfg);
  ring_.set_faults(&plan);
  int ok = 0;
  for (std::uint64_t k = 0; k < 200; ++k) {
    const auto stats = ring_.route(k * 0x9e3779b97f4a7c15ull, k % 16);
    if (stats.ok()) ++ok;
  }
  EXPECT_GT(ok, 150);  // retry budget + alternates absorb most 30% loss
  EXPECT_GT(plan.stats().retries[static_cast<std::size_t>(Channel::kLookup)],
            0u);
  EXPECT_GT(plan.stats().rerouted, 0u);
}

TEST_F(ChordFaultTest, LossyRoutesAreDeterministic) {
  FaultConfig cfg;
  cfg.lookup_loss = 0.25;
  const FaultPlan p1(6, cfg);
  const FaultPlan p2(6, cfg);
  overlay::ChordRing other(77, 2);
  for (net::PeerId p = 0; p < 16; ++p) other.join(p);
  other.stabilize_all();
  ring_.set_faults(&p1);
  other.set_faults(&p2);
  for (std::uint64_t k = 0; k < 100; ++k) {
    const auto a = ring_.route(k * 0x9e3779b97f4a7c15ull, k % 16);
    const auto b = other.route(k * 0x9e3779b97f4a7c15ull, k % 16);
    EXPECT_EQ(a.owner, b.owner);
    EXPECT_EQ(a.hops, b.hops);
    EXPECT_EQ(a.latency, b.latency);
  }
}

harness::GridConfig faulty_grid_config(double loss) {
  harness::GridConfig c;
  c.seed = 21;
  c.peers = 200;
  c.min_providers = 10;
  c.max_providers = 20;
  c.apps.applications = 5;
  c.requests.rate_per_min = 20;
  c.horizon = sim::SimTime::minutes(10);
  c.churn.events_per_min = 2;
  c.enable_recovery = true;
  c.faults.set_all_loss(loss);
  return c;
}

TEST(GridFaults, RunIsDeterministicUnderFaults) {
  auto run_once = [] {
    harness::GridSimulation grid(faulty_grid_config(0.1));
    return grid.run();
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.successes, b.successes);
  EXPECT_EQ(a.counter("fault.messages"), b.counter("fault.messages"));
  EXPECT_EQ(a.counter("fault.dropped"), b.counter("fault.dropped"));
  EXPECT_EQ(a.counter("lookup.rerouted"), b.counter("lookup.rerouted"));
}

TEST(GridFaults, FaultsOffExportsNoFaultCounters) {
  harness::GridSimulation grid(faulty_grid_config(0.0));
  EXPECT_EQ(grid.faults(), nullptr);
  const auto r = grid.run();
  for (const auto& [name, value] : r.counters) {
    EXPECT_EQ(name.find("fault."), std::string_view::npos) << name;
  }
}

TEST(GridFaults, SuccessDegradesWithLossAndRatesReconcile) {
  harness::GridSimulation clean(faulty_grid_config(0.0));
  harness::GridSimulation lossy(faulty_grid_config(0.35));
  const auto rc = clean.run();
  const auto rl = lossy.run();
  EXPECT_LE(rl.success_ratio(), rc.success_ratio());
  const auto messages = rl.counter("fault.messages");
  const auto dropped = rl.counter("fault.dropped");
  ASSERT_GT(messages, 1000u);
  EXPECT_NEAR(static_cast<double>(dropped) / static_cast<double>(messages),
              0.35, 0.03);
  EXPECT_GT(rl.counter("probe.retries"), 0u);
}

}  // namespace
}  // namespace qsa::fault
