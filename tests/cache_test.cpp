// qsa::cache — the aggregation fast path. Three properties are under test:
//
//  1. the compatibility/cost memos are *bit-transparent*: every composition
//     (QCS and the DFS baselines) and every full grid run produces exactly
//     the same results, counters, series, traces and exported metrics with
//     the caches on as off;
//  2. the TTL'd discovery cache follows the soft-state contract: hits serve
//     the last lookup with zero hops/latency, entries expire at the TTL,
//     and any registration change or peer departure drops the cache;
//  3. staleness within the TTL is caught downstream (selection/admission),
//     never by the cache itself.
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "directory_lookup.hpp"
#include "obs_capture.hpp"
#include "qsa/cache/compose_cache.hpp"
#include "qsa/cache/discovery_cache.hpp"
#include "qsa/core/baselines.hpp"
#include "qsa/harness/grid.hpp"
#include "qsa/obs/export.hpp"
#include "qsa/overlay/chord_ring.hpp"
#include "qsa/qos/satisfy.hpp"
#include "qsa/registry/directory.hpp"
#include "qsa/replica/manager.hpp"
#include "qsa/util/rng.hpp"
#include "qsa/workload/apps.hpp"

namespace qsa {
namespace {

constexpr qos::ParamId kLevel = 0;

qos::QosVector range_vec(double lo, double hi) {
  qos::QosVector v;
  v.set(kLevel, qos::QosValue::range(lo, hi));
  return v;
}

// ------------------------------------------------------------ CompatMemo

TEST(ComposeCache, PairMemoMatchesDirectCheckAndCountsHits) {
  obs::MetricsRegistry reg;
  cache::ComposeCache cc;
  cc.set_metrics(&reg);
  const auto qout = range_vec(50, 60);
  const auto qin_ok = range_vec(0, 100);
  const auto qin_no = range_vec(90, 95);

  EXPECT_EQ(cc.compat.pair(3, qout, 7, qin_ok), qos::satisfies(qout, qin_ok));
  EXPECT_EQ(cc.compat.pair(3, qout, 7, qin_ok), qos::satisfies(qout, qin_ok));
  // The reverse pair is a distinct key (direction matters).
  EXPECT_EQ(cc.compat.pair(7, qout, 3, qin_no), qos::satisfies(qout, qin_no));
  EXPECT_EQ(reg.counter("cache.compat.misses").value, 2u);
  EXPECT_EQ(reg.counter("cache.compat.hits").value, 1u);
}

TEST(ComposeCache, PairMemoSurvivesGrowth) {
  cache::ComposeCache cc;
  const auto qout = range_vec(50, 60);
  const auto qin = range_vec(0, 100);
  // Warm small ids, then force a re-layout with a large id: old verdicts
  // must survive the row copy.
  EXPECT_TRUE(cc.compat.pair(1, qout, 2, qin));
  EXPECT_FALSE(cc.compat.pair(2, range_vec(0, 5), 1, range_vec(90, 95)));
  EXPECT_TRUE(cc.compat.pair(900, qout, 3, qin));
  EXPECT_TRUE(cc.compat.pair(1, qout, 2, qin));
  EXPECT_FALSE(cc.compat.pair(2, range_vec(0, 5), 1, range_vec(90, 95)));
}

TEST(ComposeCache, SinkMemoCorrectAcrossRequirementChurn) {
  cache::ComposeCache cc;
  const auto qout = range_vec(50, 60);
  // More distinct requirements than the memo keeps: eviction and
  // recomputation must never change an answer.
  for (int round = 0; round < 2; ++round) {
    for (int r = 0; r < 12; ++r) {
      const auto req = range_vec(5.0 * r, 5.0 * r + 30);
      for (registry::InstanceId i = 0; i < 4; ++i) {
        EXPECT_EQ(cc.compat.sink(i, qout, req), qos::satisfies(qout, req))
            << "requirement " << r << " instance " << i;
      }
    }
  }
}

TEST(ComposeCache, CostTableMatchesScalarize) {
  cache::ComposeCache cc;
  const auto weights = qos::TupleWeights::uniform(2);
  const auto schema = qos::ResourceSchema::paper();
  const qos::ResourceVector r{40, 70};
  const double direct = qos::scalarize(qos::ResourceTuple{r, 300.0}, weights,
                                       schema);
  EXPECT_EQ(cc.costs.cost(5, r, 300.0, weights, schema), direct);
  EXPECT_EQ(cc.costs.cost(5, r, 300.0, weights, schema), direct);
}

// -------------------------------------------- composer bit-transparency

/// A random composable catalog: `layers` services, `k` instances each.
struct RandomCatalog {
  registry::ServiceCatalog catalog;
  core::CompositionRequest request;

  RandomCatalog(util::Rng& rng, int layers, int k) {
    for (int l = 0; l < layers; ++l) {
      const auto svc = catalog.add_service("svc");
      std::vector<registry::InstanceId> layer;
      for (int i = 0; i < k; ++i) {
        registry::ServiceInstance inst;
        inst.service = svc;
        if (l > 0) {
          const double lo = rng.uniform(0, 50);
          inst.qin.set(kLevel, qos::QosValue::range(lo, lo + rng.uniform(20, 60)));
        }
        const double lo = rng.uniform(10, 80);
        inst.qout.set(kLevel, qos::QosValue::range(lo, lo + 10));
        inst.resources =
            qos::ResourceVector{rng.uniform(5, 100), rng.uniform(5, 100)};
        inst.bandwidth_kbps = rng.uniform(40, 400);
        layer.push_back(catalog.add_instance(inst));
      }
      request.candidates.push_back(std::move(layer));
    }
  }
};

void expect_same(const core::CompositionResult& a,
                 const core::CompositionResult& b) {
  EXPECT_EQ(a.success, b.success);
  EXPECT_EQ(a.instances, b.instances);
  EXPECT_EQ(a.cost, b.cost);  // bit-identical, not just near
  EXPECT_EQ(a.nodes, b.nodes);
  EXPECT_EQ(a.edges_examined, b.edges_examined);
  EXPECT_EQ(a.nodes_checked, b.nodes_checked);
}

TEST(ComposeCache, QcsBitIdenticalCachedVsUncached) {
  util::Rng rng(41);
  for (int trial = 0; trial < 25; ++trial) {
    const int layers = 2 + static_cast<int>(rng.index(4));
    const int k = 2 + static_cast<int>(rng.index(10));
    RandomCatalog setup(rng, layers, k);
    core::QcsComposer plain(setup.catalog, qos::TupleWeights::uniform(2),
                            qos::ResourceSchema::paper());
    core::QcsComposer cached(setup.catalog, qos::TupleWeights::uniform(2),
                             qos::ResourceSchema::paper());
    cache::ComposeCache cc;
    cached.set_cache(&cc);
    // Several requirements per catalog so the sink memo sees variety and
    // repeats (the second pass over each requirement is all memo hits).
    for (int r = 0; r < 6; ++r) {
      auto req = setup.request;
      const double lo = rng.uniform(0, 60);
      req.requirement = range_vec(lo, lo + 40);
      expect_same(cached.compose(req), plain.compose(req));
      expect_same(cached.compose(req), plain.compose(req));
    }
  }
}

TEST(ComposeCache, DfsBaselinesBitIdenticalCachedVsUncached) {
  util::Rng rng(43);
  for (int trial = 0; trial < 15; ++trial) {
    const int layers = 2 + static_cast<int>(rng.index(3));
    const int k = 2 + static_cast<int>(rng.index(8));
    RandomCatalog setup(rng, layers, k);
    core::QcsComposer plain(setup.catalog, qos::TupleWeights::uniform(2),
                            qos::ResourceSchema::paper());
    core::QcsComposer cached(setup.catalog, qos::TupleWeights::uniform(2),
                             qos::ResourceSchema::paper());
    cache::ComposeCache cc;
    cached.set_cache(&cc);
    auto req = setup.request;
    req.requirement = range_vec(0, 100);
    expect_same(core::compose_first(cached, req),
                core::compose_first(plain, req));
    // Twin RNG streams: the randomized DFS must draw identically, so the
    // memo may not add or remove a single RNG consultation.
    util::Rng rng_a(trial + 1), rng_b(trial + 1);
    expect_same(core::compose_random(cached, req, rng_a),
                core::compose_random(plain, req, rng_b));
  }
}

// --------------------------------------------------------- DiscoveryCache

TEST(DiscoveryCache, DisabledByDefault) {
  cache::DiscoveryCache dc;
  EXPECT_FALSE(dc.enabled());
  dc.store(1, {4, 5}, sim::SimTime::zero());
  EXPECT_EQ(dc.find(1, sim::SimTime::zero()), nullptr);
}

TEST(DiscoveryCache, HitWithinTtlExpiryAtTtl) {
  cache::DiscoveryCache dc;
  dc.set_ttl(sim::SimTime::seconds(30));
  dc.store(1, {4, 5}, sim::SimTime::zero());
  const auto* hit = dc.find(1, sim::SimTime::seconds(29));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, (std::vector<registry::InstanceId>{4, 5}));
  // `now + ttl` is already expired (half-open lifetime).
  EXPECT_EQ(dc.find(1, sim::SimTime::seconds(30)), nullptr);
  // The expired entry was dropped, not resurrected.
  EXPECT_EQ(dc.find(1, sim::SimTime::zero()), nullptr);
}

TEST(DiscoveryCache, InvalidationCountsOnlyWhenStateDropped) {
  obs::MetricsRegistry reg;
  cache::DiscoveryCache dc;
  dc.set_ttl(sim::SimTime::seconds(30));
  dc.set_metrics(&reg);
  dc.invalidate();  // empty: no-op
  EXPECT_EQ(reg.counter("cache.discovery.invalidations").value, 0u);
  dc.store(1, {4}, sim::SimTime::zero());
  dc.invalidate();
  dc.invalidate();  // already empty again
  EXPECT_EQ(reg.counter("cache.discovery.invalidations").value, 1u);
  EXPECT_EQ(dc.find(1, sim::SimTime::zero()), nullptr);
}

TEST(DiscoveryCache, DisablingDropsState) {
  cache::DiscoveryCache dc;
  dc.set_ttl(sim::SimTime::seconds(30));
  dc.store(1, {4}, sim::SimTime::zero());
  dc.set_ttl(sim::SimTime::zero());
  dc.set_ttl(sim::SimTime::seconds(30));
  EXPECT_EQ(dc.find(1, sim::SimTime::zero()), nullptr);
}

// ------------------------------------------------- directory integration

struct CachedDirectoryFixture : ::testing::Test {
  void SetUp() override {
    for (net::PeerId p = 0; p < 32; ++p) ring.join(p);
    ring.stabilize_all();
    s0 = catalog.add_service("a");
    i0 = catalog.add_instance(make_instance(s0));
    i1 = catalog.add_instance(make_instance(s0));
  }

  registry::ServiceInstance make_instance(registry::ServiceId svc) {
    registry::ServiceInstance inst;
    inst.service = svc;
    inst.qout = range_vec(10, 20);
    inst.resources = qos::ResourceVector{10, 10};
    inst.bandwidth_kbps = 100;
    return inst;
  }

  overlay::ChordRing ring{1, 3};
  registry::ServiceCatalog catalog;
  registry::ServiceId s0 = 0;
  registry::InstanceId i0 = 0, i1 = 0;
};

TEST_F(CachedDirectoryFixture, HitServesLastLookupWithZeroCost) {
  registry::ServiceDirectory dir(1, ring, catalog);
  dir.set_cache_ttl(sim::SimTime::seconds(30));
  obs::MetricsRegistry reg;
  dir.set_metrics(&reg);
  dir.publish_all();
  net::NetworkModel net(1, net::ProbeClock(sim::SimTime::seconds(30)));

  const auto first = test::discover(dir, s0, 5, &net, sim::SimTime::zero());
  const auto hit = test::discover(dir, s0, 5, &net, sim::SimTime::seconds(10));
  EXPECT_EQ(hit.instances, first.instances);
  EXPECT_EQ(hit.hops, 0);
  EXPECT_EQ(hit.latency, sim::SimTime::zero());
  // The overlay was consulted exactly once; the hit recorded no lookup.
  EXPECT_EQ(reg.counter("directory.lookups").value, 1u);
  EXPECT_EQ(reg.counter("cache.discovery.hits").value, 1u);
  EXPECT_EQ(reg.counter("cache.discovery.misses").value, 1u);
}

TEST_F(CachedDirectoryFixture, EntryExpiresAfterTtl) {
  registry::ServiceDirectory dir(1, ring, catalog);
  dir.set_cache_ttl(sim::SimTime::seconds(30));
  obs::MetricsRegistry reg;
  dir.set_metrics(&reg);
  dir.publish_all();

  const auto first = test::discover(dir, s0, 5, nullptr, sim::SimTime::zero());
  const auto again = test::discover(dir, s0, 5, nullptr, sim::SimTime::minutes(5));
  EXPECT_EQ(again.instances, first.instances);  // re-looked-up, same answer
  EXPECT_EQ(reg.counter("cache.discovery.misses").value, 2u);
  EXPECT_EQ(reg.counter("directory.lookups").value, 2u);
}

TEST_F(CachedDirectoryFixture, RepublishAndPublishInvalidate) {
  registry::ServiceDirectory dir(1, ring, catalog);
  dir.set_cache_ttl(sim::SimTime::minutes(10));
  obs::MetricsRegistry reg;
  dir.set_metrics(&reg);
  dir.publish_all();

  (void)test::discover(dir, s0, 5, nullptr, sim::SimTime::zero());
  dir.publish_all();  // the periodic republish: one invalidation, not N
  EXPECT_EQ(reg.counter("cache.discovery.invalidations").value, 1u);

  // After a single publish (a replication clone) the next discover must see
  // the new instance immediately — within the TTL — because the
  // registration change dropped the cache.
  (void)test::discover(dir, s0, 5, nullptr, sim::SimTime::seconds(1));
  const registry::InstanceId i2 = catalog.add_instance(make_instance(s0));
  dir.publish(i2);
  const auto d = test::discover(dir, s0, 5, nullptr, sim::SimTime::seconds(2));
  EXPECT_EQ(d.instances, (std::vector<registry::InstanceId>{i0, i1, i2}));
  EXPECT_EQ(reg.counter("cache.discovery.invalidations").value, 2u);
}

TEST_F(CachedDirectoryFixture, PublishInvalidatesOnlyItsOwnService) {
  // The hit-rate regression pinning scoped invalidation: a single-service
  // publish must not evict other services' warm entries (it used to drop
  // the whole cache, costing every service a re-route).
  const registry::ServiceId s1 = catalog.add_service("b");
  const registry::InstanceId j0 = catalog.add_instance(make_instance(s1));
  registry::ServiceDirectory dir(1, ring, catalog);
  dir.set_cache_ttl(sim::SimTime::minutes(10));
  obs::MetricsRegistry reg;
  dir.set_metrics(&reg);
  dir.publish_all();

  (void)test::discover(dir, s0, 5, nullptr, sim::SimTime::zero());
  (void)test::discover(dir, s1, 5, nullptr, sim::SimTime::zero());
  EXPECT_EQ(reg.counter("cache.discovery.misses").value, 2u);

  // Registration churn on s0 only: s1's entry stays warm.
  dir.publish(i1);
  const auto warm = test::discover(dir, s1, 5, nullptr, sim::SimTime::seconds(1));
  EXPECT_EQ(warm.instances, (std::vector<registry::InstanceId>{j0}));
  EXPECT_EQ(warm.hops, 0);
  EXPECT_EQ(reg.counter("cache.discovery.hits").value, 1u);
  EXPECT_EQ(reg.counter("directory.lookups").value, 2u);  // no re-route of s1

  // s0's entry did drop: its next discover routes again and sees i1 back.
  const auto cold = test::discover(dir, s0, 5, nullptr, sim::SimTime::seconds(2));
  EXPECT_EQ(cold.instances, (std::vector<registry::InstanceId>{i0, i1}));
  EXPECT_EQ(reg.counter("cache.discovery.misses").value, 3u);
  EXPECT_EQ(reg.counter("directory.lookups").value, 3u);
}

TEST_F(CachedDirectoryFixture, DisabledCacheRegistersNoCacheMetrics) {
  registry::ServiceDirectory dir(1, ring, catalog);
  obs::MetricsRegistry reg;
  dir.set_metrics(&reg);  // TTL off: cache.* names must not appear
  dir.publish_all();
  (void)test::discover(dir, s0, 5);
  (void)test::discover(dir, s0, 5);
  EXPECT_EQ(reg.counters().count("cache.discovery.hits"), 0u);
  EXPECT_EQ(reg.counters().count("cache.discovery.misses"), 0u);
  EXPECT_EQ(reg.counter("directory.lookups").value, 2u);
}

TEST_F(CachedDirectoryFixture, ReplicaPublishInvalidatesCachedDiscovery) {
  registry::ServiceDirectory dir(1, ring, catalog);
  dir.set_cache_ttl(sim::SimTime::minutes(10));
  obs::MetricsRegistry reg;
  dir.set_metrics(&reg);
  dir.publish_all();

  // A minimal replication setup over the same directory: one provider,
  // pressure gate off so pure demand trips the clone.
  registry::PlacementMap placement;
  net::PeerTable peers(qos::ResourceSchema::paper(), net::ProbeClock());
  net::NetworkModel net(1, net::ProbeClock());
  std::vector<net::PeerId> pid;
  for (int p = 0; p < 16; ++p) {
    pid.push_back(peers.add_peer(qos::ResourceVector{500, 500},
                                 sim::SimTime::minutes(-100)));
  }
  placement.add_provider(i0, pid[0]);
  replica::ReplicaConfig cfg;
  cfg.enabled = true;
  cfg.threshold = 2;
  cfg.cooldown = sim::SimTime::minutes(1);
  cfg.min_pool_pressure = 0;
  replica::ReplicaManager mgr(7, cfg, catalog, placement, dir, peers, net,
                              qos::TupleWeights::uniform(2),
                              qos::ResourceSchema::paper());

  (void)test::discover(dir, s0, 5, nullptr, sim::SimTime::zero());
  (void)test::discover(dir, s0, 5, nullptr, sim::SimTime::seconds(1));
  EXPECT_EQ(reg.counter("cache.discovery.hits").value, 1u);

  // The replica lands mid-TTL; its publish must drop the cached candidate
  // list exactly like any other registration change...
  const registry::InstanceId insts[] = {i0};
  mgr.on_selection_failure(insts, sim::SimTime::seconds(2));
  ASSERT_EQ(mgr.stats().created, 1u);
  EXPECT_EQ(reg.counter("cache.discovery.invalidations").value, 1u);

  // ...so the next discover routes through the overlay again instead of
  // serving the pre-replica state for the rest of the TTL.
  (void)test::discover(dir, s0, 5, nullptr, sim::SimTime::seconds(3));
  EXPECT_EQ(reg.counter("cache.discovery.misses").value, 2u);
  EXPECT_EQ(reg.counter("directory.lookups").value, 2u);

  // Retirement narrows the pool: the cache drops again.
  (void)test::discover(dir, s0, 5, nullptr, sim::SimTime::seconds(4));
  mgr.sweep(sim::SimTime::minutes(30));
  ASSERT_EQ(mgr.stats().retired, 1u);
  EXPECT_EQ(reg.counter("cache.discovery.invalidations").value, 2u);
}

// ------------------------------------------------ grid-level transparency

harness::GridConfig grid_config(std::uint64_t seed,
                                harness::AlgorithmKind kind) {
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
  c.algorithm = kind;
  c.observe = true;
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

/// Drops the `cache.*` rows — the only lines a cached run may legitimately
/// add to the metrics export.
std::string strip_cache_rows(const std::string& csv) {
  std::istringstream in(csv);
  std::string out, line;
  while (std::getline(in, line)) {
    const auto comma = line.find(',');
    if (comma != std::string::npos &&
        line.compare(comma + 1, 6, "cache.") == 0) {
      continue;
    }
    out += line;
    out += '\n';
  }
  return out;
}

class CacheTransparency
    : public ::testing::TestWithParam<harness::AlgorithmKind> {};

TEST_P(CacheTransparency, GridRunsBitIdenticalCachesOnVsOff) {
  for (const std::uint64_t seed : {11u, 23u, 37u}) {
    auto on = grid_config(seed, GetParam());
    auto off = on;
    off.compose_caches = false;
    const auto a = run_grid(on);
    const auto b = run_grid(off);

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
    // Exported artifacts byte-identical, modulo the cache.* counter rows
    // the cached run adds.
    EXPECT_EQ(a.trace, b.trace) << "seed " << seed;
    EXPECT_EQ(strip_cache_rows(a.metrics_csv), b.metrics_csv) << "seed "
                                                              << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Algorithms, CacheTransparency,
                         ::testing::Values(harness::AlgorithmKind::kQsa,
                                           harness::AlgorithmKind::kRandom,
                                           harness::AlgorithmKind::kFixed),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

// ------------------------------------------- grid-level discovery cache

core::ServiceRequest first_app_request(harness::GridSimulation& grid) {
  const auto& app = grid.apps().apps()[0];
  core::ServiceRequest req;
  req.requester = grid.peers().alive_ids()[0];
  req.abstract_path = app.path;
  req.requirement =
      workload::requirement_for(workload::QosLevel::kLow, grid.universe());
  req.session_duration = sim::SimTime::minutes(5);
  return req;
}

TEST(GridDiscoveryCache, SecondRequestServedFromCache) {
  auto cfg = grid_config(11, harness::AlgorithmKind::kQsa);
  cfg.discovery_cache_ttl = sim::SimTime::minutes(10);
  harness::GridSimulation grid(cfg);
  const auto req = first_app_request(grid);
  const auto first = grid.submit_request(req);
  ASSERT_TRUE(first.ok());
  const auto second = grid.submit_request(req);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.lookup_hops, 0);
  EXPECT_EQ(second.setup_latency, sim::SimTime::zero());
  EXPECT_EQ(second.instances, first.instances);
  const auto path_len = req.abstract_path.size();
  EXPECT_EQ(grid.metrics()->counter("cache.discovery.misses").value, path_len);
  EXPECT_EQ(grid.metrics()->counter("cache.discovery.hits").value, path_len);
}

TEST(GridDiscoveryCache, TtlExpiresInSimTime) {
  auto cfg = grid_config(11, harness::AlgorithmKind::kQsa);
  cfg.discovery_cache_ttl = sim::SimTime::seconds(30);
  harness::GridSimulation grid(cfg);
  const auto req = first_app_request(grid);
  ASSERT_TRUE(grid.submit_request(req).ok());
  // Advance the simulated clock past the TTL, then re-request: every
  // lookup must route again.
  grid.simulator().schedule_at(sim::SimTime::minutes(1), [] {});
  grid.simulator().run_until(sim::SimTime::minutes(1));
  ASSERT_TRUE(grid.submit_request(req).ok());
  EXPECT_EQ(grid.metrics()->counter("cache.discovery.misses").value,
            2 * req.abstract_path.size());
  EXPECT_EQ(grid.metrics()->counter("cache.discovery.hits").value, 0u);
}

TEST(GridDiscoveryCache, PeerDepartureInvalidates) {
  auto cfg = grid_config(11, harness::AlgorithmKind::kQsa);
  cfg.discovery_cache_ttl = sim::SimTime::minutes(10);
  harness::GridSimulation grid(cfg);
  const auto req = first_app_request(grid);
  ASSERT_TRUE(grid.submit_request(req).ok());
  grid.depart_peer(grid.peers().alive_ids()[7]);
  EXPECT_GE(grid.metrics()->counter("cache.discovery.invalidations").value,
            1u);
  ASSERT_TRUE(grid.submit_request(req).ok());
  EXPECT_EQ(grid.metrics()->counter("cache.discovery.hits").value, 0u);
}

TEST(GridDiscoveryCache, StalenessCaughtAtSelectionNotByCache) {
  auto cfg = grid_config(11, harness::AlgorithmKind::kQsa);
  cfg.discovery_cache_ttl = sim::SimTime::minutes(10);
  harness::GridSimulation grid(cfg);
  const auto req = first_app_request(grid);
  const auto first = grid.submit_request(req);
  ASSERT_TRUE(first.ok());
  // Strip every provider of the first service's instances *without telling
  // the directory* — staleness the invalidation hooks cannot see. The
  // cached discovery still serves the instance list (zero hops); the bogus
  // plan is then rejected by selection, exactly where the paper's
  // soft-state model catches stale knowledge.
  for (const auto inst : grid.catalog().instances_of(req.abstract_path[0])) {
    const auto providers = grid.placement().providers(inst);
    const std::vector<net::PeerId> copy(providers.begin(), providers.end());
    for (const auto p : copy) grid.placement().remove_provider(inst, p);
  }
  const auto stale = grid.submit_request(req);
  EXPECT_FALSE(stale.ok());
  EXPECT_EQ(stale.failure, core::FailureCause::kSelection);
  EXPECT_EQ(stale.lookup_hops, 0);  // served from the (stale) cache
}

}  // namespace
}  // namespace qsa
