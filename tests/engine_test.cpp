// The sim-free serving facade (qsa::engine): parity between the
// simulator-driven adapter and a standalone engine over the same world,
// the allocation-free steady state of a warmed serve_into loop, and the
// ManualClock / discovery-cache TTL seam.
#include <gtest/gtest.h>

#include <memory>
#include <type_traits>
#include <vector>

#include "count_allocations.hpp"
#include "qsa/engine/clock.hpp"
#include "qsa/engine/engine.hpp"
#include "qsa/engine/serve.hpp"
#include "qsa/harness/config.hpp"
#include "qsa/harness/grid.hpp"
#include "qsa/probe/resolution.hpp"
#include "qsa/registry/directory.hpp"
#include "qsa/util/rng.hpp"
#include "qsa/workload/apps.hpp"

namespace qsa::engine {
namespace {

using sim::SimTime;

harness::GridConfig small_config(std::uint64_t seed) {
  harness::GridConfig c;
  c.seed = seed;
  c.peers = 200;
  c.min_providers = 10;
  c.max_providers = 20;
  c.apps.applications = 5;
  return c;
}

/// A standalone request pool: the simulator workload's fire() shape (app,
/// QoS level, requester, duration) on an independent RNG stream.
std::vector<core::ServiceRequest> make_pool(harness::GridSimulation& grid,
                                            std::uint64_t seed,
                                            std::size_t shard,
                                            std::size_t count) {
  util::Rng rng(util::derive_seed(seed, "serve-requests", shard));
  const auto& alive = grid.peers().alive_ids();
  const auto apps = grid.apps().apps();
  std::vector<core::ServiceRequest> pool;
  pool.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const workload::Application& app = apps[rng.index(apps.size())];
    const auto level = static_cast<workload::QosLevel>(rng.index(3));
    core::ServiceRequest req;
    req.requester = alive[rng.index(alive.size())];
    req.abstract_path = app.path;
    req.requirement = workload::requirement_for(level, grid.universe());
    req.session_duration = SimTime::minutes(rng.uniform(1.0, 60.0));
    pool.push_back(std::move(req));
  }
  return pool;
}

/// A standalone serving shard over a grid's shared world: its own directory
/// view (keys seeded with the grid's "directory" label so they match what
/// bootstrap published into the ring), neighbor tables, ManualClock, and
/// engine.
struct Shard {
  Shard(harness::GridSimulation& grid, const EngineConfig& ec)
      : directory(util::derive_seed(grid.config().seed, "directory", 0),
                  grid.ring(), grid.catalog()),
        neighbors(grid.config().probe_budget, grid.config().neighbor_ttl) {
    EngineDeps deps;
    deps.catalog = &grid.catalog();
    deps.placement = &grid.placement();
    deps.directory = &directory;
    deps.peers = &grid.peers();
    deps.net = &grid.network();
    deps.neighbors = &neighbors;
    deps.clock = &clock;
    engine = std::make_unique<ServingEngine>(ec, deps);
  }

  registry::ServiceDirectory directory;
  probe::NeighborResolution neighbors;
  ManualClock clock;
  std::unique_ptr<ServingEngine> engine;
};

/// Mirrors the grid's EngineConfig so a standalone engine replays the
/// adapter's exact algorithm stream.
EngineConfig grid_engine_config(const harness::GridConfig& cfg) {
  EngineConfig ec;
  ec.seed = cfg.seed;
  ec.algorithm = cfg.algorithm;
  ec.qsa_options = cfg.qsa_options;
  ec.bandwidth_weight = cfg.bandwidth_weight;
  ec.compose_caches = cfg.compose_caches;
  ec.discovery_cache_ttl = cfg.discovery_cache_ttl;
  return ec;
}

void expect_plans_equal(const core::AggregationPlan& a,
                        const core::AggregationPlan& b) {
  EXPECT_EQ(a.failure, b.failure);
  EXPECT_EQ(a.instances, b.instances);
  EXPECT_EQ(a.hosts, b.hosts);
  EXPECT_DOUBLE_EQ(a.composition_cost, b.composition_cost);
  EXPECT_EQ(a.lookup_hops, b.lookup_hops);
  EXPECT_EQ(a.setup_latency, b.setup_latency);
  EXPECT_EQ(a.random_fallback_hops, b.random_fallback_hops);
}

// ------------------------------------------------------- sim/engine parity

TEST(ServingEngine, StandaloneServeMatchesSimAdapter) {
  // Two identically-seeded grids build byte-identical worlds. Routing one
  // request stream through grid A's simulator adapter (submit_request) and
  // the same stream through a standalone engine over grid B's world must
  // produce field-identical plans: the facade has no hidden dependence on
  // the simulator.
  const auto cfg = small_config(7);
  harness::GridSimulation grid_a(cfg);
  harness::GridSimulation grid_b(cfg);
  Shard shard(grid_b, grid_engine_config(cfg));

  const auto pool = make_pool(grid_a, cfg.seed, 0, 64);
  int succeeded = 0;
  for (const auto& req : pool) {
    const auto sim_plan = grid_a.submit_request(req);
    const auto eng_plan = shard.engine->aggregate(req, shard.clock.now());
    expect_plans_equal(sim_plan, eng_plan);
    succeeded += sim_plan.ok();
  }
  EXPECT_GT(succeeded, 0) << "parity over failures only is vacuous";
}

TEST(ServingEngine, ServeIntoMatchesServeAndReusesBuffers) {
  const auto cfg = small_config(11);
  harness::GridSimulation grid(cfg);
  Shard a(grid, grid_engine_config(cfg));
  Shard b(grid, grid_engine_config(cfg));

  core::AggregationPlan reused;
  for (const auto& req : make_pool(grid, cfg.seed, 0, 32)) {
    const auto fresh = a.engine->aggregate(req, a.clock.now());
    b.engine->serve_into(req, reused);  // one plan object across all calls
    expect_plans_equal(fresh, reused);
  }
}

// ------------------------------------------------ steady-state allocations

TEST(ServingEngine, WarmFrozenServeIntoAllocatesNothing) {
  // Once every pooled request has been served, a serve_into loop runs out
  // of grow-only scratch, the discovery cache and the neighbor tables. The
  // clock stays frozen, so no probe epoch, neighbor TTL or cached discovery
  // rolls over, and M = 4096 is large enough that no table evicts. With an
  // advancing clock or the paper's M = 100 the loop refills soft state,
  // which does allocate.
  harness::GridConfig cfg;
  cfg.seed = 42;
  cfg.scale(0.05);  // the paper's world at 500 peers
  cfg.probe_budget = 4096;
  harness::GridSimulation grid(cfg);
  auto ec = grid_engine_config(cfg);
  ec.discovery_cache_ttl = SimTime::minutes(10);
  Shard shard(grid, ec);
  const auto pool = make_pool(grid, cfg.seed, 0, 512);

  core::AggregationPlan plan;
  std::size_t next = 0;
  const auto serve_next = [&] {
    shard.engine->serve_into(pool[next], plan);
    next = next + 1 == pool.size() ? 0 : next + 1;
  };
  for (int i = 0; i < 1024; ++i) serve_next();  // warmup: each request twice

  // The counted window holds no EXPECTs: gtest allocates on a failure.
  ServeStats stats;
  const std::uint64_t before = test::allocation_count();
  for (int i = 0; i < 20'000; ++i) {
    serve_next();
    stats.count(plan);
  }
  const std::uint64_t during = test::allocation_count() - before;

  EXPECT_EQ(during, 0u) << "a warm frozen-clock serve_into hit the heap";
  EXPECT_GT(stats.ok, 0u) << "a loop of failures proves nothing";
}

TEST(ServeStats, CountClassifiesAndMergeAdds) {
  core::AggregationPlan plan;
  plan.lookup_hops = 3;
  plan.random_fallback_hops = 1;
  ServeStats s;
  s.count(plan);  // kNone
  plan.failure = core::FailureCause::kDiscovery;
  s.count(plan);
  plan.failure = core::FailureCause::kComposition;
  s.count(plan);
  plan.failure = core::FailureCause::kSelection;
  s.count(plan);
  EXPECT_EQ(s.requests, 4u);
  EXPECT_EQ(s.ok, 1u);
  EXPECT_EQ(s.fail_discovery, 1u);
  EXPECT_EQ(s.fail_composition, 1u);
  EXPECT_EQ(s.fail_selection, 1u);
  EXPECT_EQ(s.lookup_hops, 12u);
  EXPECT_EQ(s.random_fallback_hops, 4u);

  ServeStats merged = s;
  merged.merge(s);
  EXPECT_EQ(merged.requests, 8u);
  EXPECT_EQ(merged.ok, 2u);
  EXPECT_EQ(merged.lookup_hops, 24u);
}

// ------------------------------------------------- ManualClock / TTL seam

TEST(ManualClock, StartsAtZeroAndAdvances) {
  ManualClock clock;
  EXPECT_EQ(clock.now(), SimTime::zero());
  clock.advance(SimTime::seconds(5));
  EXPECT_EQ(clock.now(), SimTime::seconds(5));
  clock.set(SimTime::minutes(1));
  EXPECT_EQ(clock.now(), SimTime::minutes(1));
  clock.advance(SimTime::zero());  // zero advance is a no-op, not an error
  EXPECT_EQ(clock.now(), SimTime::minutes(1));
}

TEST(ServingEngine, ManualClockExpiresDiscoveryCache) {
  const auto cfg = small_config(19);
  harness::GridSimulation grid(cfg);
  auto ec = grid_engine_config(cfg);
  ec.discovery_cache_ttl = SimTime::minutes(5);
  Shard shard(grid, ec);

  // Find a request whose discovery actually routes the ring (and succeeds
  // end to end, so every layer of the path got cached).
  const auto pool = make_pool(grid, cfg.seed, 0, 64);
  const core::ServiceRequest* req = nullptr;
  core::AggregationPlan first;
  for (const auto& candidate : pool) {
    first = shard.engine->aggregate(candidate, shard.clock.now());
    if (first.ok() && first.lookup_hops > 0) {
      req = &candidate;
      break;
    }
  }
  ASSERT_NE(req, nullptr) << "no request exercised ring routing";

  // Within the TTL every lookup is a cache hit: zero ring hops.
  const auto cached = shard.engine->aggregate(*req, shard.clock.now());
  EXPECT_EQ(cached.lookup_hops, 0);
  EXPECT_EQ(cached.failure, first.failure);

  // Past the TTL the engine's clock drives expiry and the ring is routed
  // again.
  shard.clock.advance(SimTime::minutes(6));
  const auto expired = shard.engine->aggregate(*req, shard.clock.now());
  EXPECT_GT(expired.lookup_hops, 0);
}

// ------------------------------------------------------------- surface

TEST(EngineSurface, HarnessAliasesEngineAlgorithmKind) {
  static_assert(
      std::is_same_v<harness::AlgorithmKind, AlgorithmKind>,
      "the harness must reuse the engine's enum, not mirror it");
  EXPECT_EQ(to_string(AlgorithmKind::kQsa), "qsa");
  EXPECT_EQ(to_string(AlgorithmKind::kRandom), "random");
  EXPECT_EQ(to_string(AlgorithmKind::kFixed), "fixed");
}

TEST(EngineSurface, ComposeCacheFollowsConfig) {
  const auto cfg = small_config(23);
  harness::GridSimulation grid(cfg);

  auto ec = grid_engine_config(cfg);
  Shard with_cache(grid, ec);
  EXPECT_NE(with_cache.engine->compose_cache(), nullptr);

  ec.compose_caches = false;
  Shard without_cache(grid, ec);
  EXPECT_EQ(without_cache.engine->compose_cache(), nullptr);
}

}  // namespace
}  // namespace qsa::engine
