#include <gtest/gtest.h>

#include <set>

#include "directory_lookup.hpp"

#include "qsa/overlay/chord_ring.hpp"
#include "qsa/qos/satisfy.hpp"
#include "qsa/qos/translator.hpp"
#include "qsa/registry/catalog.hpp"
#include "qsa/registry/directory.hpp"
#include "qsa/registry/placement.hpp"
#include "qsa/replica/manager.hpp"
#include "qsa/util/interner.hpp"

namespace qsa::registry {
namespace {

// --------------------------------------------------------- ServiceCatalog

ServiceInstance make_instance(ServiceId service, double cpu = 10) {
  ServiceInstance inst;
  inst.service = service;
  inst.resources = qos::ResourceVector{cpu, cpu};
  inst.bandwidth_kbps = 100;
  return inst;
}

TEST(ServiceCatalog, AddServiceAssignsIds) {
  ServiceCatalog cat;
  EXPECT_EQ(cat.add_service("a"), 0u);
  EXPECT_EQ(cat.add_service("b"), 1u);
  EXPECT_EQ(cat.service(1).name, "b");
  EXPECT_EQ(cat.service_count(), 2u);
}

TEST(ServiceCatalog, AddInstanceIndexesByService) {
  ServiceCatalog cat;
  const auto s0 = cat.add_service("a");
  const auto s1 = cat.add_service("b");
  const auto i0 = cat.add_instance(make_instance(s0));
  const auto i1 = cat.add_instance(make_instance(s1));
  const auto i2 = cat.add_instance(make_instance(s0));
  EXPECT_EQ(cat.instance_count(), 3u);
  const auto of0 = cat.instances_of(s0);
  EXPECT_EQ(std::vector<InstanceId>(of0.begin(), of0.end()),
            (std::vector<InstanceId>{i0, i2}));
  const auto of1 = cat.instances_of(s1);
  EXPECT_EQ(std::vector<InstanceId>(of1.begin(), of1.end()),
            (std::vector<InstanceId>{i1}));
}

TEST(ServiceCatalog, InstanceIdsAreSelfReferential) {
  ServiceCatalog cat;
  const auto s = cat.add_service("a");
  const auto id = cat.add_instance(make_instance(s));
  EXPECT_EQ(cat.instance(id).id, id);
  EXPECT_EQ(cat.instance(id).service, s);
}

// --------------------------------------------------- generate_instances

struct GeneratedCatalog {
  util::Interner interner;
  QosUniverse universe = QosUniverse::standard(interner);
  ServiceCatalog catalog;
  qos::AnalyticTranslator translator{
      universe.level, qos::AnalyticTranslator::paper_coefficients()};
};

TEST(GenerateInstances, CountWithinPaperBounds) {
  GeneratedCatalog g;
  for (int s = 0; s < 20; ++s) {
    const auto sid = g.catalog.add_service("svc");
    generate_instances(g.catalog, sid, static_cast<std::uint64_t>(s + 1),
                       g.universe, g.translator, false);
    const auto n = g.catalog.instances_of(sid).size();
    EXPECT_GE(n, 10u);
    EXPECT_LE(n, 20u);
  }
}

TEST(GenerateInstances, SourceInstancesHaveEmptyQin) {
  GeneratedCatalog g;
  const auto sid = g.catalog.add_service("src");
  generate_instances(g.catalog, sid, /*seed=*/1, g.universe,
                     g.translator, /*is_source=*/true);
  for (const auto id : g.catalog.instances_of(sid)) {
    EXPECT_TRUE(g.catalog.instance(id).qin.empty());
    EXPECT_FALSE(g.catalog.instance(id).qout.empty());
  }
}

TEST(GenerateInstances, NonSourceInstancesHaveLevelAcceptance) {
  GeneratedCatalog g;
  const auto sid = g.catalog.add_service("mid");
  generate_instances(g.catalog, sid, /*seed=*/1, g.universe,
                     g.translator, false);
  for (const auto id : g.catalog.instances_of(sid)) {
    const auto& inst = g.catalog.instance(id);
    ASSERT_TRUE(inst.qin.get(g.universe.level).has_value());
    EXPECT_TRUE(inst.qin.get(g.universe.level)->is_range());
    ASSERT_TRUE(inst.qout.get(g.universe.level).has_value());
    ASSERT_TRUE(inst.qout.get(g.universe.format).has_value());
  }
}

TEST(GenerateInstances, ResourcesAndBandwidthPositive) {
  GeneratedCatalog g;
  const auto sid = g.catalog.add_service("svc");
  generate_instances(g.catalog, sid, /*seed=*/1, g.universe,
                     g.translator, false);
  for (const auto id : g.catalog.instances_of(sid)) {
    const auto& inst = g.catalog.instance(id);
    for (std::size_t k = 0; k < inst.resources.size(); ++k) {
      EXPECT_GT(inst.resources[k], 0);
    }
    EXPECT_GT(inst.bandwidth_kbps, 0);
  }
}

TEST(GenerateInstances, DeterministicPerSeed) {
  GeneratedCatalog g1, g2;
  const auto s1 = g1.catalog.add_service("svc");
  const auto s2 = g2.catalog.add_service("svc");
  generate_instances(g1.catalog, s1, 77, g1.universe, g1.translator, false);
  generate_instances(g2.catalog, s2, 77, g2.universe, g2.translator, false);
  ASSERT_EQ(g1.catalog.instance_count(), g2.catalog.instance_count());
  for (InstanceId i = 0; i < g1.catalog.instance_count(); ++i) {
    EXPECT_EQ(g1.catalog.instance(i).qout, g2.catalog.instance(i).qout);
    EXPECT_EQ(g1.catalog.instance(i).qin, g2.catalog.instance(i).qin);
  }
}

TEST(GenerateInstances, ConsecutiveLayersOftenComposable) {
  // The generated universe must keep QoS-consistent paths plentiful, or
  // composition failures would dominate the paper's success metric.
  GeneratedCatalog g;
  const auto a = g.catalog.add_service("a");
  const auto b = g.catalog.add_service("b");
  generate_instances(g.catalog, a, 1, g.universe, g.translator, false);
  generate_instances(g.catalog, b, 1, g.universe, g.translator, false);
  int consistent_pairs = 0;
  for (const auto pa : g.catalog.instances_of(a)) {
    for (const auto pb : g.catalog.instances_of(b)) {
      consistent_pairs += qos::satisfies(g.catalog.instance(pa).qout,
                                         g.catalog.instance(pb).qin);
    }
  }
  EXPECT_GT(consistent_pairs, 10);
}

// ------------------------------------------------------------ PlacementMap

TEST(PlacementMap, AddAndQueryProviders) {
  PlacementMap pm;
  pm.add_provider(1, 10);
  pm.add_provider(1, 11);
  pm.add_provider(2, 10);
  EXPECT_EQ(pm.provider_count(1), 2u);
  EXPECT_EQ(pm.provider_count(2), 1u);
  EXPECT_EQ(pm.provider_count(3), 0u);
  const auto by10 = pm.provided_by(10);
  EXPECT_EQ(std::set<InstanceId>(by10.begin(), by10.end()),
            (std::set<InstanceId>{1, 2}));
}

TEST(PlacementMap, AddIsIdempotent) {
  PlacementMap pm;
  pm.add_provider(1, 10);
  pm.add_provider(1, 10);
  EXPECT_EQ(pm.provider_count(1), 1u);
  EXPECT_EQ(pm.provided_by(10).size(), 1u);
}

TEST(PlacementMap, RemoveProvider) {
  PlacementMap pm;
  pm.add_provider(1, 10);
  pm.add_provider(1, 11);
  pm.remove_provider(1, 10);
  EXPECT_EQ(pm.provider_count(1), 1u);
  EXPECT_EQ(pm.providers(1)[0], 11u);
  EXPECT_TRUE(pm.provided_by(10).empty());
  pm.remove_provider(1, 99);  // absent: no-op
  EXPECT_EQ(pm.provider_count(1), 1u);
}

TEST(PlacementMap, RemovePeerClearsBothIndexes) {
  PlacementMap pm;
  pm.add_provider(1, 10);
  pm.add_provider(2, 10);
  pm.add_provider(1, 11);
  const auto provided = pm.remove_peer(10);
  EXPECT_EQ(std::set<InstanceId>(provided.begin(), provided.end()),
            (std::set<InstanceId>{1, 2}));
  EXPECT_EQ(pm.provider_count(1), 1u);
  EXPECT_EQ(pm.provider_count(2), 0u);
  EXPECT_TRUE(pm.provided_by(10).empty());
}

TEST(PlacementMap, RemoveUnknownPeerReturnsEmpty) {
  PlacementMap pm;
  EXPECT_TRUE(pm.remove_peer(42).empty());
}

TEST(PlacementMap, ReplicaHostDepartureUnpublishesItsCopies) {
  // The churn path for replicated instances: the harness removes the
  // departed peer from the placement map wholesale and then notifies the
  // ReplicaManager, which drops the host's replica records so the clones
  // stop counting against max_replicas.
  overlay::ChordRing ring(1, 3);
  ServiceCatalog catalog;
  PlacementMap pm;
  net::PeerTable peers(qos::ResourceSchema::paper(), net::ProbeClock());
  net::NetworkModel net(1, net::ProbeClock());
  std::vector<net::PeerId> ids;
  for (int p = 0; p < 24; ++p) {
    ids.push_back(peers.add_peer(qos::ResourceVector{500, 500},
                                 sim::SimTime::minutes(-100)));
    ring.join(ids.back());
  }
  ring.stabilize_all();
  const auto s0 = catalog.add_service("a");
  const auto i0 = catalog.add_instance(make_instance(s0));
  pm.add_provider(i0, ids[0]);
  ServiceDirectory dir(1, ring, catalog);
  dir.publish_all();

  replica::ReplicaConfig cfg;
  cfg.enabled = true;
  cfg.threshold = 2;
  cfg.cooldown = sim::SimTime::minutes(1);
  cfg.min_pool_pressure = 0;
  cfg.max_replicas = 1;
  replica::ReplicaManager mgr(7, cfg, catalog, pm, dir, peers, net,
                              qos::TupleWeights::uniform(2),
                              qos::ResourceSchema::paper());
  const InstanceId insts[] = {i0};
  mgr.on_selection_failure(insts, sim::SimTime::minutes(1));
  ASSERT_EQ(mgr.active(), 1u);
  const net::PeerId host = mgr.replicas()[0].host;
  ASSERT_EQ(pm.provider_count(i0), 2u);

  const auto orphaned = pm.remove_peer(host);
  mgr.peer_departed(host);
  EXPECT_EQ(orphaned, (std::vector<InstanceId>{i0}));
  EXPECT_EQ(pm.provider_count(i0), 1u);
  EXPECT_EQ(pm.providers(i0)[0], ids[0]);
  EXPECT_TRUE(pm.provided_by(host).empty());
  EXPECT_EQ(mgr.active(), 0u);
  EXPECT_EQ(mgr.stats().host_departures, 1u);
}

// --------------------------------------------------------- ServiceDirectory

struct DirectoryFixture : ::testing::Test {
  void SetUp() override {
    for (net::PeerId p = 0; p < 32; ++p) ring.join(p);
    ring.stabilize_all();
    s0 = catalog.add_service("a");
    s1 = catalog.add_service("b");
    i0 = catalog.add_instance(make_instance(s0));
    i1 = catalog.add_instance(make_instance(s0));
    i2 = catalog.add_instance(make_instance(s1));
  }

  overlay::ChordRing ring{1, 3};
  ServiceCatalog catalog;
  ServiceId s0 = 0, s1 = 0;
  InstanceId i0 = 0, i1 = 0, i2 = 0;
};

TEST_F(DirectoryFixture, PublishAndDiscover) {
  ServiceDirectory dir(1, ring, catalog);
  dir.publish_all();
  const auto d0 = test::discover(dir, s0, 5);
  EXPECT_EQ(std::set<InstanceId>(d0.instances.begin(), d0.instances.end()),
            (std::set<InstanceId>{i0, i1}));
  const auto d1 = test::discover(dir, s1, 5);
  EXPECT_EQ(d1.instances, (std::vector<InstanceId>{i2}));
}

TEST_F(DirectoryFixture, DiscoverUnpublishedIsEmpty) {
  ServiceDirectory dir(1, ring, catalog);
  EXPECT_TRUE(test::discover(dir, s0, 3).instances.empty());
}

TEST_F(DirectoryFixture, DiscoveryPaysChordHops) {
  ServiceDirectory dir(1, ring, catalog);
  dir.publish_all();
  net::NetworkModel net(1, net::ProbeClock(sim::SimTime::seconds(30)));
  // Over many vantage points, at least some lookups need routing hops.
  int total_hops = 0;
  for (net::PeerId p = 0; p < 32; ++p) {
    total_hops += test::discover(dir, s0, p, &net).hops;
  }
  EXPECT_GT(total_hops, 0);
}

TEST_F(DirectoryFixture, RepublishHealsAfterFailures) {
  ServiceDirectory dir(1, ring, catalog);
  dir.publish_all();
  // Fail a third of the ring without stabilizing: some registrations may
  // shift or be lost.
  for (net::PeerId p = 0; p < 10; ++p) ring.fail(p);
  ring.stabilize_all();
  dir.publish_all();  // the periodic republish
  const auto d = test::discover(dir, s0, 20);
  EXPECT_EQ(std::set<InstanceId>(d.instances.begin(), d.instances.end()),
            (std::set<InstanceId>{i0, i1}));
}

}  // namespace
}  // namespace qsa::registry
