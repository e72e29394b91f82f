// CAN overlay: zone tiling, greedy routing, takeover, data survival, and
// parity with the LookupService contract the directory depends on.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "qsa/overlay/can_overlay.hpp"
#include "qsa/overlay/chord_id.hpp"
#include "qsa/util/rng.hpp"

namespace qsa::overlay {
namespace {

CanOverlay make_can(std::size_t nodes, std::uint64_t seed = 1,
                    int replicas = 2) {
  CanOverlay can(seed, replicas);
  for (net::PeerId p = 0; p < nodes; ++p) can.join(p);
  return can;
}

TEST(TorusDist, WrapsAroundSeam) {
  EXPECT_DOUBLE_EQ(torus_dist(0.1, 0.3), 0.2);
  EXPECT_NEAR(torus_dist(0.05, 0.95), 0.1, 1e-12);
  EXPECT_DOUBLE_EQ(torus_dist(0.0, 0.5), 0.5);
  EXPECT_DOUBLE_EQ(torus_dist(0.7, 0.7), 0.0);
}

TEST(CanPointHash, DeterministicAndSpread) {
  const auto a = can_point(1, 42);
  EXPECT_EQ(a, can_point(1, 42));
  const auto b = can_point(1, 43);
  EXPECT_NE(a, b);
  for (double x : a) {
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(CanOverlay, SingleNodeOwnsWholeTorus) {
  auto can = make_can(1);
  EXPECT_EQ(can.size(), 1u);
  const auto zone = can.zone_of(0);
  EXPECT_DOUBLE_EQ(zone.volume(), 1.0);
  EXPECT_EQ(can.owner_of(12345), 0u);
  const auto stats = can.route(999, 0);
  EXPECT_EQ(stats.owner, 0u);
  EXPECT_EQ(stats.hops, 0);
}

TEST(CanOverlay, ZonesAlwaysTileTheTorus) {
  CanOverlay can(7);
  for (net::PeerId p = 0; p < 64; ++p) {
    can.join(p);
    EXPECT_NEAR(can.total_leaf_volume(), 1.0, 1e-12) << "after join " << p;
  }
  for (net::PeerId p = 0; p < 32; ++p) {
    can.fail(p);
    EXPECT_NEAR(can.total_leaf_volume(), 1.0, 1e-12) << "after fail " << p;
  }
}

TEST(CanOverlay, ZonesAreDisjoint) {
  auto can = make_can(40);
  util::Rng rng(5);
  // Every random point lies in exactly one peer's zone.
  for (int i = 0; i < 300; ++i) {
    CanPoint p{rng.uniform(), rng.uniform()};
    int owners = 0;
    for (net::PeerId peer = 0; peer < 40; ++peer) {
      owners += can.zone_of(peer).contains(p);
    }
    EXPECT_EQ(owners, 1);
  }
}

TEST(CanOverlay, RouteFindsOwner) {
  auto can = make_can(64);
  util::Rng rng(9);
  for (int i = 0; i < 200; ++i) {
    const Key key = rng();
    const net::PeerId oracle = can.owner_of(key);
    for (net::PeerId from : {net::PeerId{0}, net::PeerId{17}, net::PeerId{63}}) {
      const auto stats = can.route(key, from);
      EXPECT_EQ(stats.owner, oracle) << "key=" << key << " from=" << from;
    }
  }
}

TEST(CanOverlay, RouteHopsGrowAsSqrtN) {
  util::Rng rng(10);
  double avg_small = 0, avg_large = 0;
  {
    auto can = make_can(64);
    for (int i = 0; i < 400; ++i) {
      avg_small += can.route(rng(), static_cast<net::PeerId>(rng.index(64))).hops;
    }
    avg_small /= 400;
  }
  {
    auto can = make_can(1024);
    for (int i = 0; i < 400; ++i) {
      avg_large +=
          can.route(rng(), static_cast<net::PeerId>(rng.index(1024))).hops;
    }
    avg_large /= 400;
  }
  // d=2: expected ~ sqrt(n)/2-ish; 16x more nodes ~ 4x more hops.
  EXPECT_GT(avg_large, 1.5 * avg_small);
  EXPECT_LT(avg_large, 10 * avg_small);
  EXPECT_LT(avg_large, 2.5 * std::sqrt(1024.0));
}

TEST(CanOverlay, RouteAccumulatesLatency) {
  auto can = make_can(64);
  net::NetworkModel net(5, net::ProbeClock(sim::SimTime::seconds(30)));
  util::Rng rng(11);
  bool some = false;
  for (int i = 0; i < 50; ++i) {
    const auto stats = can.route(rng(), 3, &net);
    if (stats.hops > 0 && stats.latency > sim::SimTime::zero()) some = true;
  }
  EXPECT_TRUE(some);
}

TEST(CanOverlay, InsertGetErase) {
  auto can = make_can(32);
  const Key key = data_key(1, "svc");
  can.insert(key, 7);
  can.insert(key, 8);
  EXPECT_EQ(can.get(key), (std::vector<std::uint64_t>{7, 8}));
  can.erase(key, 7);
  EXPECT_EQ(can.get(key), (std::vector<std::uint64_t>{8}));
  can.erase(key, 8);
  EXPECT_TRUE(can.get(key).empty());
  EXPECT_TRUE(can.get(data_key(1, "missing")).empty());
}

TEST(CanOverlay, JoinMovesKeysWithZone) {
  CanOverlay can(3, 1);  // replicas=1 so ownership movement is observable
  for (net::PeerId p = 0; p < 8; ++p) can.join(p);
  util::Rng rng(16);
  std::vector<std::pair<Key, std::uint64_t>> data;
  for (int i = 0; i < 40; ++i) {
    data.emplace_back(rng(), static_cast<std::uint64_t>(i));
    can.insert(data.back().first, data.back().second);
  }
  for (net::PeerId p = 8; p < 40; ++p) can.join(p);
  for (const auto& [key, value] : data) {
    const auto values = can.get(key);
    EXPECT_TRUE(std::find(values.begin(), values.end(), value) != values.end())
        << "value lost after joins split zones";
  }
}

TEST(CanOverlay, SingleFailureSurvivedByReplicas) {
  auto can = make_can(32, /*seed=*/2, /*replicas=*/3);
  util::Rng rng(13);
  std::vector<Key> keys;
  for (int i = 0; i < 64; ++i) {
    keys.push_back(rng());
    can.insert(keys.back(), static_cast<std::uint64_t>(i));
  }
  can.fail(7);
  for (int i = 0; i < 64; ++i) {
    const auto values = can.get(keys[static_cast<std::size_t>(i)]);
    EXPECT_TRUE(std::find(values.begin(), values.end(),
                          static_cast<std::uint64_t>(i)) != values.end())
        << "key " << i << " lost after one abrupt failure";
  }
}

TEST(CanOverlay, LeaveUnknownPeerIsNoop) {
  auto can = make_can(4);
  can.fail(99);
  EXPECT_EQ(can.size(), 4u);
}

TEST(CanOverlay, LastNodeLeavingEmptiesOverlay) {
  auto can = make_can(1);
  can.fail(0);
  EXPECT_EQ(can.size(), 0u);
  EXPECT_TRUE(can.get(42).empty());
  // A fresh join bootstraps again.
  can.join(5);
  EXPECT_EQ(can.owner_of(42), 5u);
}

// Property sweep mirroring the Chord churn property: random join/fail
// sequences keep routing consistent with the oracle owner.
class CanChurnProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CanChurnProperty, RoutingStaysCorrectUnderChurn) {
  util::Rng rng(util::derive_seed(GetParam(), "can-churn", 0));
  CanOverlay can(GetParam(), 3);
  std::set<net::PeerId> members;
  net::PeerId next = 0;
  for (int i = 0; i < 40; ++i) {
    can.join(next);
    members.insert(next++);
  }
  for (int step = 0; step < 150; ++step) {
    const auto action = rng.index(3);
    if (action == 0 || members.size() < 8) {
      can.join(next);
      members.insert(next++);
    } else {
      auto it = members.begin();
      std::advance(it, static_cast<long>(rng.index(members.size())));
      can.fail(*it);
      members.erase(it);
    }
    EXPECT_NEAR(can.total_leaf_volume(), 1.0, 1e-9) << "step " << step;
    const Key key = rng();
    auto it = members.begin();
    std::advance(it, static_cast<long>(rng.index(members.size())));
    const auto stats = can.route(key, *it);
    EXPECT_EQ(stats.owner, can.owner_of(key)) << "step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CanChurnProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

}  // namespace
}  // namespace qsa::overlay
