// LookupService conformance: one contract suite executed against every
// overlay implementation (Chord, CAN, Pastry). Anything the service
// directory relies on must hold identically across substrates.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "qsa/overlay/can_overlay.hpp"
#include "qsa/overlay/chord_id.hpp"
#include "qsa/overlay/chord_ring.hpp"
#include "qsa/overlay/pastry_overlay.hpp"
#include "qsa/util/rng.hpp"

namespace qsa::overlay {
namespace {

template <typename T>
class LookupConformance : public ::testing::Test {
 public:
  static std::unique_ptr<LookupService> make(std::uint64_t seed,
                                             int replicas) {
    return std::make_unique<T>(seed, replicas);
  }
};

using Overlays = ::testing::Types<ChordRing, CanOverlay, PastryOverlay>;

class OverlayNames {
 public:
  template <typename T>
  static std::string GetName(int) {
    if constexpr (std::is_same_v<T, ChordRing>) return "Chord";
    if constexpr (std::is_same_v<T, CanOverlay>) return "Can";
    if constexpr (std::is_same_v<T, PastryOverlay>) return "Pastry";
  }
};

TYPED_TEST_SUITE(LookupConformance, Overlays, OverlayNames);

TYPED_TEST(LookupConformance, JoinContainSize) {
  auto o = TestFixture::make(1, 2);
  EXPECT_EQ(o->size(), 0u);
  for (net::PeerId p = 0; p < 10; ++p) {
    EXPECT_FALSE(o->contains(p));
    o->join(p);
    EXPECT_TRUE(o->contains(p));
    EXPECT_EQ(o->size(), static_cast<std::size_t>(p) + 1);
  }
}

TYPED_TEST(LookupConformance, RouteAgreesWithOracleOwner) {
  auto o = TestFixture::make(2, 2);
  for (net::PeerId p = 0; p < 48; ++p) o->join(p);
  o->stabilize_all();
  util::Rng rng(7);
  for (int i = 0; i < 150; ++i) {
    const Key key = rng();
    const net::PeerId oracle = o->owner_of(key);
    const auto from = static_cast<net::PeerId>(rng.index(48));
    EXPECT_EQ(o->route(key, from).owner, oracle);
  }
}

TYPED_TEST(LookupConformance, RouteFromOwnerIsFree) {
  auto o = TestFixture::make(3, 2);
  for (net::PeerId p = 0; p < 32; ++p) o->join(p);
  o->stabilize_all();
  util::Rng rng(8);
  for (int i = 0; i < 60; ++i) {
    const Key key = rng();
    const net::PeerId owner = o->owner_of(key);
    const auto stats = o->route(key, owner);
    EXPECT_EQ(stats.owner, owner);
    EXPECT_EQ(stats.hops, 0);
  }
}

TYPED_TEST(LookupConformance, StorageRoundTrip) {
  auto o = TestFixture::make(4, 2);
  for (net::PeerId p = 0; p < 24; ++p) o->join(p);
  o->stabilize_all();
  util::Rng rng(9);
  for (int i = 0; i < 50; ++i) {
    const Key key = rng();
    o->insert(key, static_cast<std::uint64_t>(i));
    o->insert(key, static_cast<std::uint64_t>(i) + 1000);
    const auto values = o->get(key);
    EXPECT_EQ(std::set<std::uint64_t>(values.begin(), values.end()),
              (std::set<std::uint64_t>{static_cast<std::uint64_t>(i),
                                       static_cast<std::uint64_t>(i) + 1000}));
    o->erase(key, static_cast<std::uint64_t>(i));
    EXPECT_EQ(o->get(key),
              (std::vector<std::uint64_t>{static_cast<std::uint64_t>(i) + 1000}));
  }
}

TYPED_TEST(LookupConformance, AbruptFailureHealedByRepublish) {
  auto o = TestFixture::make(6, 2);
  for (net::PeerId p = 0; p < 40; ++p) o->join(p);
  o->stabilize_all();
  util::Rng rng(11);
  std::vector<Key> keys;
  for (int i = 0; i < 40; ++i) keys.push_back(rng());
  auto publish_all = [&] {
    for (int i = 0; i < 40; ++i) {
      o->insert(keys[static_cast<std::size_t>(i)],
                static_cast<std::uint64_t>(i));
    }
  };
  publish_all();
  // Kill a third of the overlay abruptly, then republish (the directory's
  // soft-state heal): every key must be readable again.
  for (net::PeerId p = 0; p < 13; ++p) o->fail(p);
  o->stabilize_all();
  publish_all();
  for (int i = 0; i < 40; ++i) {
    const auto values = o->get(keys[static_cast<std::size_t>(i)]);
    EXPECT_TRUE(std::find(values.begin(), values.end(),
                          static_cast<std::uint64_t>(i)) != values.end())
        << "key " << i;
  }
}

TYPED_TEST(LookupConformance, HopsStayBoundedAtScale) {
  auto o = TestFixture::make(7, 2);
  for (net::PeerId p = 0; p < 512; ++p) o->join(p);
  o->stabilize_all();
  util::Rng rng(12);
  double total = 0;
  for (int i = 0; i < 200; ++i) {
    const auto stats =
        o->route(rng(), static_cast<net::PeerId>(rng.index(512)));
    total += stats.hops;
    // Loosest common bound: even sqrt-routing CAN stays under ~4*sqrt(512).
    EXPECT_LE(stats.hops, 96);
  }
  EXPECT_LE(total / 200, 40.0);
}

TYPED_TEST(LookupConformance, LatencyAccountedWithNetwork) {
  auto o = TestFixture::make(8, 2);
  for (net::PeerId p = 0; p < 64; ++p) o->join(p);
  o->stabilize_all();
  net::NetworkModel net(8, net::ProbeClock(sim::SimTime::seconds(30)));
  util::Rng rng(13);
  bool some_latency = false;
  for (int i = 0; i < 60; ++i) {
    const auto stats = o->route(rng(), 0, &net);
    EXPECT_GE(stats.latency.as_millis(), stats.hops);  // >= 1 ms per hop
    some_latency |= stats.latency > sim::SimTime::zero();
  }
  EXPECT_TRUE(some_latency);
}

TYPED_TEST(LookupConformance, GetOnEmptyOverlayIsEmpty) {
  auto o = TestFixture::make(10, 2);
  EXPECT_TRUE(o->get(123).empty());
}

TYPED_TEST(LookupConformance, LastNodeLeavingEmptiesOverlay) {
  auto o = TestFixture::make(11, 2);
  o->join(0);
  o->insert(42, 7);
  o->fail(0);
  EXPECT_EQ(o->size(), 0u);
  EXPECT_FALSE(o->contains(0));
  EXPECT_TRUE(o->get(42).empty());
  // The overlay bootstraps again afterwards.
  o->join(1);
  EXPECT_EQ(o->owner_of(42), 1u);
  o->insert(42, 9);
  EXPECT_EQ(o->get(42), (std::vector<std::uint64_t>{9}));
}

TYPED_TEST(LookupConformance, DoubleJoinForbiddenByContains) {
  auto o = TestFixture::make(12, 2);
  o->join(5);
  EXPECT_TRUE(o->contains(5));
  // The contract: callers check contains() before join; joining a present
  // peer is a precondition violation, so we only verify the query side.
  EXPECT_FALSE(o->contains(6));
}

TYPED_TEST(LookupConformance, EraseOnEmptyOverlayIsNoop) {
  auto o = TestFixture::make(9, 2);
  o->erase(42, 1);  // must not crash
  o->join(0);
  o->insert(42, 1);
  o->erase(42, 99);  // absent value: no-op
  EXPECT_EQ(o->get(42), (std::vector<std::uint64_t>{1}));
}

}  // namespace
}  // namespace qsa::overlay
