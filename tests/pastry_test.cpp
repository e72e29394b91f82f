// Pastry overlay: digit arithmetic, numerically-closest ownership, prefix
// routing, takeover, data survival, and the churn property shared by all
// three substrates.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "qsa/overlay/chord_id.hpp"
#include "qsa/overlay/pastry_overlay.hpp"
#include "qsa/util/rng.hpp"

namespace qsa::overlay {
namespace {

PastryOverlay make_pastry(std::size_t nodes, std::uint64_t seed = 1,
                          int replicas = 2) {
  PastryOverlay p(seed, replicas);
  for (net::PeerId id = 0; id < nodes; ++id) p.join(id);
  p.stabilize_all();
  return p;
}

TEST(PastryDigits, DigitExtraction) {
  const std::uint64_t id = 0xABCD'0000'0000'0000ull;
  EXPECT_EQ(PastryOverlay::digit(id, 0), 0xA);
  EXPECT_EQ(PastryOverlay::digit(id, 1), 0xB);
  EXPECT_EQ(PastryOverlay::digit(id, 2), 0xC);
  EXPECT_EQ(PastryOverlay::digit(id, 3), 0xD);
  EXPECT_EQ(PastryOverlay::digit(id, 15), 0x0);
}

TEST(PastryDigits, SharedPrefixLength) {
  EXPECT_EQ(PastryOverlay::shared_digits(0xAB00ull << 48, 0xAB00ull << 48), 16);
  EXPECT_EQ(PastryOverlay::shared_digits(0xAB00ull << 48, 0xAC00ull << 48), 1);
  EXPECT_EQ(PastryOverlay::shared_digits(0xAB00ull << 48, 0xBB00ull << 48), 0);
  EXPECT_EQ(PastryOverlay::shared_digits(0xABC0ull << 48, 0xABD0ull << 48), 2);
}

TEST(PastryDigits, CircularDistance) {
  EXPECT_EQ(PastryOverlay::circular_dist(10, 14), 4u);
  EXPECT_EQ(PastryOverlay::circular_dist(14, 10), 4u);
  EXPECT_EQ(PastryOverlay::circular_dist(0, ~0ull), 1u);
  EXPECT_EQ(PastryOverlay::circular_dist(5, 5), 0u);
}

TEST(PastryOverlay, SingleNodeOwnsEverything) {
  auto p = make_pastry(1);
  EXPECT_EQ(p.owner_of(123), 0u);
  const auto stats = p.route(456, 0);
  EXPECT_EQ(stats.owner, 0u);
  EXPECT_EQ(stats.hops, 0);
}

TEST(PastryOverlay, OwnerIsNumericallyClosest) {
  auto p = make_pastry(64);
  util::Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    const Key key = rng();
    const net::PeerId owner = p.owner_of(key);
    // No joined node may be strictly closer than the reported owner.
    const std::uint64_t owner_id =
        node_key(1 ^ util::hash_str("pastry-node"), owner);
    const std::uint64_t owner_dist =
        PastryOverlay::circular_dist(owner_id, key);
    for (net::PeerId other = 0; other < 64; ++other) {
      const std::uint64_t other_id =
          node_key(1 ^ util::hash_str("pastry-node"), other);
      EXPECT_GE(PastryOverlay::circular_dist(other_id, key), owner_dist);
    }
  }
}

TEST(PastryOverlay, RouteFindsOwner) {
  auto p = make_pastry(128);
  util::Rng rng(9);
  for (int i = 0; i < 200; ++i) {
    const Key key = rng();
    const net::PeerId oracle = p.owner_of(key);
    for (net::PeerId from : {net::PeerId{0}, net::PeerId{31}, net::PeerId{127}}) {
      const auto stats = p.route(key, from);
      EXPECT_EQ(stats.owner, oracle) << "key=" << key << " from=" << from;
    }
  }
}

TEST(PastryOverlay, HopsBeatChordScaling) {
  // log16(4096) = 3; allow slack for leaf hops.
  auto p = make_pastry(4096);
  util::Rng rng(10);
  double total = 0;
  constexpr int kLookups = 300;
  for (int i = 0; i < kLookups; ++i) {
    const auto stats =
        p.route(rng(), static_cast<net::PeerId>(rng.index(4096)));
    total += stats.hops;
    EXPECT_LE(stats.hops, 10);
  }
  EXPECT_LE(total / kLookups, 5.0);
}

TEST(PastryOverlay, InsertGetErase) {
  auto p = make_pastry(32);
  const Key key = data_key(1, "svc");
  p.insert(key, 7);
  p.insert(key, 8);
  EXPECT_EQ(p.get(key), (std::vector<std::uint64_t>{7, 8}));
  p.erase(key, 7);
  EXPECT_EQ(p.get(key), (std::vector<std::uint64_t>{8}));
  p.erase(key, 8);
  EXPECT_TRUE(p.get(key).empty());
}

TEST(PastryOverlay, JoinMovesOwnership) {
  PastryOverlay p(3, 1);
  for (net::PeerId id = 0; id < 8; ++id) p.join(id);
  p.stabilize_all();
  util::Rng rng(16);
  std::vector<std::pair<Key, std::uint64_t>> data;
  for (int i = 0; i < 40; ++i) {
    data.emplace_back(rng(), static_cast<std::uint64_t>(i));
    p.insert(data.back().first, data.back().second);
  }
  for (net::PeerId id = 8; id < 40; ++id) p.join(id);
  p.stabilize_all();
  for (const auto& [key, value] : data) {
    const auto values = p.get(key);
    EXPECT_TRUE(std::find(values.begin(), values.end(), value) != values.end())
        << "value lost after joins";
  }
}

TEST(PastryOverlay, SingleFailureSurvivedByReplicas) {
  auto p = make_pastry(32, 2, 3);
  util::Rng rng(13);
  std::vector<Key> keys;
  for (int i = 0; i < 64; ++i) {
    keys.push_back(rng());
    p.insert(keys.back(), static_cast<std::uint64_t>(i));
  }
  p.fail(9);
  for (int i = 0; i < 64; ++i) {
    const auto values = p.get(keys[static_cast<std::size_t>(i)]);
    EXPECT_TRUE(std::find(values.begin(), values.end(),
                          static_cast<std::uint64_t>(i)) != values.end())
        << "key " << i;
  }
}

TEST(PastryOverlay, RoutesWithStaleTablesAfterChurn) {
  auto p = make_pastry(128);
  util::Rng rng(14);
  for (net::PeerId id = 0; id < 32; ++id) p.fail(id);  // no re-stabilize
  for (int i = 0; i < 100; ++i) {
    const Key key = rng();
    const auto from = static_cast<net::PeerId>(rng.uniform_int(32, 127));
    const auto stats = p.route(key, from);
    EXPECT_EQ(stats.owner, p.owner_of(key));
  }
}

TEST(PastryOverlay, LeaveUnknownPeerIsNoop) {
  auto p = make_pastry(4);
  p.fail(99);
  EXPECT_EQ(p.size(), 4u);
}

class PastryChurnProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PastryChurnProperty, RoutingStaysCorrectUnderChurn) {
  util::Rng rng(util::derive_seed(GetParam(), "pastry-churn", 0));
  PastryOverlay p(GetParam(), 3);
  std::set<net::PeerId> members;
  net::PeerId next = 0;
  for (int i = 0; i < 40; ++i) {
    p.join(next);
    members.insert(next++);
  }
  p.stabilize_all();
  for (int step = 0; step < 150; ++step) {
    const auto action = rng.index(4);
    if (action == 0 || members.size() < 8) {
      p.join(next);
      members.insert(next++);
    } else if (action == 3) {
      p.stabilize_round(0.3);
    } else {
      auto it = members.begin();
      std::advance(it, static_cast<long>(rng.index(members.size())));
      p.fail(*it);
      members.erase(it);
    }
    const Key key = rng();
    auto it = members.begin();
    std::advance(it, static_cast<long>(rng.index(members.size())));
    const auto stats = p.route(key, *it);
    EXPECT_EQ(stats.owner, p.owner_of(key)) << "step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PastryChurnProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

}  // namespace
}  // namespace qsa::overlay
