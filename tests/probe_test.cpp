#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "count_allocations.hpp"
#include "qsa/probe/neighbor_table.hpp"
#include "qsa/probe/resolution.hpp"
#include "qsa/probe/snapshot.hpp"

namespace qsa::probe {
namespace {

using net::PeerId;
using net::ProbeClock;
using qos::ResourceVector;
using sim::SimTime;

// ------------------------------------------------------------- snapshots

struct SnapshotFixture : ::testing::Test {
  SnapshotFixture()
      : peers(qos::ResourceSchema::paper(), ProbeClock(SimTime::seconds(30))),
        net(1, ProbeClock(SimTime::seconds(30))) {
    a = peers.add_peer(ResourceVector{500, 500}, SimTime::minutes(-20));
    b = peers.add_peer(ResourceVector{800, 800}, SimTime::minutes(-5));
  }

  net::PeerTable peers;
  net::NetworkModel net;
  PeerId a = 0, b = 0;
};

TEST_F(SnapshotFixture, CapturesAvailabilityAndUptime) {
  const auto s = probe(peers, net, a, b, SimTime::seconds(60));
  EXPECT_TRUE(s.alive);
  EXPECT_EQ(s.available, (ResourceVector{800, 800}));
  // Epoch boundary at t=60: uptime = 60s + 5min.
  EXPECT_EQ(s.uptime, SimTime::seconds(360));
  EXPECT_DOUBLE_EQ(s.bandwidth_kbps, net.capacity_kbps(a, b));
}

TEST_F(SnapshotFixture, StaleWithinEpoch) {
  ASSERT_TRUE(peers.try_reserve(b, ResourceVector{300, 300}, SimTime::seconds(40)));
  const auto during = probe(peers, net, a, b, SimTime::seconds(50));
  EXPECT_EQ(during.available, (ResourceVector{800, 800}));  // epoch-1 state
  const auto after = probe(peers, net, a, b, SimTime::seconds(65));
  EXPECT_EQ(after.available, (ResourceVector{500, 500}));
}

TEST_F(SnapshotFixture, DeadPeerReportsNotAliveNextEpoch) {
  peers.remove_peer(b, SimTime::seconds(10));
  const auto during = probe(peers, net, a, b, SimTime::seconds(20));
  EXPECT_TRUE(during.alive);  // died mid-epoch: probers don't know yet
  const auto after = probe(peers, net, a, b, SimTime::seconds(40));
  EXPECT_FALSE(after.alive);
}

// ---------------------------------------------------------- benefit rank

TEST(BenefitRank, PaperOrdering) {
  // 1-hop direct < 1-hop indirect < 2-hop direct < 2-hop indirect < ...
  EXPECT_LT(benefit_rank(1, NeighborKind::kDirect),
            benefit_rank(1, NeighborKind::kIndirect));
  EXPECT_LT(benefit_rank(1, NeighborKind::kIndirect),
            benefit_rank(2, NeighborKind::kDirect));
  EXPECT_LT(benefit_rank(2, NeighborKind::kDirect),
            benefit_rank(2, NeighborKind::kIndirect));
  EXPECT_LT(benefit_rank(2, NeighborKind::kIndirect),
            benefit_rank(3, NeighborKind::kDirect));
}

// --------------------------------------------------------- NeighborTable

TEST(NeighborTable, AddAndKnow) {
  NeighborTable t(10);
  EXPECT_FALSE(t.knows(5, SimTime::zero()));
  EXPECT_TRUE(t.add(5, 1, NeighborKind::kDirect, SimTime::zero(),
                    SimTime::minutes(10)));
  EXPECT_TRUE(t.knows(5, SimTime::zero()));
  EXPECT_EQ(t.size(), 1u);
}

TEST(NeighborTable, EntriesExpire) {
  NeighborTable t(10);
  t.add(5, 1, NeighborKind::kDirect, SimTime::zero(), SimTime::minutes(10));
  EXPECT_TRUE(t.knows(5, SimTime::minutes(9)));
  EXPECT_FALSE(t.knows(5, SimTime::minutes(10)));
  EXPECT_FALSE(t.knows(5, SimTime::minutes(11)));
}

TEST(NeighborTable, RefreshExtendsTtl) {
  NeighborTable t(10);
  t.add(5, 1, NeighborKind::kDirect, SimTime::zero(), SimTime::minutes(10));
  t.add(5, 1, NeighborKind::kDirect, SimTime::minutes(8), SimTime::minutes(10));
  EXPECT_TRUE(t.knows(5, SimTime::minutes(15)));
  EXPECT_EQ(t.size(), 1u);
}

TEST(NeighborTable, RefreshKeepsBetterRank) {
  NeighborTable t(10);
  t.add(5, 3, NeighborKind::kIndirect, SimTime::zero(), SimTime::minutes(10));
  t.add(5, 1, NeighborKind::kDirect, SimTime::zero(), SimTime::minutes(10));
  const NeighborEntry e = t.find(5).value();
  EXPECT_EQ(e.hop, 1);
  EXPECT_EQ(e.kind, NeighborKind::kDirect);
  // A later worse-rank notification does not downgrade it.
  t.add(5, 4, NeighborKind::kIndirect, SimTime::zero(), SimTime::minutes(10));
  EXPECT_EQ(t.find(5).value().hop, 1);
}

TEST(NeighborTable, BudgetEnforced) {
  NeighborTable t(3);
  for (PeerId p = 0; p < 5; ++p) {
    t.add(p, 1, NeighborKind::kDirect, SimTime::zero(), SimTime::minutes(10));
  }
  EXPECT_EQ(t.size(), 3u);
}

TEST(NeighborTable, EvictsLowestBenefitFirst) {
  NeighborTable t(2);
  t.add(1, 3, NeighborKind::kIndirect, SimTime::zero(), SimTime::minutes(10));
  t.add(2, 1, NeighborKind::kDirect, SimTime::zero(), SimTime::minutes(10));
  // A 1-hop direct newcomer evicts the 3-hop indirect entry, not peer 2.
  EXPECT_TRUE(t.add(3, 1, NeighborKind::kDirect, SimTime::zero(),
                    SimTime::minutes(10)));
  EXPECT_FALSE(t.knows(1, SimTime::zero()));
  EXPECT_TRUE(t.knows(2, SimTime::zero()));
  EXPECT_TRUE(t.knows(3, SimTime::zero()));
}

TEST(NeighborTable, RejectsWorseThanEverything) {
  NeighborTable t(2);
  t.add(1, 1, NeighborKind::kDirect, SimTime::zero(), SimTime::minutes(10));
  t.add(2, 1, NeighborKind::kDirect, SimTime::zero(), SimTime::minutes(10));
  EXPECT_FALSE(t.add(3, 4, NeighborKind::kIndirect, SimTime::zero(),
                     SimTime::minutes(10)));
  EXPECT_EQ(t.size(), 2u);
  EXPECT_FALSE(t.knows(3, SimTime::zero()));
}

TEST(NeighborTable, ExpiredEntriesAreReusedBeforeEviction) {
  NeighborTable t(2);
  t.add(1, 1, NeighborKind::kDirect, SimTime::zero(), SimTime::minutes(1));
  t.add(2, 1, NeighborKind::kDirect, SimTime::zero(), SimTime::minutes(60));
  // At t=5 entry 1 is expired; even a low-benefit newcomer may take its slot.
  EXPECT_TRUE(t.add(3, 4, NeighborKind::kIndirect, SimTime::minutes(5),
                    SimTime::minutes(10)));
  EXPECT_TRUE(t.knows(2, SimTime::minutes(5)));
  EXPECT_TRUE(t.knows(3, SimTime::minutes(5)));
}

TEST(NeighborTable, EvictionTiesBreakDeterministically) {
  // A multi-way tie (same benefit rank, same deadline) must evict the same
  // peer regardless of insertion order: unordered_map iteration order is a
  // stdlib implementation detail, and simulation results must not be. The
  // canonical victim is the tied entry with the largest PeerId.
  const std::vector<PeerId> peers{7, 3, 11, 5};
  std::vector<PeerId> order = peers;
  do {
    NeighborTable t(4);
    for (PeerId p : order) {
      t.add(p, 2, NeighborKind::kIndirect, SimTime::zero(),
            SimTime::minutes(10));
    }
    EXPECT_TRUE(t.add(100, 1, NeighborKind::kDirect, SimTime::zero(),
                      SimTime::minutes(10)));
    EXPECT_FALSE(t.knows(11, SimTime::zero())) << "victim not canonical";
    for (PeerId p : {3, 5, 7}) {
      EXPECT_TRUE(t.knows(p, SimTime::zero()));
    }
  } while (std::next_permutation(order.begin(), order.end()));
}

TEST(NeighborTable, ExpiredTiesBreakDeterministically) {
  // Same for the expired-reuse path: among equally-expired entries the one
  // with the largest PeerId is reclaimed, in every insertion order.
  std::vector<PeerId> order{4, 9, 2};
  std::sort(order.begin(), order.end());
  do {
    NeighborTable t(3);
    for (PeerId p : order) {
      t.add(p, 1, NeighborKind::kDirect, SimTime::zero(), SimTime::minutes(1));
    }
    EXPECT_TRUE(t.add(50, 3, NeighborKind::kIndirect, SimTime::minutes(5),
                      SimTime::minutes(10)));
    EXPECT_FALSE(t.find(9).has_value()) << "victim not canonical";
    EXPECT_TRUE(t.find(2).has_value());
    EXPECT_TRUE(t.find(4).has_value());
  } while (std::next_permutation(order.begin(), order.end()));
}

TEST(NeighborTable, LongestExpiredIsReclaimedFirst) {
  NeighborTable t(2);
  t.add(1, 1, NeighborKind::kDirect, SimTime::zero(), SimTime::minutes(1));
  t.add(2, 1, NeighborKind::kDirect, SimTime::zero(), SimTime::minutes(3));
  // Both are expired at t=10; the one that expired first (peer 1) goes.
  EXPECT_TRUE(t.add(3, 1, NeighborKind::kDirect, SimTime::minutes(10),
                    SimTime::minutes(10)));
  EXPECT_FALSE(t.find(1).has_value());
  EXPECT_TRUE(t.find(2).has_value());
}

TEST(NeighborTable, FillsToTheSlotCap) {
  // Rows and heap slots are 16-bit: a table at the cap still indexes every
  // row and evicts through the heap.
  NeighborTable t(kMaxNeighborBudget);
  for (PeerId p = 0; p < kMaxNeighborBudget; ++p) {
    t.add(p, 2, NeighborKind::kDirect, SimTime::zero(), SimTime::minutes(10));
  }
  EXPECT_EQ(t.size(), kMaxNeighborBudget);
  const auto last = static_cast<PeerId>(kMaxNeighborBudget - 1);
  EXPECT_TRUE(t.add(1'000'000, 1, NeighborKind::kDirect, SimTime::zero(),
                    SimTime::minutes(10)));
  EXPECT_EQ(t.size(), kMaxNeighborBudget);
  EXPECT_FALSE(t.find(last).has_value());  // the largest tied PeerId goes
  EXPECT_TRUE(t.knows(0, SimTime::zero()));
}

TEST(NeighborTable, FullTableChurnAllocatesNothing) {
  // Once a table holds M = 100 rows, refreshes (rank upgrades among them),
  // rejections, and live and expired evictions reuse its rows, heap and
  // index without touching the allocator.
  NeighborTable t(100);
  SimTime now = SimTime::zero();
  const SimTime ttl = SimTime::minutes(90);
  for (PeerId p = 0; p < 100; ++p) {
    t.add(p, 2, NeighborKind::kIndirect, now, ttl);
  }
  int refreshes = 0;
  int rejections = 0;
  int evictions = 0;
  PeerId next = 100;
  const std::uint64_t before = test::allocation_count();
  for (int round = 0; round < 300; ++round) {
    now += SimTime::seconds(30);
    const auto old = static_cast<PeerId>((round * 37) % next);
    if (t.find(old)) {
      t.add(old, round % 2 == 0 ? 1 : 3, NeighborKind::kDirect, now, ttl);
      ++refreshes;
    }
    rejections += !t.add(next++, 4, NeighborKind::kIndirect, now, ttl);
    // Every fourth newcomer lives a minute, so expired entries recur.
    const SimTime life = round % 4 == 0 ? SimTime::minutes(1) : ttl;
    const bool full = t.size() == t.budget();
    if (t.add(next++, 1, NeighborKind::kDirect, now, life) && full) {
      ++evictions;
    }
  }
  const std::uint64_t allocations = test::allocation_count() - before;
  EXPECT_EQ(allocations, 0u);
  EXPECT_GT(refreshes, 0);
  EXPECT_GT(rejections, 0);
  EXPECT_GT(evictions, 0);
  EXPECT_GT(t.size(), 90u);
}

TEST(NeighborTableDeathTest, BudgetAboveTheSlotCapIsRejected) {
  EXPECT_DEATH({ NeighborTable t(kMaxNeighborBudget + 1); }, "precondition");
}

TEST(NeighborTableDeathTest, DeadlineOutsideTheKeyRangeIsRejected) {
  // An eviction key spends 54 bits on 2^53 - deadline (ms), so a deadline
  // must lie strictly inside ±2^53 ms.
  constexpr std::int64_t kBound = std::int64_t{1} << 53;
  NeighborTable t(4);
  EXPECT_DEATH(t.add(1, 1, NeighborKind::kDirect, SimTime::zero(),
                     SimTime::millis(kBound)),
               "precondition");
  EXPECT_DEATH(t.add(1, 1, NeighborKind::kDirect, SimTime::millis(-kBound),
                     SimTime::zero()),
               "precondition");
  EXPECT_TRUE(t.add(1, 1, NeighborKind::kDirect, SimTime::zero(),
                    SimTime::millis(kBound - 1)));
  EXPECT_TRUE(t.add(2, 1, NeighborKind::kDirect, SimTime::millis(1 - kBound),
                    SimTime::zero()));
  EXPECT_EQ(t.find(1).value().expires, SimTime::millis(kBound - 1));
  EXPECT_EQ(t.find(2).value().expires, SimTime::millis(1 - kBound));
}

// ----------------------------------------------------- NeighborResolution

TEST(NeighborResolution, RegisterPathFillsRequesterTable) {
  NeighborResolution res(100, SimTime::minutes(90));
  const std::vector<std::vector<PeerId>> hops{{10, 11}, {20, 21, 22}, {30}};
  res.register_path(1, hops, SimTime::zero());
  auto& table = res.table(1);
  for (PeerId p : {10, 11, 20, 21, 22, 30}) {
    EXPECT_TRUE(table.knows(static_cast<PeerId>(p), SimTime::zero()));
  }
  // Hop indices recorded as direct neighbors at their distance.
  EXPECT_EQ(table.find(10).value().hop, 1);
  EXPECT_EQ(table.find(20).value().hop, 2);
  EXPECT_EQ(table.find(30).value().hop, 3);
  EXPECT_EQ(table.find(20).value().kind, NeighborKind::kDirect);
}

TEST(NeighborResolution, MessageAccountingCoversNotificationFanout) {
  NeighborResolution res(100, SimTime::minutes(90));
  const std::vector<std::vector<PeerId>> hops{{10, 11}, {20, 21, 22}, {30}};
  res.register_path(1, hops, SimTime::zero());
  // Direct notifications: 2 + 3 + 1 = 6; indirect fan-out: 2*3 + 3*1 = 9.
  EXPECT_EQ(res.messages(), 15u);
}

TEST(NeighborResolution, PrepareSelectionCreatesIndirectEntries) {
  NeighborResolution res(100, SimTime::minutes(90));
  const std::vector<PeerId> candidates{40, 41};
  res.prepare_selection(20, candidates, 2, /*direct=*/false, SimTime::zero());
  auto& table = res.table(20);
  EXPECT_TRUE(table.knows(40, SimTime::zero()));
  EXPECT_EQ(table.find(40).value().kind, NeighborKind::kIndirect);
  EXPECT_EQ(table.find(40).value().hop, 1);  // one hop from the selector
}

TEST(NeighborResolution, PrepareSelectionDirectKeepsHopIndex) {
  NeighborResolution res(100, SimTime::minutes(90));
  const std::vector<PeerId> candidates{40};
  res.prepare_selection(1, candidates, 3, /*direct=*/true, SimTime::zero());
  EXPECT_EQ(res.table(1).find(40).value().hop, 3);
  EXPECT_EQ(res.table(1).find(40).value().kind, NeighborKind::kDirect);
}

TEST(NeighborResolution, PathAtHopIndexBoundaryIsAccepted) {
  NeighborResolution res(300, SimTime::minutes(90));
  // kMaxHopIndex hops: the last entry's hop distance is exactly 255.
  std::vector<std::vector<PeerId>> hops(kMaxHopIndex);
  for (std::size_t i = 0; i < hops.size(); ++i) {
    hops[i] = {static_cast<PeerId>(1000 + i)};
  }
  res.register_path(1, hops, SimTime::zero());
  const auto& table = res.table(1);
  EXPECT_EQ(table.find(static_cast<PeerId>(1000)).value().hop, 1);
  EXPECT_EQ(
      table.find(static_cast<PeerId>(1000 + kMaxHopIndex - 1)).value().hop,
      255);
}

TEST(NeighborResolutionDeathTest, PathBeyondHopIndexBoundaryIsRejected) {
  NeighborResolution res(300, SimTime::minutes(90));
  // One hop past the uint8_t range: without the guard, hop 256 would wrap
  // to 0 and corrupt the benefit ranking.
  std::vector<std::vector<PeerId>> hops(kMaxHopIndex + 1);
  for (std::size_t i = 0; i < hops.size(); ++i) {
    hops[i] = {static_cast<PeerId>(1000 + i)};
  }
  EXPECT_DEATH(res.register_path(1, hops, SimTime::zero()), "precondition");
}

TEST(NeighborResolution, BudgetAppliesPerPeer) {
  NeighborResolution res(2, SimTime::minutes(90));
  const std::vector<PeerId> candidates{1, 2, 3, 4};
  res.prepare_selection(9, candidates, 1, false, SimTime::zero());
  EXPECT_EQ(res.table(9).size(), 2u);
}

TEST(NeighborResolution, DropPeerForgetsTable) {
  NeighborResolution res(100, SimTime::minutes(90));
  res.prepare_selection(9, std::vector<PeerId>{1}, 1, false, SimTime::zero());
  EXPECT_EQ(res.table(9).size(), 1u);
  res.drop_peer(9);
  EXPECT_EQ(res.table(9).size(), 0u);  // a fresh, empty table
}

}  // namespace
}  // namespace qsa::probe
