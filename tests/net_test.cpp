#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <utility>
#include <vector>

#include "qsa/net/network.hpp"
#include "qsa/net/peer.hpp"
#include "qsa/net/reservations.hpp"
#include "qsa/util/rng.hpp"

namespace qsa::net {
namespace {

using qos::ResourceVector;
using sim::SimTime;

ProbeClock clock30() { return ProbeClock(SimTime::seconds(30)); }

PeerTable make_table() {
  return PeerTable(qos::ResourceSchema::paper(), clock30());
}

// ------------------------------------------------------------ ProbeClock

TEST(ProbeClock, EpochIndexing) {
  ProbeClock c(SimTime::seconds(30));
  EXPECT_EQ(c.epoch(SimTime::zero()), 0);
  EXPECT_EQ(c.epoch(SimTime::seconds(29.9)), 0);
  EXPECT_EQ(c.epoch(SimTime::seconds(30)), 1);
  EXPECT_EQ(c.epoch(SimTime::seconds(61)), 2);
}

TEST(ProbeClock, NegativeTimesFloor) {
  ProbeClock c(SimTime::seconds(30));
  EXPECT_EQ(c.epoch(SimTime::seconds(-1)), -1);
  EXPECT_EQ(c.epoch(SimTime::seconds(-30)), -1);
  EXPECT_EQ(c.epoch(SimTime::seconds(-31)), -2);
}

// ----------------------------------------------------------- Snapshotted

TEST(Snapshotted, ReadsLiveWhenUntouchedThisEpoch) {
  Snapshotted<int> s(10);
  s.mutate(0, [](int& v) { v = 20; });
  // Epoch 1 has seen no mutation: the live value *is* the epoch-start value.
  EXPECT_EQ(s.probed(1), 20);
  EXPECT_EQ(s.live(), 20);
}

TEST(Snapshotted, HidesSameEpochMutations) {
  Snapshotted<int> s(10);
  s.mutate(5, [](int& v) { v = 99; });
  // A reader in epoch 5 sees the value at the epoch-5 boundary (10).
  EXPECT_EQ(s.probed(5), 10);
  EXPECT_EQ(s.live(), 99);
  // Next epoch the mutation becomes visible.
  EXPECT_EQ(s.probed(6), 99);
}

TEST(Snapshotted, MultipleMutationsSameEpoch) {
  Snapshotted<int> s(1);
  s.mutate(3, [](int& v) { v += 10; });
  s.mutate(3, [](int& v) { v += 100; });
  EXPECT_EQ(s.probed(3), 1);
  EXPECT_EQ(s.live(), 111);
  EXPECT_EQ(s.probed(4), 111);
}

TEST(Snapshotted, SnapshotRollsForwardAcrossEpochs) {
  Snapshotted<int> s(0);
  s.mutate(1, [](int& v) { v = 1; });
  s.mutate(2, [](int& v) { v = 2; });
  s.mutate(4, [](int& v) { v = 4; });
  EXPECT_EQ(s.probed(4), 2);  // value at the start of epoch 4
  EXPECT_EQ(s.probed(5), 4);
}

// -------------------------------------------------------------- PeerTable

TEST(PeerTable, AddPeersAssignsSequentialIds) {
  auto t = make_table();
  EXPECT_EQ(t.add_peer(ResourceVector{100, 100}, SimTime::zero()), 0u);
  EXPECT_EQ(t.add_peer(ResourceVector{200, 200}, SimTime::zero()), 1u);
  EXPECT_EQ(t.total_peers(), 2u);
  EXPECT_EQ(t.alive_count(), 2u);
}

TEST(PeerTable, RemovePeerUpdatesAliveSet) {
  auto t = make_table();
  const auto a = t.add_peer(ResourceVector{100, 100}, SimTime::zero());
  const auto b = t.add_peer(ResourceVector{100, 100}, SimTime::zero());
  const auto c = t.add_peer(ResourceVector{100, 100}, SimTime::zero());
  t.remove_peer(b, SimTime::seconds(10));
  EXPECT_FALSE(t.alive(b));
  EXPECT_TRUE(t.alive(a));
  EXPECT_TRUE(t.alive(c));
  EXPECT_EQ(t.alive_count(), 2u);
  // alive_ids stays consistent.
  for (PeerId id : t.alive_ids()) EXPECT_TRUE(t.alive(id));
}

TEST(PeerTable, RemoveTwiceIsNoop) {
  auto t = make_table();
  const auto a = t.add_peer(ResourceVector{100, 100}, SimTime::zero());
  t.remove_peer(a, SimTime::zero());
  t.remove_peer(a, SimTime::zero());
  EXPECT_EQ(t.alive_count(), 0u);
}

TEST(PeerTable, DepartureTimeRecorded) {
  auto t = make_table();
  const auto a = t.add_peer(ResourceVector{100, 100}, SimTime::zero());
  EXPECT_EQ(t.peer(a).departed_at(), SimTime::infinity());
  t.remove_peer(a, SimTime::seconds(42));
  EXPECT_EQ(t.peer(a).departed_at(), SimTime::seconds(42));
}

TEST(PeerTable, UptimeFromJoinTime) {
  auto t = make_table();
  const auto a =
      t.add_peer(ResourceVector{100, 100}, SimTime::minutes(-30));
  EXPECT_EQ(t.peer(a).uptime(SimTime::minutes(10)), SimTime::minutes(40));
}

TEST(PeerTable, ReserveAndRelease) {
  auto t = make_table();
  const auto a = t.add_peer(ResourceVector{100, 100}, SimTime::zero());
  EXPECT_TRUE(t.try_reserve(a, ResourceVector{60, 60}, SimTime::zero()));
  EXPECT_EQ(t.peer(a).available(), (ResourceVector{40, 40}));
  EXPECT_FALSE(t.try_reserve(a, ResourceVector{50, 10}, SimTime::zero()));
  EXPECT_TRUE(t.try_reserve(a, ResourceVector{40, 40}, SimTime::zero()));
  EXPECT_EQ(t.peer(a).available(), (ResourceVector{0, 0}));
  t.release(a, ResourceVector{60, 60}, SimTime::zero());
  EXPECT_EQ(t.peer(a).available(), (ResourceVector{60, 60}));
}

TEST(PeerTable, FailedReserveLeavesStateIntact) {
  auto t = make_table();
  const auto a = t.add_peer(ResourceVector{100, 100}, SimTime::zero());
  EXPECT_FALSE(t.try_reserve(a, ResourceVector{50, 150}, SimTime::zero()));
  EXPECT_EQ(t.peer(a).available(), (ResourceVector{100, 100}));
}

TEST(PeerTable, ReserveOnDeadPeerFails) {
  auto t = make_table();
  const auto a = t.add_peer(ResourceVector{100, 100}, SimTime::zero());
  t.remove_peer(a, SimTime::zero());
  EXPECT_FALSE(t.try_reserve(a, ResourceVector{1, 1}, SimTime::zero()));
}

TEST(PeerTable, ReleaseOnDeadPeerIsNoop) {
  auto t = make_table();
  const auto a = t.add_peer(ResourceVector{100, 100}, SimTime::zero());
  EXPECT_TRUE(t.try_reserve(a, ResourceVector{10, 10}, SimTime::zero()));
  t.remove_peer(a, SimTime::zero());
  t.release(a, ResourceVector{10, 10}, SimTime::zero());  // no crash, no-op
}

TEST(PeerTable, ProbedAvailabilityIsEpochStale) {
  auto t = make_table();
  const auto a = t.add_peer(ResourceVector{100, 100}, SimTime::zero());
  // Reserve inside epoch 0.
  EXPECT_TRUE(t.try_reserve(a, ResourceVector{70, 70}, SimTime::seconds(5)));
  // Probers in epoch 0 still see the full capacity.
  EXPECT_EQ(t.probed_available(a, SimTime::seconds(10)),
            (ResourceVector{100, 100}));
  // After the epoch boundary, the reservation becomes visible.
  EXPECT_EQ(t.probed_available(a, SimTime::seconds(31)),
            (ResourceVector{30, 30}));
  // Ground truth is immediate.
  EXPECT_EQ(t.peer(a).available(), (ResourceVector{30, 30}));
}

TEST(PeerTable, ProbedUptimeUsesEpochBoundary) {
  auto t = make_table();
  const auto a = t.add_peer(ResourceVector{100, 100}, SimTime::minutes(-10));
  // At t=45s, the last probe boundary is 30s; uptime = 30s + 10min.
  EXPECT_EQ(t.probed_uptime(a, SimTime::seconds(45)),
            SimTime::seconds(630));
}

TEST(PeerTable, ProbedAliveLagsDeparture) {
  auto t = make_table();
  const auto a = t.add_peer(ResourceVector{100, 100}, SimTime::zero());
  t.remove_peer(a, SimTime::seconds(35));  // dies inside epoch 1
  EXPECT_FALSE(t.alive(a));
  // Probers within epoch 1 still believe it alive...
  EXPECT_TRUE(t.probed_alive(a, SimTime::seconds(45)));
  // ...and learn the truth at the next boundary.
  EXPECT_FALSE(t.probed_alive(a, SimTime::seconds(61)));
}

// ------------------------------------------------------------ NetworkModel

TEST(NetworkModel, CapacityFromPaperLevels) {
  NetworkModel net(1, clock30());
  std::map<double, int> histogram;
  for (PeerId a = 0; a < 60; ++a) {
    for (PeerId b = a + 1; b < 60; ++b) {
      ++histogram[net.capacity_kbps(a, b)];
    }
  }
  // Exactly the paper's four levels appear, each a nontrivial share.
  ASSERT_EQ(histogram.size(), 4u);
  EXPECT_TRUE(histogram.contains(10'000));
  EXPECT_TRUE(histogram.contains(500));
  EXPECT_TRUE(histogram.contains(100));
  EXPECT_TRUE(histogram.contains(56));
  for (const auto& [level, count] : histogram) EXPECT_GT(count, 200);
}

TEST(NetworkModel, LatencyFromPaperLevels) {
  NetworkModel net(1, clock30());
  std::map<std::int64_t, int> histogram;
  for (PeerId a = 0; a < 60; ++a) {
    for (PeerId b = a + 1; b < 60; ++b) {
      ++histogram[net.latency(a, b).as_millis()];
    }
  }
  ASSERT_EQ(histogram.size(), 5u);
  for (std::int64_t ms : {200, 150, 80, 20, 1}) {
    EXPECT_TRUE(histogram.contains(ms)) << ms;
  }
}

TEST(NetworkModel, PairValuesAreSymmetricAndStable) {
  NetworkModel net(7, clock30());
  EXPECT_DOUBLE_EQ(net.capacity_kbps(3, 9), net.capacity_kbps(9, 3));
  EXPECT_EQ(net.latency(3, 9), net.latency(9, 3));
  EXPECT_DOUBLE_EQ(net.capacity_kbps(3, 9), net.capacity_kbps(3, 9));
}

TEST(NetworkModel, DifferentSeedsGiveDifferentDraws) {
  NetworkModel n1(1, clock30()), n2(2, clock30());
  int differing = 0;
  for (PeerId b = 1; b < 50; ++b) {
    differing += n1.capacity_kbps(0, b) != n2.capacity_kbps(0, b);
  }
  EXPECT_GT(differing, 10);
}

TEST(NetworkModel, LoopbackUnconstrained) {
  NetworkModel net(1, clock30());
  EXPECT_GE(net.capacity_kbps(5, 5), 1e9);
  EXPECT_EQ(net.latency(5, 5), SimTime::zero());
}

TEST(NetworkModel, SelfLoopReserveAlwaysAdmitsAndReleases) {
  // Consecutive path hops can land on one host (or the sink can be the
  // requester itself): the a==b link is loopback, effectively unconstrained,
  // and reserve/release must round-trip without touching real pairs.
  NetworkModel net(1, clock30());
  EXPECT_TRUE(net.try_reserve(5, 5, 500'000, SimTime::zero()));
  EXPECT_TRUE(net.try_reserve(5, 5, 500'000, SimTime::zero()));
  EXPECT_GE(net.available_kbps(5, 5), 1e9 - 1'000'000);
  net.release(5, 5, 500'000, SimTime::zero());
  net.release(5, 5, 500'000, SimTime::zero());
  EXPECT_GE(net.available_kbps(5, 5), 1e9);
  EXPECT_EQ(net.latency(5, 5), SimTime::zero());
}

TEST(NetworkModel, ReserveAndRelease) {
  NetworkModel net(1, clock30());
  // Find a 10 Mbps pair so there is room.
  PeerId b = 1;
  while (net.capacity_kbps(0, b) != 10'000) ++b;
  const double cap = net.capacity_kbps(0, b);
  EXPECT_TRUE(net.try_reserve(0, b, 4000, SimTime::zero()));
  EXPECT_DOUBLE_EQ(net.available_kbps(0, b), cap - 4000);
  EXPECT_FALSE(net.try_reserve(0, b, cap, SimTime::zero()));
  net.release(0, b, 4000, SimTime::zero());
  EXPECT_DOUBLE_EQ(net.available_kbps(0, b), cap);
}

TEST(NetworkModel, ReleaseRoundTripsWithoutDrift) {
  // Regression for the reservation-ledger float-drift bug: summing and
  // subtracting non-representable kbps values in different orders leaves a
  // +/- 1 ulp residue per cycle. At loopback magnitudes (1e9 kbps, ulp
  // ~1e-7) the residue routinely exceeded the old absolute [-1e-9, 0) snap
  // window, so negative residue accumulated across cycles — the ledger
  // went negative (phantom capacity) and tripped QSA_ENSURES. The fix
  // snaps any negative residue within a *relative* tolerance of zero.
  NetworkModel net(1, clock30());
  const PeerId p = 5;  // loopback: capacity >= 1e9, always admits
  const double cap = net.capacity_kbps(p, p);
  // These divisors make the add/subtract order below cancel imperfectly:
  // each cycle ends ~3e-8 below zero in pure double arithmetic (ulp of
  // 1e9 is ~1.2e-7), well outside the old snap window.
  const double a = cap / 3.0, b = cap / 17.0, c = cap / 19.0;
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(net.try_reserve(p, p, a, SimTime::zero()));
    ASSERT_TRUE(net.try_reserve(p, p, b, SimTime::zero()));
    net.release(p, p, a, SimTime::zero());
    ASSERT_TRUE(net.try_reserve(p, p, c, SimTime::zero()));
    net.release(p, p, c, SimTime::zero());
    net.release(p, p, b, SimTime::zero());
    const double reserved = cap - net.available_kbps(p, p);
    // Never negative (no phantom bandwidth) ...
    EXPECT_GE(reserved, 0.0) << "cycle " << i;
    // ... and any positive residue stays a few ulp, not an accumulation.
    EXPECT_LE(reserved, 1e-3) << "cycle " << i;
  }
}

TEST(NetworkModel, PairKeyIsSymmetricAndInjective) {
  // The undirected-pair ledger key must be order-free and collision-free,
  // including at the top of the 32-bit PeerId range (a widened PeerId
  // without a widened key would silently alias distinct links; a
  // static_assert in pair_key guards the width at compile time).
  const PeerId ids[] = {0, 1, 2, 100, 65'535, 65'536,
                        0xFFFF'FFFEu, 0xFFFF'FFFFu};
  std::map<std::uint64_t, std::pair<PeerId, PeerId>> seen;
  for (PeerId a : ids) {
    for (PeerId b : ids) {
      const std::uint64_t key = NetworkModel::pair_key(a, b);
      EXPECT_EQ(key, NetworkModel::pair_key(b, a));
      const std::pair<PeerId, PeerId> canonical{std::min(a, b),
                                                std::max(a, b)};
      const auto [it, inserted] = seen.emplace(key, canonical);
      if (!inserted) {
        EXPECT_EQ(it->second, canonical)
            << "pair_key collision: {" << a << "," << b << "} vs {"
            << it->second.first << "," << it->second.second << "}";
      }
    }
  }
}

TEST(NetworkModel, ReservationIsDirectionless) {
  NetworkModel net(1, clock30());
  PeerId b = 1;
  while (net.capacity_kbps(0, b) != 10'000) ++b;
  EXPECT_TRUE(net.try_reserve(0, b, 6000, SimTime::zero()));
  // The same bottleneck is shared by both directions.
  EXPECT_DOUBLE_EQ(net.available_kbps(b, 0), net.available_kbps(0, b));
  net.release(b, 0, 6000, SimTime::zero());
  EXPECT_DOUBLE_EQ(net.available_kbps(0, b), 10'000);
}

TEST(NetworkModel, ProbedBandwidthIsEpochStale) {
  NetworkModel net(1, clock30());
  PeerId b = 1;
  while (net.capacity_kbps(0, b) != 10'000) ++b;
  EXPECT_TRUE(net.try_reserve(0, b, 5000, SimTime::seconds(5)));
  EXPECT_DOUBLE_EQ(net.probed_available_kbps(0, b, SimTime::seconds(10)),
                   10'000);
  EXPECT_DOUBLE_EQ(net.probed_available_kbps(0, b, SimTime::seconds(31)),
                   5'000);
}

TEST(NetworkModel, ActivePairsTracksReservedLinks) {
  NetworkModel net(1, clock30());
  EXPECT_EQ(net.active_pairs(), 0u);
  ASSERT_TRUE(net.try_reserve(0, 1, 1, SimTime::zero()));
  ASSERT_TRUE(net.try_reserve(0, 2, 1, SimTime::zero()));
  EXPECT_EQ(net.active_pairs(), 2u);
}

TEST(NetworkModel, SelfPairsNeverTouchTheLedger) {
  // Regression for the loopback-ledger bug: a==b reservations used to
  // insert a real ledger entry and run the float cancel/snap path. The
  // loopback is process-local memory — reserving on it must be a pure
  // no-op that leaves the ledger untouched.
  NetworkModel net(1, clock30());
  EXPECT_DOUBLE_EQ(net.available_kbps(5, 5), NetworkModel::kLoopbackKbps);
  ASSERT_TRUE(net.try_reserve(5, 5, 500'000, SimTime::zero()));
  EXPECT_EQ(net.active_pairs(), 0u);
  EXPECT_EQ(net.touched_pairs(), 1u);  // distinct self pairs still counted
  ASSERT_TRUE(net.try_reserve(5, 5, 500'000, SimTime::zero()));
  EXPECT_EQ(net.touched_pairs(), 1u);
  // Available bandwidth never moves: the loopback has no bottleneck.
  EXPECT_DOUBLE_EQ(net.available_kbps(5, 5), NetworkModel::kLoopbackKbps);
  EXPECT_DOUBLE_EQ(net.probed_available_kbps(5, 5, SimTime::seconds(40)),
                   NetworkModel::kLoopbackKbps);
  net.release(5, 5, 500'000, SimTime::zero());
  EXPECT_EQ(net.active_pairs(), 0u);
  // A different peer's self pair is a new distinct pair.
  ASSERT_TRUE(net.try_reserve(7, 7, 1, SimTime::zero()));
  EXPECT_EQ(net.touched_pairs(), 2u);
  EXPECT_EQ(net.active_pairs(), 0u);
}

TEST(NetworkModel, EvictionDropsDrainedPairsAtTheNextEpoch) {
  // Regression for the ledger-leak bug: fully released entries were never
  // erased, so the map grew with every pair ever touched. Once the
  // probe-epoch snapshot of a drained entry is unobservable, the entry
  // must go.
  NetworkModel net(1, clock30());
  net.set_evict_floor(0);
  constexpr PeerId kPairs = 64;
  for (PeerId b = 1; b <= kPairs; ++b) {
    ASSERT_TRUE(
        net.try_reserve(0, b, net.capacity_kbps(0, b) / 2, SimTime::zero()));
  }
  EXPECT_EQ(net.active_pairs(), kPairs);
  for (PeerId b = 1; b <= kPairs; ++b) {
    net.release(0, b, net.capacity_kbps(0, b) / 2, SimTime::seconds(5));
  }
  // Drained in epoch 0: still held — a prober in epoch 0 may yet read the
  // epoch-0 snapshot.
  EXPECT_EQ(net.active_pairs(), kPairs);
  // The first mutating call after the boundary sweeps them all out.
  ASSERT_TRUE(net.try_reserve(0, kPairs + 1, 1, SimTime::seconds(31)));
  EXPECT_EQ(net.active_pairs(), 1u);
  // Evicted pairs answer exactly as never-touched links would.
  EXPECT_DOUBLE_EQ(net.available_kbps(0, 2), net.capacity_kbps(0, 2));
  EXPECT_DOUBLE_EQ(net.probed_available_kbps(0, 2, SimTime::seconds(40)),
                   net.capacity_kbps(0, 2));
  // The monotone distinct-pair counter is unaffected by eviction.
  EXPECT_EQ(net.touched_pairs(), kPairs + 1u);
}

TEST(NetworkModel, EvictionSparesSnapshotsStillObservable) {
  // An entry drained *this* epoch still owes probers its epoch-start
  // snapshot: it must survive the sweep until the next boundary.
  NetworkModel net(1, clock30());
  net.set_evict_floor(0);
  PeerId b = 1;
  while (net.capacity_kbps(0, b) != 10'000) ++b;
  const double cap = net.capacity_kbps(0, b);
  ASSERT_TRUE(net.try_reserve(0, b, 5000, SimTime::seconds(5)));  // epoch 0
  // Released in epoch 1: the entry drains, but its epoch-1 snapshot (5000
  // reserved) stays visible to epoch-1 probers.
  net.release(0, b, 5000, SimTime::seconds(35));
  EXPECT_EQ(net.active_pairs(), 1u);
  EXPECT_DOUBLE_EQ(net.probed_available_kbps(0, b, SimTime::seconds(40)),
                   cap - 5000);
  EXPECT_DOUBLE_EQ(net.available_kbps(0, b), cap);
  // Epoch 2: the snapshot is dead; the next mutating call may evict.
  ASSERT_TRUE(net.try_reserve(0, b + 1, 1, SimTime::seconds(61)));
  EXPECT_EQ(net.active_pairs(), 1u);  // only the fresh reservation remains
  EXPECT_DOUBLE_EQ(net.probed_available_kbps(0, b, SimTime::seconds(65)), cap);
}

TEST(NetworkModel, EvictionRespectsTheFloor) {
  // Below the floor the sweep never runs: small grids (and the golden-
  // digest cells) keep every entry, so re-touched pairs are never
  // double-counted.
  NetworkModel net(1, clock30());  // default floor
  ASSERT_TRUE(net.try_reserve(0, 1, 1, SimTime::zero()));
  net.release(0, 1, 1, SimTime::seconds(2));
  ASSERT_TRUE(net.try_reserve(0, 2, 1, SimTime::seconds(31)));
  EXPECT_EQ(net.active_pairs(), 2u);  // drained entry kept below the floor
  ASSERT_TRUE(net.try_reserve(0, 1, 1, SimTime::seconds(32)));
  EXPECT_EQ(net.touched_pairs(), 2u);  // re-insert not double-counted
}

TEST(NetworkModel, LedgerMatchesMapReference) {
  // Random reserve/release traffic across epochs, with the sweep running on
  // every epoch advance, against a brute-force model: per resident pair the
  // full mutation history (epoch, reserved after), where the probed value in
  // epoch e is the last value written before e, and a sweep drops pairs at
  // zero whose last write predates the current epoch.
  NetworkModel net(7, clock30());
  net.set_evict_floor(0);
  ProbeClock clock = clock30();
  constexpr PeerId kPeers = 8;
  using History = std::vector<std::pair<std::int64_t, double>>;
  std::map<std::uint64_t, History> ref;
  std::vector<bool> self_seen(kPeers, false);
  std::uint64_t ref_touched = 0;
  struct Held {
    PeerId a, b;
    double kbps;
  };
  std::vector<Held> held;
  auto live = [&](PeerId a, PeerId b) {
    const auto it = ref.find(NetworkModel::pair_key(a, b));
    return it == ref.end() ? 0.0 : it->second.back().second;
  };
  auto probed = [&](PeerId a, PeerId b, std::int64_t epoch) {
    const auto it = ref.find(NetworkModel::pair_key(a, b));
    if (it == ref.end()) return 0.0;
    double v = 0;
    for (const auto& [e, after] : it->second) {
      if (e < epoch) v = after;
    }
    return v;
  };
  auto sweep = [&](std::int64_t epoch) {
    std::erase_if(ref, [epoch](const auto& kv) {
      return kv.second.back().second == 0 && kv.second.back().first < epoch;
    });
  };
  auto write = [&](PeerId a, PeerId b, std::int64_t epoch, double delta) {
    History& h = ref[NetworkModel::pair_key(a, b)];
    h.emplace_back(epoch, (h.empty() ? 0.0 : h.back().second) + delta);
  };

  util::Rng rng(util::derive_seed(3, "ledger-model", 0));
  constexpr double kAmounts[] = {1, 5, 20, 56, 100, 500, 5000};
  SimTime now = SimTime::zero();
  for (int step = 0; step < 3000; ++step) {
    now += SimTime::seconds(static_cast<double>(rng.index(12)));
    const std::int64_t epoch = clock.epoch(now);
    if (held.empty() || rng.bernoulli(0.55)) {
      const auto a = static_cast<PeerId>(rng.index(kPeers));
      const auto b = static_cast<PeerId>(rng.index(kPeers));
      const double kbps = kAmounts[rng.index(std::size(kAmounts))];
      if (a == b) {
        ASSERT_TRUE(net.try_reserve(a, b, kbps, now));
        if (!self_seen[a]) ++ref_touched;
        self_seen[a] = true;
      } else {
        sweep(epoch);
        const bool fits = kbps <= net.capacity_kbps(a, b) - live(a, b);
        ASSERT_EQ(net.try_reserve(a, b, kbps, now), fits) << "step " << step;
        if (fits) {
          if (!ref.contains(NetworkModel::pair_key(a, b))) ++ref_touched;
          write(a, b, epoch, kbps);
          held.push_back({a, b, kbps});
        }
      }
    } else {
      const std::size_t i = rng.index(held.size());
      const Held h = held[i];
      held[i] = held.back();
      held.pop_back();
      sweep(epoch);
      net.release(h.a, h.b, h.kbps, now);
      write(h.a, h.b, epoch, -h.kbps);
    }
    ASSERT_EQ(net.active_pairs(), ref.size()) << "step " << step;
    ASSERT_EQ(net.touched_pairs(), ref_touched) << "step " << step;
    for (PeerId a = 0; a < kPeers; ++a) {
      for (PeerId b = a + 1; b < kPeers; ++b) {
        const double cap = net.capacity_kbps(a, b);
        ASSERT_EQ(net.available_kbps(a, b), cap - live(a, b))
            << "step " << step << " pair " << a << "," << b;
        ASSERT_EQ(net.probed_available_kbps(a, b, now),
                  cap - probed(a, b, epoch))
            << "step " << step << " pair " << a << "," << b;
      }
    }
  }
}

// ------------------------------------------------- NetworkModel (coords)

TEST(NetworkModelCoords, MarginalsMatchPaperLevelSets) {
  // The synthetic-coordinate model must keep the paper's Section 4.1
  // marginals: latency levels {1,20,80,150,200} ms at ~20% each (distance
  // quantiles of the unit square) and bandwidth levels at ~25% each
  // (per-peer access tiers with sqrt-shaped CDF, pair = worse endpoint).
  NetworkModel net(3, clock30(), NetModelKind::kCoords);
  std::map<std::int64_t, int> lat;
  std::map<double, int> cap;
  constexpr PeerId kPeers = 250;
  int pairs = 0;
  for (PeerId a = 0; a < kPeers; ++a) {
    for (PeerId b = a + 1; b < kPeers; ++b) {
      ++lat[net.latency(a, b).as_millis()];
      ++cap[net.capacity_kbps(a, b)];
      ++pairs;
    }
  }
  ASSERT_EQ(lat.size(), 5u);
  for (std::int64_t ms : {200, 150, 80, 20, 1}) {
    ASSERT_TRUE(lat.contains(ms)) << ms;
    const double share = static_cast<double>(lat[ms]) / pairs;
    EXPECT_NEAR(share, 0.20, 0.06) << ms << " ms";
  }
  ASSERT_EQ(cap.size(), 4u);
  for (double kbps : {10'000.0, 500.0, 100.0, 56.0}) {
    ASSERT_TRUE(cap.contains(kbps)) << kbps;
    const double share = static_cast<double>(cap[kbps]) / pairs;
    EXPECT_NEAR(share, 0.25, 0.08) << kbps << " kbps";
  }
}

TEST(NetworkModelCoords, SymmetricDeterministicAndSeedSensitive) {
  NetworkModel n1(7, clock30(), NetModelKind::kCoords);
  NetworkModel n1b(7, clock30(), NetModelKind::kCoords);
  NetworkModel n2(8, clock30(), NetModelKind::kCoords);
  int differing = 0;
  for (PeerId b = 1; b < 64; ++b) {
    EXPECT_EQ(n1.latency(0, b), n1.latency(b, 0));
    EXPECT_DOUBLE_EQ(n1.capacity_kbps(0, b), n1.capacity_kbps(b, 0));
    EXPECT_EQ(n1.latency(0, b), n1b.latency(0, b));
    EXPECT_DOUBLE_EQ(n1.capacity_kbps(0, b), n1b.capacity_kbps(0, b));
    differing += n1.latency(0, b) != n2.latency(0, b);
  }
  EXPECT_GT(differing, 10);
}

TEST(NetworkModelCoords, LatencyIsMonotoneInCoordinateDistance) {
  // The whole point of the coordinate derivation: pair latency is a
  // quantized function of Euclidean distance, so closer peers never read
  // a higher latency level than farther ones.
  NetworkModel net(11, clock30(), NetModelKind::kCoords);
  const auto dist = [&](PeerId a, PeerId b) {
    const auto [ax, ay] = net.coordinate(a);
    const auto [bx, by] = net.coordinate(b);
    const double dx = ax - bx, dy = ay - by;
    return dx * dx + dy * dy;
  };
  for (PeerId a = 0; a < 20; ++a) {
    for (PeerId b = 0; b < 20; ++b) {
      for (PeerId c = 0; c < 20; ++c) {
        if (a == b || a == c || b == c) continue;
        if (dist(a, b) < dist(a, c)) {
          EXPECT_LE(net.latency(a, b), net.latency(a, c));
        }
      }
    }
  }
}

TEST(NetworkModelCoords, BandwidthIsTheWorseAccessTier) {
  NetworkModel net(5, clock30(), NetModelKind::kCoords);
  for (PeerId a = 0; a < 40; ++a) {
    EXPECT_GE(net.access_tier(a), 0);
    EXPECT_LT(net.access_tier(a), 4);
    for (PeerId b = a + 1; b < 40; ++b) {
      const int worse = std::max(net.access_tier(a), net.access_tier(b));
      EXPECT_DOUBLE_EQ(net.capacity_kbps(a, b),
                       NetworkModel::kBandwidthLevelsKbps[
                           static_cast<std::size_t>(worse)]);
    }
  }
}

TEST(NetworkModelCoords, LoopbackAndReservationsBehaveIdentically) {
  NetworkModel net(1, clock30(), NetModelKind::kCoords);
  EXPECT_EQ(net.latency(5, 5), SimTime::zero());
  EXPECT_DOUBLE_EQ(net.capacity_kbps(5, 5), NetworkModel::kLoopbackKbps);
  const double cap = net.capacity_kbps(0, 1);
  ASSERT_TRUE(net.try_reserve(0, 1, cap / 2, SimTime::zero()));
  EXPECT_DOUBLE_EQ(net.available_kbps(0, 1), cap - cap / 2);
  EXPECT_FALSE(net.try_reserve(0, 1, cap, SimTime::zero()));
  net.release(0, 1, cap / 2, SimTime::zero());
  EXPECT_DOUBLE_EQ(net.available_kbps(0, 1), cap);
}

// --------------------------------------------- PeerTable (paged storage)

TEST(PeerTablePaging, FullyDepartedPagesAreReclaimed) {
  PeerTable t(qos::ResourceSchema::paper(), clock30(), /*page_size=*/16);
  std::vector<PeerId> ids;
  for (int i = 0; i < 160; ++i) {
    ids.push_back(t.add_peer(ResourceVector{100, 100}, SimTime::zero()));
  }
  EXPECT_EQ(t.resident_slots(), 160u);
  // Drain the first 9 pages inside epoch 1.
  for (int i = 0; i < 144; ++i) t.remove_peer(ids[i], SimTime::seconds(40));
  // Same epoch: departed peers may still be probed alive, pages stay.
  EXPECT_EQ(t.resident_slots(), 160u);
  EXPECT_TRUE(t.probed_alive(ids[0], SimTime::seconds(45)));
  // Any table op after the epoch boundary reclaims the drained pages.
  t.add_peer(ResourceVector{100, 100}, SimTime::seconds(70));
  EXPECT_EQ(t.resident_pages(), 2u);  // the live tail + the fresh arrival
  EXPECT_EQ(t.resident_slots(), 32u);
  // Reclaimed peers answer exactly like long-departed ones.
  EXPECT_FALSE(t.alive(ids[0]));
  EXPECT_FALSE(t.probed_alive(ids[0], SimTime::seconds(70)));
  EXPECT_FALSE(t.try_reserve(ids[0], ResourceVector{1, 1},
                             SimTime::seconds(70)));
  t.release(ids[0], ResourceVector{1, 1}, SimTime::seconds(70));  // no-op
  // Ids are never reused and the live peers are untouched.
  EXPECT_EQ(t.total_peers(), 161u);
  EXPECT_TRUE(t.alive(ids[150]));
  EXPECT_EQ(t.peer(ids[150]).available(), (ResourceVector{100, 100}));
}

TEST(PeerTablePaging, ResidentFootprintPlateausUnderChurn) {
  // Long-horizon churn: arrivals replace departures wave after wave. Total
  // arrivals grow without bound; the resident footprint must plateau at
  // O(alive + one epoch of departures).
  PeerTable t(qos::ResourceSchema::paper(), clock30(), /*page_size=*/16);
  std::vector<PeerId> wave;
  for (int i = 0; i < 32; ++i) {
    wave.push_back(t.add_peer(ResourceVector{100, 100}, SimTime::zero()));
  }
  std::size_t peak_pages = 0;
  for (int round = 1; round <= 50; ++round) {
    const SimTime now = SimTime::seconds(30 * round);
    std::vector<PeerId> next;
    for (int i = 0; i < 32; ++i) {
      next.push_back(t.add_peer(ResourceVector{100, 100}, now));
    }
    for (PeerId id : wave) t.remove_peer(id, now);
    wave = std::move(next);
    peak_pages = std::max(peak_pages, t.resident_pages());
  }
  EXPECT_EQ(t.total_peers(), 32u * 51);
  EXPECT_EQ(t.alive_count(), 32u);
  // 32 alive + up to two epochs of not-yet-reclaimed departures: a handful
  // of 16-slot pages, nowhere near the 102 ever allocated.
  EXPECT_LE(peak_pages, 10u);
  EXPECT_LE(t.resident_pages(), 10u);
}

TEST(PeerTablePaging, ProbedRowMatchesTheThreeReads) {
  // probed() must equal probed_alive(), probed_available() and
  // probed_uptime() for every kind of peer a prober can name.
  PeerTable t(qos::ResourceSchema::paper(), clock30(), /*page_size=*/4);
  std::vector<PeerId> ids;
  for (int i = 0; i < 8; ++i) {
    ids.push_back(t.add_peer(ResourceVector{100, 200},
                             SimTime::seconds(-10.0 * i)));
  }
  // Page 0 (ids 0-3) drains in epoch 0 and is reclaimed once the clock
  // moves on; on page 1, ids[5] departs in an earlier epoch than the query
  // and ids[6] in the query's own epoch.
  for (int i = 0; i < 4; ++i) t.remove_peer(ids[i], SimTime::seconds(10));
  ASSERT_TRUE(t.try_reserve(ids[4], ResourceVector{30, 40},
                            SimTime::seconds(40)));
  t.remove_peer(ids[5], SimTime::seconds(50));
  ASSERT_TRUE(t.try_reserve(ids[4], ResourceVector{5, 5},
                            SimTime::seconds(95)));
  t.remove_peer(ids[6], SimTime::seconds(100));
  ASSERT_EQ(t.resident_pages(), 1u);  // page 0 is gone

  const SimTime now = SimTime::seconds(110);  // epoch 3, boundary 90 s
  struct Case {
    const char* kind;
    PeerId id;
    bool alive;
  };
  const Case cases[] = {
      {"alive", ids[4], true},
      {"departed this epoch", ids[6], true},
      {"departed in an earlier epoch", ids[5], false},
      {"on a reclaimed page", ids[0], false},
  };
  for (const Case& c : cases) {
    const ProbedPeer row = t.probed(c.id, now);
    EXPECT_EQ(row.alive, c.alive) << c.kind;
    EXPECT_EQ(row.alive, t.probed_alive(c.id, now)) << c.kind;
    if (c.id == ids[0]) continue;  // the other reads require a resident page
    EXPECT_EQ(row.available, t.probed_available(c.id, now)) << c.kind;
    EXPECT_EQ(row.uptime, t.probed_uptime(c.id, now)) << c.kind;
  }
  // The epoch-stale availability: the reservation made in epoch 3 is not
  // yet visible, the one from epoch 1 is.
  EXPECT_EQ(t.probed(ids[4], now).available, (ResourceVector{70, 160}));
}

TEST(PeerTablePaging, ReservationsSurviveAcrossPageBoundaries) {
  PeerTable t(qos::ResourceSchema::paper(), clock30(), /*page_size=*/4);
  std::vector<PeerId> ids;
  for (int i = 0; i < 12; ++i) {
    ids.push_back(t.add_peer(ResourceVector{100, 100}, SimTime::zero()));
  }
  for (PeerId id : ids) {
    ASSERT_TRUE(t.try_reserve(id, ResourceVector{30, 30}, SimTime::zero()));
  }
  for (PeerId id : ids) {
    EXPECT_EQ(t.peer(id).available(), (ResourceVector{70, 70}));
  }
  for (PeerId id : ids) {
    t.release(id, ResourceVector{30, 30}, SimTime::seconds(5));
    EXPECT_EQ(t.peer(id).available(), (ResourceVector{100, 100}));
  }
}

}  // namespace
}  // namespace qsa::net
