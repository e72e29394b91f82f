// Reference-model fuzzing: long random operation sequences where every qsa
// data structure is shadowed by a trivially-correct STL model and compared
// step by step.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <iterator>
#include <map>
#include <queue>
#include <set>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "qsa/fault/fault.hpp"
#include "qsa/net/network.hpp"
#include "qsa/overlay/chord_id.hpp"
#include "qsa/overlay/chord_ring.hpp"
#include "qsa/probe/neighbor_table.hpp"
#include "qsa/qos/vector.hpp"
#include "qsa/sim/event_queue.hpp"
#include "qsa/util/expects.hpp"
#include "qsa/util/parallel_for.hpp"
#include "qsa/util/rng.hpp"
#include "qsa/util/small_vec.hpp"

namespace qsa {
namespace {

// ---------------------------------------------------------- EventQueue

class EventQueueModel : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EventQueueModel, MatchesSortedReference) {
  util::Rng rng(util::derive_seed(GetParam(), "eq-model", 0));
  sim::EventQueue queue;
  // Reference: ordered multimap (time, seq) -> payload; mimic cancellation.
  struct Ref {
    std::int64_t time;
    std::uint64_t seq;
    int payload;
    bool cancelled = false;
  };
  std::vector<Ref> ref;
  std::vector<std::pair<sim::EventHandle, std::size_t>> handles;
  std::uint64_t seq = 0;
  std::int64_t now = 0;
  int fired_payload = -1;

  for (int step = 0; step < 3000; ++step) {
    const auto action = rng.index(5);
    if (action <= 2) {  // schedule (most common)
      const std::int64_t at = now + static_cast<std::int64_t>(rng.index(50));
      const int payload = static_cast<int>(seq);
      auto h = queue.schedule(sim::SimTime::millis(at),
                              [&fired_payload, payload] {
                                fired_payload = payload;
                              });
      ref.push_back(Ref{at, seq, payload});
      handles.emplace_back(h, ref.size() - 1);
      ++seq;
    } else if (action == 3 && !handles.empty()) {  // cancel a random handle
      const std::size_t i = rng.index(handles.size());
      queue.cancel(handles[i].first);
      ref[handles[i].second].cancelled = true;  // may already be fired: ok
    } else if (!queue.empty()) {  // pop
      auto fired = queue.pop();
      fired_payload = -1;
      fired.action();
      now = fired.time.as_millis();
      // The reference pick: earliest (time, seq) among live entries.
      std::size_t best = ref.size();
      for (std::size_t i = 0; i < ref.size(); ++i) {
        if (ref[i].cancelled) continue;
        if (best == ref.size() || ref[i].time < ref[best].time ||
            (ref[i].time == ref[best].time && ref[i].seq < ref[best].seq)) {
          best = i;
        }
      }
      ASSERT_LT(best, ref.size());
      EXPECT_EQ(fired.time.as_millis(), ref[best].time) << "step " << step;
      EXPECT_EQ(fired_payload, ref[best].payload) << "step " << step;
      ref[best].cancelled = true;  // consumed
    }
    // Size agreement.
    std::size_t live = 0;
    for (const auto& r : ref) live += !r.cancelled;
    ASSERT_EQ(queue.size(), live) << "step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueModel, ::testing::Values(1, 2, 3));

// ----------------------------------------------------------- QosVector

class QosVectorModel : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(QosVectorModel, MatchesMapReference) {
  util::Rng rng(util::derive_seed(GetParam(), "qv-model", 0));
  qos::QosVector vec;
  std::map<qos::ParamId, qos::QosValue> ref;
  for (int step = 0; step < 500; ++step) {
    const auto param = static_cast<qos::ParamId>(rng.index(qos::kMaxQosDims));
    const auto value = rng.bernoulli(0.5)
                           ? qos::QosValue::single(rng.uniform(0, 10))
                           : qos::QosValue::range(rng.uniform(0, 5),
                                                  rng.uniform(5, 10));
    vec.set(param, value);
    ref.insert_or_assign(param, value);

    ASSERT_EQ(vec.dim(), ref.size());
    // Same content, same (sorted) order.
    auto it = ref.begin();
    for (const auto& d : vec) {
      ASSERT_NE(it, ref.end());
      EXPECT_EQ(d.param, it->first);
      EXPECT_EQ(d.value, it->second);
      ++it;
    }
    // Point lookups agree.
    const auto probe_param =
        static_cast<qos::ParamId>(rng.index(qos::kMaxQosDims));
    const auto got = vec.get(probe_param);
    const auto rit = ref.find(probe_param);
    ASSERT_EQ(got.has_value(), rit != ref.end());
    if (got) {
      EXPECT_EQ(*got, rit->second);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QosVectorModel, ::testing::Values(1, 2, 3));

// ------------------------------------------------------------ SmallVec

class SmallVecModel : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SmallVecModel, MatchesVectorReference) {
  util::Rng rng(util::derive_seed(GetParam(), "sv-model", 0));
  util::SmallVec<int, 8> sv;
  std::vector<int> ref;
  for (int step = 0; step < 2000; ++step) {
    switch (rng.index(4)) {
      case 0:
        if (sv.size() < decltype(sv)::capacity()) {
          const int v = static_cast<int>(rng.uniform_int(-100, 100));
          sv.push_back(v);
          ref.push_back(v);
        }
        break;
      case 1:
        if (!sv.empty()) {
          sv.pop_back();
          ref.pop_back();
        }
        break;
      case 2: {
        const auto n = rng.index(decltype(sv)::capacity() + 1);
        const int fill = static_cast<int>(rng.uniform_int(0, 9));
        sv.resize(n, fill);
        ref.resize(n, fill);
        break;
      }
      default:
        if (!sv.empty()) {
          const std::size_t i = rng.index(sv.size());
          const int v = static_cast<int>(rng.uniform_int(-100, 100));
          sv[i] = v;
          ref[i] = v;
        }
        break;
    }
    ASSERT_EQ(sv.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
      ASSERT_EQ(sv[i], ref[i]) << "step " << step;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SmallVecModel, ::testing::Values(1, 2, 3));

// -------------------------------------------------------- NeighborTable

class NeighborTableModel : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NeighborTableModel, InvariantsUnderRandomOps) {
  util::Rng rng(util::derive_seed(GetParam(), "nt-model", 0));
  constexpr std::size_t kBudget = 12;
  probe::NeighborTable table(kBudget);
  sim::SimTime now = sim::SimTime::zero();
  for (int step = 0; step < 2000; ++step) {
    now += sim::SimTime::seconds(rng.uniform(0, 30));
    const auto peer = static_cast<net::PeerId>(rng.index(40));
    const auto hop = static_cast<std::uint8_t>(1 + rng.index(4));
    const auto kind = rng.bernoulli(0.5) ? probe::NeighborKind::kDirect
                                         : probe::NeighborKind::kIndirect;
    if (table.add(peer, hop, kind, now, sim::SimTime::minutes(30))) {
      EXPECT_TRUE(table.knows(peer, now));
    }
    // Invariants: never over budget; knows() == unexpired entry.
    ASSERT_LE(table.size(), kBudget) << "step " << step;
    table.for_each([&](net::PeerId p, const probe::NeighborEntry& entry) {
      EXPECT_EQ(table.knows(p, now), entry.expires > now);
      EXPECT_GE(entry.hop, 1);
    });
  }
}

/// Brute-force reference for the eviction index: the entries in a std::map
/// and, in add(), the three-level victim scan NeighborTable used before its
/// heap index, copied verbatim.
class ScanNeighborTable {
 public:
  explicit ScanNeighborTable(std::size_t budget) : budget_(budget) {}

  bool add(net::PeerId peer, std::uint8_t hop, probe::NeighborKind kind,
           sim::SimTime now, sim::SimTime ttl) {
    using probe::benefit_rank;
    using probe::NeighborEntry;
    const sim::SimTime expires = now + ttl;
    if (auto it = entries_.find(peer); it != entries_.end()) {
      // Refresh: keep the better benefit, extend the deadline.
      if (benefit_rank(hop, kind) < benefit_rank(it->second.hop, it->second.kind)) {
        it->second.hop = hop;
        it->second.kind = kind;
      }
      if (expires > it->second.expires) it->second.expires = expires;
      return true;
    }
    if (entries_.size() >= budget_) {
      // Evict the lowest-benefit entry, breaking ties towards the one expiring
      // soonest — but never evict something more beneficial than the newcomer.
      // Every comparison level ends with a PeerId tiebreak: the victim is a
      // pure function of the table contents, independent of iteration order,
      // so the evicted peer (and everything downstream of the table's
      // contents) is reproducible.
      bool have_victim = false;   // worst live entry
      bool have_expired = false;  // longest-expired entry, if any
      net::PeerId victim_peer = net::kNoPeer;
      NeighborEntry victim_entry;
      net::PeerId expired_peer = net::kNoPeer;
      NeighborEntry expired_entry;
      for (const auto& [p, entry] : entries_) {
        if (entry.expires <= now) {
          if (!have_expired || entry.expires < expired_entry.expires ||
              (entry.expires == expired_entry.expires && p > expired_peer)) {
            have_expired = true;  // expired: free to reuse regardless of rank
            expired_peer = p;
            expired_entry = entry;
          }
          continue;
        }
        if (!have_victim) {
          have_victim = true;
          victim_peer = p;
          victim_entry = entry;
          continue;
        }
        const int p_rank = benefit_rank(entry.hop, entry.kind);
        const int victim_rank =
            benefit_rank(victim_entry.hop, victim_entry.kind);
        if (p_rank > victim_rank ||
            (p_rank == victim_rank &&
             (entry.expires < victim_entry.expires ||
              (entry.expires == victim_entry.expires && p > victim_peer)))) {
          victim_peer = p;
          victim_entry = entry;
        }
      }
      if (have_expired) {
        victim_peer = expired_peer;
        victim_entry = expired_entry;
        have_victim = true;
      }
      QSA_ASSERT(have_victim);
      const bool victim_expired = victim_entry.expires <= now;
      if (!victim_expired &&
          benefit_rank(victim_entry.hop, victim_entry.kind) <
              benefit_rank(hop, kind)) {
        return false;  // everything in the table beats the newcomer
      }
      entries_.erase(victim_peer);
    }
    entries_.emplace(peer, NeighborEntry{hop, kind, expires});
    return true;
  }

  [[nodiscard]] const std::map<net::PeerId, probe::NeighborEntry>& entries()
      const noexcept {
    return entries_;
  }

 private:
  std::size_t budget_;
  std::map<net::PeerId, probe::NeighborEntry> entries_;
};

/// The table's contents as an ordered map, for comparison with the scan.
std::map<net::PeerId, probe::NeighborEntry> contents(
    const probe::NeighborTable& table) {
  std::map<net::PeerId, probe::NeighborEntry> out;
  table.for_each([&](net::PeerId p, const probe::NeighborEntry& entry) {
    out.emplace(p, entry);
  });
  return out;
}

/// An entry's fields, comparable and printable.
std::tuple<int, int, std::int64_t> fields(const probe::NeighborEntry& e) {
  return {e.hop, static_cast<int>(e.kind), e.expires.as_millis()};
}

TEST_P(NeighborTableModel, VictimMatchesScanReference) {
  // Random add / refresh / rank-upgrade sequences drive the heap-indexed
  // table and the scan side by side. Deadlines are whole minutes a few
  // minutes out, so rank ties, deadline ties and expired entries are all
  // common; after every step both must agree on add()'s verdict and on the
  // full contents (hence on every victim).
  constexpr std::size_t kBudgets[] = {1, 2, 12, 100};
  for (const std::size_t budget : kBudgets) {
    util::Rng rng(util::derive_seed(GetParam(), "nt-victim", budget));
    probe::NeighborTable table(budget);
    ScanNeighborTable ref(budget);
    const std::size_t universe = 3 * budget + 4;
    sim::SimTime now = sim::SimTime::zero();
    auto existing = [&]() -> const std::pair<const net::PeerId,
                                             probe::NeighborEntry>* {
      if (ref.entries().empty()) return nullptr;
      auto it = ref.entries().begin();
      std::advance(it, rng.index(ref.entries().size()));
      return &*it;
    };
    // Outcomes of adds that found the table full, so a run that never
    // reaches a victim cannot pass vacuously.
    int rejected = 0;
    int live_evictions = 0;
    int expired_evictions = 0;
    for (int step = 0; step < 4000; ++step) {
      // About budget/2 operations per minute keeps the table contested.
      if (rng.bernoulli(0.5 / static_cast<double>(budget))) {
        now += sim::SimTime::minutes(1);
      }
      const sim::SimTime ttl = sim::SimTime::minutes(1 + rng.index(4));
      auto hop = static_cast<std::uint8_t>(1 + rng.index(4));
      auto kind = rng.bernoulli(0.5) ? probe::NeighborKind::kDirect
                                     : probe::NeighborKind::kIndirect;
      auto peer = static_cast<net::PeerId>(rng.index(universe));
      const std::size_t op = rng.index(10);
      if (op <= 5) {  // add, refresh or rank-upgrade
        if (op == 4) {  // refresh an entry with any rank
          if (const auto* e = existing()) peer = e->first;
        } else if (op == 5) {  // upgrade an entry to a strictly better rank
          if (const auto* e = existing()) {
            const int rank = probe::benefit_rank(e->second.hop, e->second.kind);
            if (rank > 0) {
              peer = e->first;
              const auto better =
                  static_cast<int>(rng.index(static_cast<std::size_t>(rank)));
              hop = static_cast<std::uint8_t>(better / 2 + 1);
              kind = better % 2 == 0 ? probe::NeighborKind::kDirect
                                     : probe::NeighborKind::kIndirect;
            }
          }
        }
        const bool contested = ref.entries().size() >= budget &&
                               !ref.entries().contains(peer);
        const bool any_expired = std::any_of(
            ref.entries().begin(), ref.entries().end(),
            [now](const auto& kv) { return kv.second.expires <= now; });
        const bool added = ref.add(peer, hop, kind, now, ttl);
        ASSERT_EQ(table.add(peer, hop, kind, now, ttl), added)
            << "budget " << budget << " step " << step;
        if (contested) {
          ++(!added ? rejected : any_expired ? expired_evictions
                                             : live_evictions);
        }
      }  // ops 6-9: time passes with no operation
      ASSERT_EQ(table.size(), ref.entries().size())
          << "budget " << budget << " step " << step;
      const auto got = contents(table);
      ASSERT_EQ(got.size(), ref.entries().size());
      for (const auto& [p, want] : ref.entries()) {
        const auto it = got.find(p);
        const auto found = table.find(p);
        ASSERT_TRUE(it != got.end())
            << "budget " << budget << " step " << step << " peer " << p;
        ASSERT_TRUE(found.has_value());
        ASSERT_EQ(fields(it->second), fields(want))
            << "budget " << budget << " step " << step << " peer " << p;
        ASSERT_EQ(fields(*found), fields(want));
      }
    }
    EXPECT_GT(rejected, 0) << "budget " << budget;
    EXPECT_GT(live_evictions, 0) << "budget " << budget;
    EXPECT_GT(expired_evictions, 0) << "budget " << budget;
  }

  // A grid-shaped mix: monotone time, same-instant bursts of 40-80 ascending
  // PeerIds at one rank (one hop's candidates registered or prepared in one
  // call), the grid's 90-minute TTL, and mostly (80%) re-registrations of
  // earlier bursts, a third of them at a strictly better rank and a third at
  // any rank, so refreshed entries whose heap keys overstate them pile up.
  // Budget 4096 runs every growth step of the table's storage. Verdicts are
  // compared per add, contents per burst.
  constexpr std::size_t kGridBudgets[] = {1, 2, 12, 100, 4096};
  for (const std::size_t budget : kGridBudgets) {
    util::Rng rng(util::derive_seed(GetParam(), "nt-grid", budget));
    probe::NeighborTable table(budget);
    ScanNeighborTable ref(budget);
    const sim::SimTime ttl = sim::SimTime::minutes(90);
    const std::size_t universe = budget + budget / 4 + 300;
    std::size_t cursor = 0;  // new bursts sweep the universe in order
    sim::SimTime now = sim::SimTime::zero();
    struct Burst {
      std::vector<net::PeerId> peers;  // ascending
      int rank = 0;
    };
    std::vector<Burst> bursts;
    int rejected = 0;
    int live_evictions = 0;
    const std::size_t burst_count = 300 + budget / 8;  // enough to fill
    for (std::size_t b = 0; b < burst_count; ++b) {
      now += sim::SimTime::millis(static_cast<std::int64_t>(rng.index(5'000)));
      Burst burst;
      if (!bursts.empty() && rng.bernoulli(0.8)) {
        burst = bursts[rng.index(bursts.size())];  // a refresh
        const std::size_t how = rng.index(3);
        if (how == 0 && burst.rank > 0) {
          burst.rank = static_cast<int>(
              rng.index(static_cast<std::size_t>(burst.rank)));
        } else if (how == 1) {
          burst.rank = static_cast<int>(rng.index(6));
        }
      } else {
        std::set<net::PeerId> picked;
        const std::size_t size = 40 + rng.index(41);
        while (picked.size() < size) {
          cursor = (cursor + 1 + rng.index(3)) % universe;
          picked.insert(static_cast<net::PeerId>(cursor));
        }
        burst.peers.assign(picked.begin(), picked.end());
        burst.rank = static_cast<int>(rng.index(6));
        bursts.push_back(burst);
      }
      const auto hop = static_cast<std::uint8_t>(burst.rank / 2 + 1);
      const auto kind = burst.rank % 2 == 0 ? probe::NeighborKind::kDirect
                                            : probe::NeighborKind::kIndirect;
      for (const net::PeerId peer : burst.peers) {
        const bool contested = ref.entries().size() >= budget &&
                               !ref.entries().contains(peer);
        const bool added = ref.add(peer, hop, kind, now, ttl);
        ASSERT_EQ(table.add(peer, hop, kind, now, ttl), added)
            << "grid budget " << budget << " burst " << b << " peer " << peer;
        if (contested) ++(added ? live_evictions : rejected);
        ASSERT_EQ(table.size(), ref.entries().size());
      }
      // Equal sizes and every reference entry found: equal contents.
      for (const auto& [p, want] : ref.entries()) {
        const auto found = table.find(p);
        ASSERT_TRUE(found.has_value())
            << "grid budget " << budget << " burst " << b << " peer " << p;
        ASSERT_EQ(fields(*found), fields(want))
            << "grid budget " << budget << " burst " << b << " peer " << p;
      }
    }
    // Under 90 minutes pass, so no entry expires and every contested add
    // above was a rejection or a live eviction.
    ASSERT_LT(now, ttl);
    EXPECT_GT(rejected, 0) << "grid budget " << budget;
    EXPECT_GT(live_evictions, 0) << "grid budget " << budget;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NeighborTableModel,
                         ::testing::Values(1, 2, 3, 4));

// ------------------------------------------------------------ ChordRing

using overlay::ChordKey;
using overlay::ChordRing;
using overlay::kKeyBits;
using Fingers = std::array<ChordKey, kKeyBits>;

/// The finger routine ChordRing used before its cursor sweep, verbatim
/// except that it writes a bare array: 64 independent binary searches over
/// a sorted snapshot of the member keys.
void compute_fingers_sorted(const std::vector<ChordKey>& keys, ChordKey at,
                            Fingers& fingers) {
  QSA_EXPECTS(!keys.empty());
  for (int i = 0; i < kKeyBits; ++i) {
    const ChordKey target = at + (ChordKey{1} << i);  // wraps mod 2^64
    const auto it = std::lower_bound(keys.begin(), keys.end(), target);
    // Same wrap rule as successor(): past the end means the first node.
    fingers[static_cast<std::size_t>(i)] =
        it == keys.end() ? keys.front() : *it;
  }
}

/// A ChordRing under test and its membership, shadowed in a std::map.
class ShadowedRing {
 public:
  explicit ShadowedRing(std::uint64_t seed) : seed_(seed), ring_(seed) {}

  void join(net::PeerId peer, bool deferred) {
    deferred ? ring_.join_deferred(peer) : ring_.join(peer);
    members_.emplace(overlay::node_key(seed_, peer), peer);
  }

  void fail(net::PeerId peer) {
    ring_.fail(peer);
    members_.erase(overlay::node_key(seed_, peer));
  }

  /// A member picked by `rng`; requires a non-empty ring.
  net::PeerId any_member(util::Rng& rng) const {
    auto it = members_.begin();
    std::advance(it, rng.index(members_.size()));
    return it->second;
  }

  /// Nodes one stabilize_round(fraction) refreshes.
  std::size_t round_size(double fraction) const {
    const std::size_t n = members_.size();
    return std::min(n, std::max<std::size_t>(
                           1, static_cast<std::size_t>(std::ceil(
                                  fraction * static_cast<double>(n)))));
  }

  /// Rounds until every member has been refreshed since the last change.
  void full_pass(double fraction) {
    for (std::size_t done = 0; done < members_.size();
         done += round_size(fraction)) {
      ring_.stabilize_round(fraction);
    }
  }

  /// Members whose fingers differ from the reference over a fresh walk of
  /// the membership map; the first one is described in `first`.
  std::size_t mismatches(std::string& first) const {
    std::vector<ChordKey> keys;
    for (const auto& [key, peer] : members_) keys.push_back(key);
    std::size_t bad = 0;
    for (const auto& [key, peer] : members_) {
      Fingers want;
      compute_fingers_sorted(keys, key, want);
      const Fingers& got = ring_.fingers(peer);
      if (got == want) continue;
      if (bad++ == 0) {
        const auto i = std::mismatch(got.begin(), got.end(), want.begin())
                           .first - got.begin();
        first = "peer " + std::to_string(peer) + " finger " +
                std::to_string(i) + ": " + std::to_string(got[i]) +
                " want " + std::to_string(want[i]);
      }
    }
    return bad;
  }

  ChordRing& ring() { return ring_; }
  std::size_t size() const { return members_.size(); }
  bool has(net::PeerId peer) const {
    return members_.contains(overlay::node_key(seed_, peer));
  }

 private:
  std::uint64_t seed_;
  ChordRing ring_;
  std::map<ChordKey, net::PeerId> members_;
};

class ChordFingerModel : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChordFingerModel, SweepMatchesSortedSearchReference) {
  std::size_t compared = 0;
  // Rounds: random joins, deferred joins and failures between stabilize
  // rounds of every size, then a full pass with no change, after which
  // every node's fingers must equal the reference's. Each epoch also has a
  // peer fail and rejoin between two rounds, and some epochs a burst of
  // deferred joins that fills the universe.
  constexpr double kFractions[] = {0.01, 0.05, 0.1, 0.3, 0.5, 1.0, 1.7};
  for (const double fraction : kFractions) {
    util::Rng rng(util::derive_seed(GetParam(), "chord-sweep",
                                    static_cast<std::uint64_t>(fraction * 100)));
    ShadowedRing model(util::derive_seed(GetParam(), "chord-ring", 0));
    constexpr net::PeerId kUniverse = 600;
    for (net::PeerId p = 0; p < 150; ++p) {
      model.join(p, /*deferred=*/true);
    }
    model.ring().stabilize_all();
    for (int epoch = 0; epoch < 12; ++epoch) {
      const int steps = static_cast<int>(rng.index(40));
      for (int step = 0; step < steps; ++step) {
        const auto peer = static_cast<net::PeerId>(rng.index(kUniverse));
        if (!model.has(peer)) {
          model.join(peer, rng.bernoulli(0.5));
        } else if (model.size() > 1) {
          model.fail(peer);
        }
        if (rng.bernoulli(0.2)) model.ring().stabilize_round(fraction);
      }
      const net::PeerId back = model.any_member(rng);
      model.fail(back);
      model.join(back, rng.bernoulli(0.5));
      model.ring().stabilize_round(fraction);
      if (epoch % 4 == 3) {
        for (net::PeerId p = 0; p < kUniverse; ++p) {
          if (!model.has(p)) model.join(p, /*deferred=*/true);
        }
      }
      model.full_pass(fraction);
      std::string first;
      ASSERT_EQ(model.mismatches(first), 0u)
          << "fraction " << fraction << " epoch " << epoch << ": " << first;
      compared += model.size();
    }
  }
  // stabilize_all(): the smallest rings (every finger wraps) and one past
  // the parallel threshold, with a last chunk shorter than the others.
  constexpr std::size_t kSizes[] = {1, 2, 3, 17,
                                    ChordRing::kPooledStabilizeMin + 555};
  for (const std::size_t size : kSizes) {
    util::Rng rng(util::derive_seed(GetParam(), "chord-all", size));
    ShadowedRing model(util::derive_seed(GetParam(), "chord-all-ring", size));
    for (net::PeerId p = 0; p < size; ++p) {
      model.join(p, rng.bernoulli(0.5));
    }
    model.ring().stabilize_all();
    std::string first;
    ASSERT_EQ(model.mismatches(first), 0u) << "size " << size << ": " << first;
    compared += size;
    // Churn that keeps the size, then a second stabilize_all() over the
    // index the joins and departures edited in place.
    for (std::size_t step = 0; step < 2 + size / 64; ++step) {
      const net::PeerId out = model.any_member(rng);
      model.fail(out);
      model.join(static_cast<net::PeerId>(size + step), rng.bernoulli(0.5));
      if (step % 3 == 0) {  // and a peer that fails and comes back
        const net::PeerId back = model.any_member(rng);
        model.fail(back);
        model.join(back, rng.bernoulli(0.5));
      }
    }
    model.ring().stabilize_all();
    ASSERT_EQ(model.mismatches(first), 0u)
        << "size " << size << " after churn: " << first;
    compared += size;
  }
  EXPECT_GT(compared, 10'000u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChordFingerModel, ::testing::Values(1, 2, 3));

// ------------------------------------------------- ChordRing (whole ring)

/// The map-based ChordRing the flat one replaced, verbatim but for its
/// name and the graceful leave both rings have since dropped: a std::map of
/// ~600-byte nodes with key fingers, a peer -> key hash map, and a sorted
/// key vector kept in step by a change log.
namespace map_ring {
using namespace overlay;

class MapChordRing final : public LookupService {
 public:
  /// `replicas` >= 1: each stored value lives on the owner plus
  /// (replicas - 1) immediate successors so abrupt failures rarely lose it.
  explicit MapChordRing(std::uint64_t seed, int replicas = 2);

  /// Adds `peer` to the ring and pulls the key range it now owns from its
  /// successor. Computes the new node's fingers immediately (Chord's join
  /// does the same via lookups).
  void join(net::PeerId peer) override;

  /// Bulk-bootstrap join: same membership/store effect as join(), but the
  /// finger table is left unset (self-pointing, which routing treats as "no
  /// useful finger") until the stabilize_all() that ends the bootstrap
  /// recomputes every table anyway. Joining N peers this way is O(N log N)
  /// map inserts instead of O(N * 64 log N) finger lookups.
  void join_deferred(net::PeerId peer) override;

  /// Abrupt failure: the node vanishes with its store; replicas on
  /// successors keep surviving copies reachable.
  void fail(net::PeerId peer) override;

  [[nodiscard]] bool contains(net::PeerId peer) const override;
  [[nodiscard]] std::size_t size() const override { return ring_.size(); }

  /// Routes from `from`'s node to the owner of `key`, counting hops and, if
  /// `net` is given, summing per-hop latency. Requires a non-empty ring and
  /// `from` to be joined.
  [[nodiscard]] LookupStats route(
      ChordKey key, net::PeerId from,
      const net::NetworkModel* net = nullptr) const override;

  /// Stores `value` under `key` (owner + replicas).
  void insert(ChordKey key, std::uint64_t value) override;

  /// Removes `value` from `key` everywhere it is replicated.
  void erase(ChordKey key, std::uint64_t value) override;

  /// Values stored under `key` at its current owner (what a lookup returns).
  [[nodiscard]] std::vector<std::uint64_t> get(ChordKey key) const override;

  /// Refreshes the finger tables of roughly `fraction` of the nodes,
  /// cycling through the ring across calls (periodic stabilization).
  void stabilize_round(double fraction = 0.1) override;

  /// Refreshes every finger table (used after bulk bootstrap joins). Every
  /// node's fingers are a pure function of the sorted key snapshot, so from
  /// kPooledStabilizeMin nodes up the ring is refreshed in 512-node runs
  /// by util::parallel_for, byte-identical to one serial run.
  void stabilize_all() override;

  /// Ring size from which stabilize_all() runs in parallel; below it the
  /// chunk bookkeeping costs more than it saves.
  static constexpr std::size_t kPooledStabilizeMin = 2048;

  /// The node key owning `key` resolved against the live ring (oracle view,
  /// for tests).
  [[nodiscard]] net::PeerId owner_of(ChordKey key) const override;

  /// `peer`'s finger table as last computed (oracle view, for tests).
  /// Requires `peer` to be joined.
  [[nodiscard]] const std::array<ChordKey, kKeyBits>& fingers(
      net::PeerId peer) const;

 private:
  struct Node {
    net::PeerId peer = net::kNoPeer;
    // finger[i] targets key + 2^i. Inline array (not a heap vector): one
    // allocation per node instead of two, which matters at 10^6 joins. A
    // finger equal to the node's own key means "unset/useless" — routing
    // skips it (deferred joins fill the whole table with the own key).
    std::array<ChordKey, kKeyBits> fingers{};
    std::map<ChordKey, std::set<std::uint64_t>> store;
  };

  using Ring = std::map<ChordKey, Node>;

  /// First live node at or after `key` (wrapping). Requires non-empty ring.
  [[nodiscard]] Ring::const_iterator successor(ChordKey key) const;
  [[nodiscard]] Ring::iterator successor(ChordKey key);

  void compute_fingers(ChordKey at, Node& node) const;
  /// Shared join body; `deferred` skips the finger computation.
  void join_impl(net::PeerId peer, bool deferred);
  void replicate_insert(Ring::iterator owner_it, ChordKey key,
                        std::uint64_t value);

  /// Notes that `key` joined or left, for the next sync_keys().
  void log_change(ChordKey key);
  /// Brings keys_ in step with ring_: merges the change log into it, or
  /// rebuilds it from the map once the log has overflowed.
  void sync_keys();
  /// Recomputes the fingers of the `count` ring-consecutive nodes starting
  /// at keys_[first] (wrapping; count <= ring size) from a synced keys_.
  void refresh_run(std::size_t first, std::size_t count);

  std::uint64_t seed_;
  int replicas_;
  Ring ring_;
  std::unordered_map<net::PeerId, ChordKey> key_of_peer_;
  ChordKey stabilize_cursor_ = 0;
  // The member keys, sorted; equal to ring_'s after sync_keys(). Between
  // syncs, changes_ lists every key that joined or left since (a key may
  // appear more than once), unless keys_rebuild_ is set: the log
  // overflowed, was dropped, and the next sync rebuilds from the map.
  std::vector<ChordKey> keys_;
  std::vector<ChordKey> changes_;
  bool keys_rebuild_ = false;
};

MapChordRing::MapChordRing(std::uint64_t seed, int replicas)
    : seed_(seed), replicas_(replicas) {
  QSA_EXPECTS(replicas >= 1);
}

MapChordRing::Ring::const_iterator MapChordRing::successor(ChordKey key) const {
  QSA_EXPECTS(!ring_.empty());
  auto it = ring_.lower_bound(key);
  return it == ring_.end() ? ring_.begin() : it;
}

MapChordRing::Ring::iterator MapChordRing::successor(ChordKey key) {
  QSA_EXPECTS(!ring_.empty());
  auto it = ring_.lower_bound(key);
  return it == ring_.end() ? ring_.begin() : it;
}

bool MapChordRing::contains(net::PeerId peer) const {
  return key_of_peer_.contains(peer);
}

void MapChordRing::compute_fingers(ChordKey at, Node& node) const {
  for (int i = 0; i < kKeyBits; ++i) {
    const ChordKey target = at + (ChordKey{1} << i);  // wraps mod 2^64
    node.fingers[static_cast<std::size_t>(i)] = successor(target)->first;
  }
}

void MapChordRing::log_change(ChordKey key) {
  if (keys_rebuild_) return;
  changes_.push_back(key);
  // Past an eighth of the ring (e.g. a bootstrap's deferred joins) the log
  // stops growing, and the next sync rebuilds keys_ with one map walk
  // instead of sorting the log and looking each logged key up in the map.
  if (changes_.size() > std::max<std::size_t>(64, ring_.size() / 8)) {
    keys_rebuild_ = true;
    changes_.clear();
  }
}

void MapChordRing::sync_keys() {
  if (keys_rebuild_) {
    keys_.clear();
    keys_.reserve(ring_.size());
    for (const auto& [key, node] : ring_) keys_.push_back(key);  // sorted
    keys_rebuild_ = false;
  } else if (!changes_.empty()) {
    std::sort(changes_.begin(), changes_.end());
    changes_.erase(std::unique(changes_.begin(), changes_.end()),
                   changes_.end());
    // Drop every logged key from the snapshot, compacting forward...
    auto out = std::lower_bound(keys_.begin(), keys_.end(), changes_.front());
    auto logged = changes_.begin();
    for (auto in = out; in != keys_.end(); ++in) {
      while (logged != changes_.end() && *logged < *in) ++logged;
      if (logged == changes_.end() || *logged != *in) *out++ = *in;
    }
    keys_.erase(out, keys_.end());
    // ...then merge back, from the end, the logged keys the ring holds.
    // Leave-then-rejoin keeps its key; join-then-leave leaves no trace.
    std::erase_if(changes_, [this](ChordKey k) { return !ring_.contains(k); });
    std::size_t kept = keys_.size();
    std::size_t added = changes_.size();
    keys_.resize(kept + added);
    for (std::size_t w = keys_.size(); added > 0;) {
      if (kept > 0 && keys_[kept - 1] > changes_[added - 1]) {
        keys_[--w] = keys_[--kept];
      } else {
        keys_[--w] = changes_[--added];
      }
    }
    changes_.clear();
  }
  QSA_ASSERT(keys_.size() == ring_.size());
}

void MapChordRing::refresh_run(std::size_t first, std::size_t count) {
  const std::size_t n = keys_.size();
  QSA_EXPECTS(first < n && count <= n);
  // Along the run the node keys increase, counting a pass over the ring's
  // end as a lap. So for each finger index i the targets key + 2^i increase
  // too (a carry past 2^64 is one more lap), and so do their successors.
  // Each finger index keeps a forward cursor: one binary search seeds it at
  // the run's first node, after which it only advances. A position orders
  // by (lap, key).
  struct Cursor {
    std::size_t at;
    std::size_t laps;
  };
  std::array<Cursor, kKeyBits> cursors;
  for (int i = 0; i < kKeyBits; ++i) {
    const ChordKey target = keys_[first] + (ChordKey{1} << i);  // wraps
    const std::size_t laps = target < keys_[first] ? 1 : 0;
    const auto at = static_cast<std::size_t>(
        std::lower_bound(keys_.begin(), keys_.end(), target) - keys_.begin());
    // Past the end, the successor is the first node of the next lap.
    cursors[static_cast<std::size_t>(i)] =
        at == n ? Cursor{0, laps + 1} : Cursor{at, laps};
  }
  auto it = ring_.find(keys_[first]);
  std::size_t pos = first;
  std::size_t laps = 0;
  for (std::size_t j = 0; j < count; ++j) {
    const ChordKey key = keys_[pos];
    QSA_ASSERT(it->first == key);
    for (int i = 0; i < kKeyBits; ++i) {
      const ChordKey target = key + (ChordKey{1} << i);  // wraps
      const std::size_t target_laps = laps + (target < key ? 1 : 0);
      Cursor& c = cursors[static_cast<std::size_t>(i)];
      while (c.laps < target_laps ||
             (c.laps == target_laps && keys_[c.at] < target)) {
        if (++c.at == n) {
          c.at = 0;
          ++c.laps;
        }
      }
      it->second.fingers[static_cast<std::size_t>(i)] = keys_[c.at];
    }
    if (++pos == n) {
      pos = 0;
      ++laps;
    }
    if (++it == ring_.end()) it = ring_.begin();
  }
}

void MapChordRing::join_impl(net::PeerId peer, bool deferred) {
  QSA_EXPECTS(!contains(peer));
  const ChordKey key = node_key(seed_, peer);
  QSA_EXPECTS(!ring_.contains(key));  // 64-bit collisions: astronomically rare
  Node node;
  node.peer = peer;
  // Self-pointing fingers mean "unset": routing skips them and falls back
  // to the successor walk. join() overwrites them below; join_deferred()
  // leaves them for stabilize_all().
  node.fingers.fill(key);
  if (!ring_.empty()) {
    // The new node takes over the key range (predecessor, key] from its
    // successor.
    auto succ = successor(key);
    auto pred = succ == ring_.begin() ? std::prev(ring_.end()) : std::prev(succ);
    const ChordKey pred_key = pred->first;
    for (auto it = succ->second.store.begin();
         it != succ->second.store.end();) {
      if (in_interval_oc(pred_key, key, it->first)) {
        node.store.emplace(it->first, std::move(it->second));
        it = succ->second.store.erase(it);
      } else {
        ++it;
      }
    }
  }
  auto [it, inserted] = ring_.emplace(key, std::move(node));
  QSA_ASSERT(inserted);
  if (!deferred) compute_fingers(key, it->second);
  key_of_peer_.emplace(peer, key);
  log_change(key);
}

void MapChordRing::join(net::PeerId peer) { join_impl(peer, /*deferred=*/false); }

void MapChordRing::join_deferred(net::PeerId peer) {
  join_impl(peer, /*deferred=*/true);
}

void MapChordRing::fail(net::PeerId peer) {
  auto pit = key_of_peer_.find(peer);
  if (pit == key_of_peer_.end()) return;
  const ChordKey key = pit->second;
  ring_.erase(key);  // store vanishes; replicas keep the data alive
  key_of_peer_.erase(pit);
  log_change(key);
}

LookupStats MapChordRing::route(ChordKey key, net::PeerId from,
                             const net::NetworkModel* net) const {
  QSA_EXPECTS(!ring_.empty());
  const auto fit = key_of_peer_.find(from);
  QSA_EXPECTS(fit != key_of_peer_.end());

  LookupStats stats;
  auto cur = ring_.find(fit->second);
  QSA_ASSERT(cur != ring_.end());

  // Safety bound: greedy finger routing plus successor-walk fallback always
  // terminates, but a bound keeps a corrupted ring from hanging a run.
  const int max_hops = kKeyBits + static_cast<int>(ring_.size()) + 2;
  while (stats.hops <= max_hops) {
    auto next_on_ring =
        std::next(cur) == ring_.end() ? ring_.begin() : std::next(cur);
    if (cur->first == key || ring_.size() == 1) {
      stats.owner = cur->second.peer;
      return stats;
    }
    // Are we ourselves responsible? (key in (predecessor, us])
    auto pred = cur == ring_.begin() ? std::prev(ring_.end()) : std::prev(cur);
    if (in_interval_oc(pred->first, cur->first, key)) {
      stats.owner = cur->second.peer;
      return stats;
    }
    if (in_interval_oc(cur->first, next_on_ring->first, key)) {
      // The key lives on our immediate successor: final hop. The successor
      // is the only correct destination, so a dropped message here has no
      // alternate route — the retries inside deliver_hop are the budget.
      if (!deliver_hop(cur->second.peer, next_on_ring->second.peer, stats,
                       net)) {
        return stats;  // owner stays kNoPeer: the lookup failed
      }
      if (net != nullptr) {
        stats.latency +=
            net->latency(cur->second.peer, next_on_ring->second.peer);
      }
      ++stats.hops;
      stats.owner = next_on_ring->second.peer;
      return stats;
    }
    // Closest preceding live finger; the runner-up (next qualifying finger,
    // else the successor walk) is kept as the alternate route for when the
    // hop message to the primary is lost.
    Ring::const_iterator next = ring_.end();
    Ring::const_iterator alternate = ring_.end();
    for (int i = kKeyBits - 1; i >= 0; --i) {
      const ChordKey f = cur->second.fingers[static_cast<std::size_t>(i)];
      if (f == cur->first) continue;  // unset (deferred/fresh) finger
      if (!in_interval_oo(cur->first, key, f)) continue;
      auto fnode = ring_.find(f);
      if (fnode == ring_.end()) continue;  // stale finger: node departed
      if (next == ring_.end()) {
        next = fnode;
        if (!faults_active()) break;  // no alternate needed
        continue;
      }
      if (fnode != next) {
        alternate = fnode;
        break;
      }
    }
    if (next == ring_.end()) {
      next = next_on_ring;  // successor-walk fallback
    } else if (alternate == ring_.end() && next != next_on_ring) {
      alternate = next_on_ring;
    }
    if (!deliver_hop(cur->second.peer, next->second.peer, stats, net)) {
      if (alternate == ring_.end()) return stats;  // lookup failed
      note_reroute();
      if (!deliver_hop(cur->second.peer, alternate->second.peer, stats, net)) {
        return stats;  // alternate unreachable too: lookup failed
      }
      next = alternate;
    }
    if (net != nullptr) {
      stats.latency += net->latency(cur->second.peer, next->second.peer);
    }
    ++stats.hops;
    cur = next;
  }
  // Unreachable with a consistent ring; report the oracle owner so callers
  // still make progress.
  stats.owner = successor(key)->second.peer;
  return stats;
}

void MapChordRing::replicate_insert(Ring::iterator owner_it, ChordKey key,
                                 std::uint64_t value) {
  auto it = owner_it;
  const int copies = std::min<int>(replicas_, static_cast<int>(ring_.size()));
  for (int i = 0; i < copies; ++i) {
    it->second.store[key].insert(value);
    ++it;
    if (it == ring_.end()) it = ring_.begin();
  }
}

void MapChordRing::insert(ChordKey key, std::uint64_t value) {
  QSA_EXPECTS(!ring_.empty());
  replicate_insert(successor(key), key, value);
}

void MapChordRing::erase(ChordKey key, std::uint64_t value) {
  if (ring_.empty()) return;
  // Erase from the owner and a few extra successors: replica placement may
  // have drifted under churn. Leftover copies beyond this window are
  // harmless (get() reads only the owner).
  auto it = successor(key);
  const int window =
      std::min<int>(replicas_ + 2, static_cast<int>(ring_.size()));
  for (int i = 0; i < window; ++i) {
    auto sit = it->second.store.find(key);
    if (sit != it->second.store.end()) {
      sit->second.erase(value);
      if (sit->second.empty()) it->second.store.erase(sit);
    }
    ++it;
    if (it == ring_.end()) it = ring_.begin();
  }
}

std::vector<std::uint64_t> MapChordRing::get(ChordKey key) const {
  if (ring_.empty()) return {};
  const auto it = successor(key);
  const auto sit = it->second.store.find(key);
  if (sit == it->second.store.end()) return {};
  return {sit->second.begin(), sit->second.end()};
}

void MapChordRing::stabilize_round(double fraction) {
  if (ring_.empty()) return;
  QSA_EXPECTS(fraction > 0);
  sync_keys();
  const std::size_t n = keys_.size();
  const auto count = std::min(
      n, std::max<std::size_t>(
             1, static_cast<std::size_t>(
                    std::ceil(fraction * static_cast<double>(n)))));
  // The round resumes at the first node at or after the cursor (wrapping)
  // and leaves the cursor on the node after its last.
  auto first = static_cast<std::size_t>(
      std::lower_bound(keys_.begin(), keys_.end(), stabilize_cursor_) -
      keys_.begin());
  if (first == n) first = 0;
  refresh_run(first, count);
  stabilize_cursor_ = keys_[(first + count) % n];
}

void MapChordRing::stabilize_all() {
  if (ring_.empty()) return;
  sync_keys();
  const std::size_t n = keys_.size();
  if (n < kPooledStabilizeMin) {
    refresh_run(0, n);
    return;
  }
  // Disjoint runs: each thread writes only its own nodes' finger arrays
  // from the shared read-only snapshot, so the result is the serial run's,
  // bit for bit, regardless of scheduling.
  const std::size_t chunk = 512;
  util::parallel_for(
      (n + chunk - 1) / chunk, 0, [this, n, chunk](std::size_t c) {
        const std::size_t lo = c * chunk;
        refresh_run(lo, std::min(chunk, n - lo));
      });
}

net::PeerId MapChordRing::owner_of(ChordKey key) const {
  QSA_EXPECTS(!ring_.empty());
  return successor(key)->second.peer;
}

const std::array<ChordKey, kKeyBits>& MapChordRing::fingers(
    net::PeerId peer) const {
  const auto pit = key_of_peer_.find(peer);
  QSA_EXPECTS(pit != key_of_peer_.end());
  return ring_.find(pit->second)->second.fingers;
}


}  // namespace map_ring

using map_ring::MapChordRing;

/// The flat ring and the map ring driven through the same operations. Each
/// has its own copy of the fault plan, whose drop draws are a sequence.
class RingPair {
 public:
  RingPair(std::uint64_t seed, const fault::FaultConfig& faults)
      : flat_plan_(seed, faults),
        map_plan_(seed, faults),
        flat_(seed),
        map_(seed) {
    flat_.set_faults(&flat_plan_);
    map_.set_faults(&map_plan_);
  }

  /// Applies `op` to both rings.
  template <typename Op>
  void apply(Op op) {
    op(flat_);
    op(map_);
  }

  [[nodiscard]] const MapChordRing& reference() const { return map_; }
  [[nodiscard]] std::uint64_t reroutes() const {
    return map_plan_.stats().rerouted;
  }

  /// The first observable on which the rings differ, or "" if none does:
  /// size, membership over `universe`, every member's fingers, then owner,
  /// stored values and routes (owner, hops, latency) for the `data` keys,
  /// member keys and random keys, and last the fault draws the routes made.
  std::string diff(util::Rng& rng, net::PeerId universe,
                   const std::vector<ChordKey>& data, std::uint64_t seed,
                   const net::NetworkModel& net) const {
    if (flat_.size() != map_.size()) {
      return "size " + std::to_string(flat_.size()) + " want " +
             std::to_string(map_.size());
    }
    std::vector<net::PeerId> members;
    for (net::PeerId p = 0; p < universe; ++p) {
      if (flat_.contains(p) != map_.contains(p)) {
        return "contains(" + std::to_string(p) + ")";
      }
      if (map_.contains(p)) members.push_back(p);
    }
    for (const net::PeerId p : members) {
      if (flat_.fingers(p) != map_.fingers(p)) {
        return "fingers of peer " + std::to_string(p);
      }
    }
    if (members.empty()) return {};
    for (std::size_t i = 0; i < data.size() + 24; ++i) {
      const net::PeerId member = members[rng.index(members.size())];
      ChordKey key = rng();
      if (i < data.size()) {
        key = data[i];
      } else if (i % 3 == 0) {
        key = overlay::node_key(seed, member) + rng.index(3) - 1;
      }
      if (flat_.owner_of(key) != map_.owner_of(key)) {
        return "owner_of(" + std::to_string(key) + ")";
      }
      if (flat_.get(key) != map_.get(key)) {
        return "get(" + std::to_string(key) + ")";
      }
      const net::PeerId from = members[rng.index(members.size())];
      const overlay::LookupStats got = flat_.route(key, from, &net);
      const overlay::LookupStats want = map_.route(key, from, &net);
      if (got.owner != want.owner || got.hops != want.hops ||
          got.latency != want.latency) {
        return "route(" + std::to_string(key) + ", " + std::to_string(from) +
               "): owner " + std::to_string(got.owner) + " hops " +
               std::to_string(got.hops) + " latency " +
               std::to_string(got.latency.as_millis()) + ", want " +
               std::to_string(want.owner) + " / " +
               std::to_string(want.hops) + " / " +
               std::to_string(want.latency.as_millis());
      }
    }
    const fault::FaultStats& a = flat_plan_.stats();
    const fault::FaultStats& b = map_plan_.stats();
    if (a.total_attempts() != b.total_attempts() ||
        a.total_dropped() != b.total_dropped() || a.rerouted != b.rerouted) {
      return "fault draws";
    }
    return {};
  }

 private:
  fault::FaultPlan flat_plan_;
  fault::FaultPlan map_plan_;
  ChordRing flat_;
  MapChordRing map_;
};

class ChordRingModel : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChordRingModel, MatchesMapRingReference) {
  // Per ring size, with and without lookup loss: a bootstrap (deferred joins
  // from empty, or a mix of joins and deferred joins), then random joins,
  // deferred joins, failures, inserts, erases, stabilize rounds of every
  // size and full rebuilds, with a peer that fails and rejoins. Every
  // observable is compared after every step (bootstrap joins of the big ring
  // are compared once, at its end).
  constexpr std::size_t kSizes[] = {1, 2, 3, 17,
                                    ChordRing::kPooledStabilizeMin + 555};
  constexpr double kFractions[] = {0.01, 0.05, 0.1, 0.3, 0.5, 1.0, 1.7};
  const net::NetworkModel net(5, net::ProbeClock(sim::SimTime::seconds(30)));
  std::size_t compared = 0;
  for (const std::size_t size : kSizes) {
    for (const bool lossy : {false, true}) {
      const std::uint64_t seed = util::derive_seed(
          GetParam(), "chord-ring-model", size * 2 + (lossy ? 1 : 0));
      util::Rng rng(seed);
      fault::FaultConfig faults;
      if (lossy) {
        faults.lookup_loss = 0.2;
        faults.max_retries = 1;
      }
      RingPair rings(seed, faults);
      const auto universe = static_cast<net::PeerId>(size + size / 4 + 3);
      std::vector<ChordKey> data;
      for (std::uint64_t i = 0; i < 6; ++i) {
        data.push_back(overlay::data_key(seed, i));
      }
      const bool small = size <= 17;
      const auto differs = [&](const std::string& step) -> std::string {
        ++compared;
        const std::string what = rings.diff(rng, universe, data, seed, net);
        if (what.empty()) return {};
        return "size " + std::to_string(size) + (lossy ? " lossy" : "") +
               ", after " + step + ": " + what;
      };
      const auto any = [&](bool member) {
        for (;;) {
          const auto p = static_cast<net::PeerId>(rng.index(universe));
          if (rings.reference().contains(p) == member) return p;
        }
      };

      const bool all_deferred = (size + (lossy ? 1 : 0)) % 2 == 0;
      for (net::PeerId p = 0; p < size; ++p) {
        const bool deferred = all_deferred || rng.bernoulli(0.5);
        rings.apply([&](auto& ring) {
          deferred ? ring.join_deferred(p) : ring.join(p);
        });
        if (small) {
          ASSERT_EQ(differs("bootstrap join " + std::to_string(p)), "");
        }
      }
      rings.apply([](auto& ring) { ring.stabilize_all(); });
      ASSERT_EQ(differs("bootstrap stabilize_all"), "");

      const int steps = small ? 400 : 80;
      for (int s = 0; s < steps; ++s) {
        const std::size_t members = rings.reference().size();
        const auto op = rng.index(9);
        std::string step;
        if (op <= 1 && members < universe) {
          const net::PeerId p = any(false);
          const bool deferred = op == 1;
          rings.apply([&](auto& ring) {
            deferred ? ring.join_deferred(p) : ring.join(p);
          });
          step = (deferred ? "join_deferred " : "join ") + std::to_string(p);
        } else if (op <= 3 && members > 0) {
          const net::PeerId p = any(true);
          rings.apply([&](auto& ring) { ring.fail(p); });
          step = "fail " + std::to_string(p);
        } else if (op == 4 && members > 0) {
          const ChordKey key = data[rng.index(data.size())];
          const std::uint64_t value = rng.index(4);
          rings.apply([&](auto& ring) { ring.insert(key, value); });
          step = "insert " + std::to_string(key);
        } else if (op == 5) {
          const ChordKey key = data[rng.index(data.size())];
          const std::uint64_t value = rng.index(4);
          rings.apply([&](auto& ring) { ring.erase(key, value); });
          step = "erase " + std::to_string(key);
        } else if (op == 6) {
          const double fraction = kFractions[rng.index(std::size(kFractions))];
          rings.apply([&](auto& ring) { ring.stabilize_round(fraction); });
          step = "stabilize_round " + std::to_string(fraction);
        } else if (op == 7) {
          rings.apply([](auto& ring) { ring.stabilize_all(); });
          step = "stabilize_all";
        } else if (members > 0) {
          // A peer fails and rejoins under the same key.
          const net::PeerId p = any(true);
          rings.apply([&](auto& ring) { ring.fail(p); });
          ASSERT_EQ(differs("rejoin's departure of " + std::to_string(p)), "");
          const bool deferred = rng.bernoulli(0.5);
          rings.apply([&](auto& ring) {
            deferred ? ring.join_deferred(p) : ring.join(p);
          });
          step = "rejoin " + std::to_string(p);
        } else {
          continue;
        }
        ASSERT_EQ(differs(step), "");
      }
      if (lossy && size > 3) {
        EXPECT_GT(rings.reroutes(), 0u) << "size " << size;
      }
    }
  }
  EXPECT_GT(compared, 3'000u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChordRingModel, ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace qsa
