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
#include <string>
#include <tuple>
#include <vector>

#include "qsa/overlay/chord_ring.hpp"
#include "qsa/probe/neighbor_table.hpp"
#include "qsa/qos/vector.hpp"
#include "qsa/sim/event_queue.hpp"
#include "qsa/util/expects.hpp"
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
    switch (rng.index(4)) {
      case 0:
      case 1: {
        const auto hop = static_cast<std::uint8_t>(1 + rng.index(4));
        const auto kind = rng.bernoulli(0.5) ? probe::NeighborKind::kDirect
                                             : probe::NeighborKind::kIndirect;
        const bool added =
            table.add(peer, hop, kind, now, sim::SimTime::minutes(30));
        if (added) {
          EXPECT_TRUE(table.knows(peer, now));
        }
        break;
      }
      case 2:
        table.erase(peer);
        EXPECT_FALSE(table.knows(peer, now));
        break;
      default:
        table.purge(now);
        break;
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

  void erase(net::PeerId peer) { entries_.erase(peer); }

  void purge(sim::SimTime now) {
    std::erase_if(entries_,
                  [now](const auto& kv) { return kv.second.expires <= now; });
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
  // Random add / refresh / rank-upgrade / erase / purge sequences drive the
  // heap-indexed table and the scan side by side. Deadlines are whole
  // minutes a few minutes out, so rank ties, deadline ties and expired
  // entries are all common; after every step both must agree on add()'s
  // verdict and on the full contents (hence on every victim).
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
      } else if (op <= 7) {
        const auto* e = op == 6 ? existing() : nullptr;
        if (e != nullptr) peer = e->first;
        table.erase(peer);
        ref.erase(peer);
      } else if (op == 8) {
        table.purge(now);
        ref.purge(now);
      }  // op 9: time passes with no operation
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

  void leave(net::PeerId peer, bool abrupt) {
    abrupt ? ring_.fail(peer) : ring_.leave(peer);
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
  // Rounds: random joins, deferred joins, leaves and failures between
  // stabilize rounds of every size, then a full pass with no change, after
  // which every node's fingers must equal the reference's. Each epoch also
  // has a peer leave and rejoin between two rounds, and some epochs a burst
  // of deferred joins past the change log's bound.
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
          model.leave(peer, rng.bernoulli(0.5));
        }
        if (rng.bernoulli(0.2)) model.ring().stabilize_round(fraction);
      }
      const net::PeerId back = model.any_member(rng);
      model.leave(back, rng.bernoulli(0.5));
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
  // the pool threshold, with a last chunk shorter than the others.
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
    // Churn that keeps the size, merged (not rebuilt: it stays under the
    // change log's bound) by the next stabilize_all().
    for (std::size_t step = 0; step < 2 + size / 64; ++step) {
      const net::PeerId out = model.any_member(rng);
      model.leave(out, rng.bernoulli(0.5));
      model.join(static_cast<net::PeerId>(size + step), rng.bernoulli(0.5));
      if (step % 3 == 0) {  // and a peer that leaves and comes back
        const net::PeerId back = model.any_member(rng);
        model.leave(back, rng.bernoulli(0.5));
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

}  // namespace
}  // namespace qsa
