#include "qsa/overlay/chord_ring.hpp"

#include <algorithm>
#include <cmath>

#include "qsa/util/expects.hpp"
#include "qsa/util/thread_pool.hpp"

namespace qsa::overlay {

ChordRing::ChordRing(std::uint64_t seed, int replicas)
    : seed_(seed), replicas_(replicas) {
  QSA_EXPECTS(replicas >= 1);
}

ChordRing::Ring::const_iterator ChordRing::successor(ChordKey key) const {
  QSA_EXPECTS(!ring_.empty());
  auto it = ring_.lower_bound(key);
  return it == ring_.end() ? ring_.begin() : it;
}

ChordRing::Ring::iterator ChordRing::successor(ChordKey key) {
  QSA_EXPECTS(!ring_.empty());
  auto it = ring_.lower_bound(key);
  return it == ring_.end() ? ring_.begin() : it;
}

bool ChordRing::contains(net::PeerId peer) const {
  return key_of_peer_.contains(peer);
}

void ChordRing::compute_fingers(ChordKey at, Node& node) const {
  for (int i = 0; i < kKeyBits; ++i) {
    const ChordKey target = at + (ChordKey{1} << i);  // wraps mod 2^64
    node.fingers[static_cast<std::size_t>(i)] = successor(target)->first;
  }
}

void ChordRing::log_change(ChordKey key) {
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

void ChordRing::sync_keys() {
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

void ChordRing::refresh_run(std::size_t first, std::size_t count) {
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

void ChordRing::join_impl(net::PeerId peer, bool deferred) {
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

void ChordRing::join(net::PeerId peer) { join_impl(peer, /*deferred=*/false); }

void ChordRing::join_deferred(net::PeerId peer) {
  join_impl(peer, /*deferred=*/true);
}

void ChordRing::leave(net::PeerId peer) {
  auto pit = key_of_peer_.find(peer);
  if (pit == key_of_peer_.end()) return;
  const ChordKey key = pit->second;
  auto it = ring_.find(key);
  QSA_ASSERT(it != ring_.end());
  if (ring_.size() > 1) {
    // Graceful handoff of the store to the successor.
    auto next = std::next(it) == ring_.end() ? ring_.begin() : std::next(it);
    for (auto& [k, values] : it->second.store) {
      next->second.store[k].insert(values.begin(), values.end());
    }
  }
  ring_.erase(it);
  key_of_peer_.erase(pit);
  log_change(key);
}

void ChordRing::fail(net::PeerId peer) {
  auto pit = key_of_peer_.find(peer);
  if (pit == key_of_peer_.end()) return;
  const ChordKey key = pit->second;
  ring_.erase(key);  // store vanishes; replicas keep the data alive
  key_of_peer_.erase(pit);
  log_change(key);
}

LookupStats ChordRing::route(ChordKey key, net::PeerId from,
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

void ChordRing::replicate_insert(Ring::iterator owner_it, ChordKey key,
                                 std::uint64_t value) {
  auto it = owner_it;
  const int copies = std::min<int>(replicas_, static_cast<int>(ring_.size()));
  for (int i = 0; i < copies; ++i) {
    it->second.store[key].insert(value);
    ++it;
    if (it == ring_.end()) it = ring_.begin();
  }
}

void ChordRing::insert(ChordKey key, std::uint64_t value) {
  QSA_EXPECTS(!ring_.empty());
  replicate_insert(successor(key), key, value);
}

void ChordRing::erase(ChordKey key, std::uint64_t value) {
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

std::vector<std::uint64_t> ChordRing::get(ChordKey key) const {
  if (ring_.empty()) return {};
  const auto it = successor(key);
  const auto sit = it->second.store.find(key);
  if (sit == it->second.store.end()) return {};
  return {sit->second.begin(), sit->second.end()};
}

void ChordRing::stabilize_round(double fraction) {
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

void ChordRing::stabilize_all() {
  if (ring_.empty()) return;
  sync_keys();
  const std::size_t n = keys_.size();
  if (n < kPooledStabilizeMin) {
    refresh_run(0, n);
    return;
  }
  // Disjoint runs: each worker writes only its own nodes' finger arrays
  // from the shared read-only snapshot, so the result is the serial run's,
  // bit for bit, regardless of scheduling.
  const std::size_t chunk = 512;
  util::shared_pool().parallel_for(
      (n + chunk - 1) / chunk, [this, n, chunk](std::size_t c) {
        const std::size_t lo = c * chunk;
        refresh_run(lo, std::min(chunk, n - lo));
      });
}

net::PeerId ChordRing::owner_of(ChordKey key) const {
  QSA_EXPECTS(!ring_.empty());
  return successor(key)->second.peer;
}

const std::array<ChordKey, kKeyBits>& ChordRing::fingers(
    net::PeerId peer) const {
  const auto pit = key_of_peer_.find(peer);
  QSA_EXPECTS(pit != key_of_peer_.end());
  return ring_.find(pit->second)->second.fingers;
}

}  // namespace qsa::overlay
