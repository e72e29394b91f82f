#include "qsa/overlay/chord_ring.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "qsa/util/expects.hpp"
#include "qsa/util/parallel_for.hpp"

namespace qsa::overlay {

ChordRing::ChordRing(std::uint64_t seed, int replicas)
    : seed_(seed), replicas_(replicas) {
  QSA_EXPECTS(replicas >= 1);
}

std::uint32_t ChordRing::alloc_node(net::PeerId peer) {
  std::uint32_t slot = slots_used_;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    if (slot == pages_.size() * kPageNodes) {
      pages_.push_back(std::make_unique<Node[]>(kPageNodes));
    }
    ++slots_used_;
  }
  // Self-pointing fingers mean "unset": routing skips them and falls back
  // to the successor walk. join() overwrites them; join_deferred() leaves
  // them for stabilize_all().
  node(slot).fingers.fill(peer);
  return slot;
}

void ChordRing::settle() const {
  if (pending_.empty()) return;
  QSA_ASSERT(blocks_.empty());
  std::sort(pending_.begin(), pending_.end(),
            [](const Pending& a, const Pending& b) { return a.key < b.key; });
  // 64-bit collisions: astronomically rare.
  QSA_EXPECTS(std::adjacent_find(pending_.begin(), pending_.end(),
                                 [](const Pending& a, const Pending& b) {
                                   return a.key == b.key;
                                 }) == pending_.end());
  const std::size_t n = pending_.size();
  blocks_.resize((n + kBlockKeys - 1) / kBlockKeys);
  block_last_.resize(blocks_.size());
  for (std::size_t b = 0; b < blocks_.size(); ++b) {
    Block& block = blocks_[b];
    const std::size_t lo = b * kBlockKeys;
    const std::size_t hi = std::min(n, lo + kBlockKeys);
    block.keys.reserve(hi - lo);
    block.peers.reserve(hi - lo);
    block.slots.reserve(hi - lo);
    for (std::size_t i = lo; i < hi; ++i) {
      block.keys.push_back(pending_[i].key);
      block.peers.push_back(pending_[i].peer);
      block.slots.push_back(pending_[i].slot);
    }
    block_last_[b] = block.keys.back();
  }
  pending_.clear();
  pending_.shrink_to_fit();
}

ChordRing::Pos ChordRing::lower_bound(ChordKey key) const {
  const auto b = static_cast<std::size_t>(
      std::lower_bound(block_last_.begin(), block_last_.end(), key) -
      block_last_.begin());
  if (b == blocks_.size()) return {b, 0};
  const auto& keys = blocks_[b].keys;
  return {b, static_cast<std::size_t>(
                 std::lower_bound(keys.begin(), keys.end(), key) -
                 keys.begin())};
}

ChordRing::Pos ChordRing::successor(ChordKey key) const {
  QSA_EXPECTS(!blocks_.empty());
  const Pos p = lower_bound(key);
  return p.block == blocks_.size() ? Pos{} : p;
}

void ChordRing::advance(Pos& p) const {
  if (++p.at < blocks_[p.block].keys.size()) return;
  p.at = 0;
  if (++p.block == blocks_.size()) p.block = 0;
}

ChordRing::Pos ChordRing::prev(Pos p) const {
  if (p.at > 0) return {p.block, p.at - 1};
  const std::size_t b = (p.block == 0 ? blocks_.size() : p.block) - 1;
  return {b, blocks_[b].keys.size() - 1};
}

ChordRing::Pos ChordRing::find(ChordKey key) const {
  const Pos p = lower_bound(key);
  QSA_ASSERT(p.block < blocks_.size() && key_at(p) == key);
  return p;
}

void ChordRing::index_insert(Pos p, ChordKey key, net::PeerId peer,
                             std::uint32_t slot) {
  if (blocks_.empty()) {
    blocks_.emplace_back();
    block_last_.push_back(key);
  } else if (p.block == blocks_.size()) {
    p = {blocks_.size() - 1, blocks_.back().keys.size()};  // past every key
  }
  Block& block = blocks_[p.block];
  const auto at = static_cast<std::ptrdiff_t>(p.at);
  block.keys.insert(block.keys.begin() + at, key);
  block.peers.insert(block.peers.begin() + at, peer);
  block.slots.insert(block.slots.begin() + at, slot);
  block_last_[p.block] = block.keys.back();
  if (block.keys.size() < 2 * kBlockKeys) return;
  // Split in halves; the upper half becomes the next block.
  constexpr auto kHalf = static_cast<std::ptrdiff_t>(kBlockKeys);
  Block upper;
  upper.keys.assign(block.keys.begin() + kHalf, block.keys.end());
  upper.peers.assign(block.peers.begin() + kHalf, block.peers.end());
  upper.slots.assign(block.slots.begin() + kHalf, block.slots.end());
  block.keys.resize(kBlockKeys);
  block.peers.resize(kBlockKeys);
  block.slots.resize(kBlockKeys);
  block_last_[p.block] = block.keys.back();
  const auto next = static_cast<std::ptrdiff_t>(p.block) + 1;
  block_last_.insert(block_last_.begin() + next, upper.keys.back());
  blocks_.insert(blocks_.begin() + next, std::move(upper));
}

void ChordRing::index_erase(Pos p) {
  Block& block = blocks_[p.block];
  const auto at = static_cast<std::ptrdiff_t>(p.at);
  block.keys.erase(block.keys.begin() + at);
  block.peers.erase(block.peers.begin() + at);
  block.slots.erase(block.slots.begin() + at);
  const auto b = static_cast<std::ptrdiff_t>(p.block);
  if (block.keys.empty()) {
    blocks_.erase(blocks_.begin() + b);
    block_last_.erase(block_last_.begin() + b);
    return;
  }
  block_last_[p.block] = block.keys.back();
  if (block.keys.size() >= kBlockKeys / 2 || blocks_.size() == 1) return;
  // A small block merges with a neighbour when the pair fits in one block.
  const std::size_t left = p.block + 1 < blocks_.size() ? p.block : p.block - 1;
  Block& l = blocks_[left];
  Block& r = blocks_[left + 1];
  if (l.keys.size() + r.keys.size() > kBlockKeys) return;
  l.keys.insert(l.keys.end(), r.keys.begin(), r.keys.end());
  l.peers.insert(l.peers.end(), r.peers.begin(), r.peers.end());
  l.slots.insert(l.slots.end(), r.slots.begin(), r.slots.end());
  block_last_[left] = block_last_[left + 1];
  const auto right = static_cast<std::ptrdiff_t>(left) + 1;
  blocks_.erase(blocks_.begin() + right);
  block_last_.erase(block_last_.begin() + right);
}

void ChordRing::remove(Pos at) {
  const std::uint32_t slot = slot_at(at);
  slot_of_.erase(peer_at(at));
  index_erase(at);
  node(slot).store.clear();
  free_slots_.push_back(slot);
}

bool ChordRing::contains(net::PeerId peer) const {
  return slot_of_.count(peer) != 0;
}

void ChordRing::compute_fingers(ChordKey key, Node& record) {
  Pos succ = find(key);
  advance(succ);
  const net::PeerId succ_peer = peer_at(succ);
  // Clockwise distance to the successor (0 for a lone node, whose every
  // target wraps back to itself). A target at or before the successor is
  // the successor's, so only the fingers past it need a search.
  const ChordKey gap = key_at(succ) - key;
  for (int i = 0; i < kKeyBits; ++i) {
    const ChordKey step = ChordKey{1} << i;
    record.fingers[static_cast<std::size_t>(i)] =
        step <= gap ? succ_peer : peer_at(successor(key + step));  // wraps
  }
}

void ChordRing::join_impl(net::PeerId peer, bool deferred) {
  QSA_EXPECTS(!contains(peer));
  const ChordKey key = node_key(seed_, peer);
  const std::uint32_t slot = alloc_node(peer);
  slot_of_.emplace(peer, slot);
  if (deferred && blocks_.empty()) {
    // No placed member holds a store, so there is nothing to hand over,
    // and the node's place in ring order can wait for settle()'s one sort.
    pending_.push_back({key, peer, slot});
    return;
  }
  settle();
  const Pos at = lower_bound(key);
  if (!blocks_.empty()) {
    // The new node takes over the key range (predecessor, key] from its
    // successor.
    const Pos succ = at.block == blocks_.size() ? Pos{} : at;
    QSA_EXPECTS(key_at(succ) != key);  // 64-bit collisions: astronomically rare
    const ChordKey pred_key = key_at(prev(succ));
    auto& from = node(slot_at(succ)).store;
    auto& to = node(slot).store;
    for (auto it = from.begin(); it != from.end();) {
      if (in_interval_oc(pred_key, key, it->first)) {
        to.emplace(it->first, std::move(it->second));
        it = from.erase(it);
      } else {
        ++it;
      }
    }
  }
  index_insert(at, key, peer, slot);
  if (!deferred) compute_fingers(key, node(slot));
}

void ChordRing::join(net::PeerId peer) { join_impl(peer, /*deferred=*/false); }

void ChordRing::join_deferred(net::PeerId peer) {
  join_impl(peer, /*deferred=*/true);
}

void ChordRing::fail(net::PeerId peer) {
  if (!contains(peer)) return;
  settle();
  remove(find(node_key(seed_, peer)));  // store vanishes; replicas keep it
}

LookupStats ChordRing::route(ChordKey key, net::PeerId from,
                             const net::NetworkModel* net) const {
  QSA_EXPECTS(!slot_of_.empty());
  QSA_EXPECTS(contains(from));
  settle();

  LookupStats stats;
  const std::size_t n = size();
  const Pos none{blocks_.size(), 0};
  Pos cur = find(node_key(seed_, from));

  // Safety bound: greedy finger routing plus successor-walk fallback always
  // terminates, but a bound keeps a corrupted ring from hanging a run.
  const int max_hops = kKeyBits + static_cast<int>(n) + 2;
  while (stats.hops <= max_hops) {
    const ChordKey cur_key = key_at(cur);
    const net::PeerId cur_peer = peer_at(cur);
    if (cur_key == key || n == 1) {
      stats.owner = cur_peer;
      return stats;
    }
    // Are we ourselves responsible? (key in (predecessor, us])
    if (in_interval_oc(key_at(prev(cur)), cur_key, key)) {
      stats.owner = cur_peer;
      return stats;
    }
    Pos next_on_ring = cur;
    advance(next_on_ring);
    if (in_interval_oc(cur_key, key_at(next_on_ring), key)) {
      // The key lives on our immediate successor: final hop. The successor
      // is the only correct destination, so a dropped message here has no
      // alternate route — the retries inside deliver_hop are the budget.
      const net::PeerId succ_peer = peer_at(next_on_ring);
      if (!deliver_hop(cur_peer, succ_peer, stats, net)) {
        return stats;  // owner stays kNoPeer: the lookup failed
      }
      if (net != nullptr) stats.latency += net->latency(cur_peer, succ_peer);
      ++stats.hops;
      stats.owner = succ_peer;
      return stats;
    }
    // Closest preceding live finger; the runner-up (next qualifying finger,
    // else the successor walk) is kept as the alternate route for when the
    // hop message to the primary is lost.
    Pos next = none;
    Pos alternate = none;
    const auto& fingers = node(slot_at(cur)).fingers;
    // A set finger i was our key + 2^i's successor in a ring that held us,
    // so it lies at least 2^i past us: only the fingers with 2^i below the
    // key's distance can precede the key.
    const ChordKey distance = key - cur_key;
    for (int i = std::bit_width(distance - 1) - 1; i >= 0; --i) {
      const net::PeerId f = fingers[static_cast<std::size_t>(i)];
      if (f == cur_peer) continue;  // unset (deferred/fresh) finger
      const ChordKey f_key = node_key(seed_, f);
      if (!in_interval_oo(cur_key, key, f_key)) continue;
      const Pos f_at = lower_bound(f_key);
      if (f_at == none || key_at(f_at) != f_key) {
        continue;  // stale finger: node departed
      }
      if (next == none) {
        next = f_at;
        if (!faults_active()) break;  // no alternate needed
        continue;
      }
      if (f_at != next) {
        alternate = f_at;
        break;
      }
    }
    if (next == none) {
      next = next_on_ring;  // successor-walk fallback
    } else if (alternate == none && next != next_on_ring) {
      alternate = next_on_ring;
    }
    if (!deliver_hop(cur_peer, peer_at(next), stats, net)) {
      if (alternate == none) return stats;  // lookup failed
      note_reroute();
      if (!deliver_hop(cur_peer, peer_at(alternate), stats, net)) {
        return stats;  // alternate unreachable too: lookup failed
      }
      next = alternate;
    }
    if (net != nullptr) stats.latency += net->latency(cur_peer, peer_at(next));
    ++stats.hops;
    cur = next;
  }
  // Unreachable with a consistent ring; report the oracle owner so callers
  // still make progress.
  stats.owner = peer_at(successor(key));
  return stats;
}

void ChordRing::insert(ChordKey key, std::uint64_t value) {
  QSA_EXPECTS(!slot_of_.empty());
  settle();
  Pos at = successor(key);
  const int copies = std::min<int>(replicas_, static_cast<int>(size()));
  for (int i = 0; i < copies; ++i) {
    node(slot_at(at)).store[key].insert(value);
    advance(at);
  }
}

void ChordRing::erase(ChordKey key, std::uint64_t value) {
  if (slot_of_.empty()) return;
  settle();
  // Erase from the owner and a few extra successors: replica placement may
  // have drifted under churn. Leftover copies beyond this window are
  // harmless (get() reads only the owner).
  Pos at = successor(key);
  const int window =
      std::min<int>(replicas_ + 2, static_cast<int>(size()));
  for (int i = 0; i < window; ++i) {
    auto& store = node(slot_at(at)).store;
    const auto sit = store.find(key);
    if (sit != store.end()) {
      sit->second.erase(value);
      if (sit->second.empty()) store.erase(sit);
    }
    advance(at);
  }
}

std::vector<std::uint64_t> ChordRing::get(ChordKey key) const {
  if (slot_of_.empty()) return {};
  settle();
  const auto& store = node(slot_at(successor(key))).store;
  const auto sit = store.find(key);
  if (sit == store.end()) return {};
  return {sit->second.begin(), sit->second.end()};
}

ChordRing::Pos ChordRing::refresh_run(Pos first, std::size_t count) {
  QSA_EXPECTS(count <= size());
  // Along the run the node keys increase, counting a pass over the ring's
  // end as a lap. So for each finger index i the targets key + 2^i increase
  // too (a carry past 2^64 is one more lap), and so do their successors.
  // Each finger index keeps a forward cursor: one index search seeds it at
  // the run's first node, after which it only advances. A cursor orders by
  // (lap, position) and keeps its block's arrays at hand.
  struct Cursor {
    std::size_t laps = 0;
    Pos at;
    const ChordKey* keys = nullptr;
    const net::PeerId* peers = nullptr;
    std::size_t block_size = 0;
  };
  const auto seat = [this](Cursor& c, std::size_t laps, Pos at) {
    const Block& block = blocks_[at.block];
    c = {laps, at, block.keys.data(), block.peers.data(), block.keys.size()};
  };
  const auto step = [&seat, this](Cursor& c) {
    if (++c.at.at < c.block_size) return;
    if (c.at.block + 1 < blocks_.size()) {
      seat(c, c.laps, {c.at.block + 1, 0});
    } else {
      seat(c, c.laps + 1, {});
    }
  };
  const auto before = [](const Cursor& a, const Cursor& b) {
    return a.laps != b.laps         ? a.laps < b.laps
           : a.at.block != b.at.block ? a.at.block < b.at.block
                                      : a.at.at < b.at.at;
  };
  std::array<Cursor, kKeyBits> cursors;
  const ChordKey first_key = key_at(first);
  for (int i = 0; i < kKeyBits; ++i) {
    const ChordKey target = first_key + (ChordKey{1} << i);  // wraps
    const std::size_t laps = target < first_key ? 1 : 0;
    const Pos at = lower_bound(target);
    // Past the end, the successor is the first node of the next lap.
    Cursor& c = cursors[static_cast<std::size_t>(i)];
    at.block == blocks_.size() ? seat(c, laps + 1, {}) : seat(c, laps, at);
  }
  Cursor pos;
  seat(pos, 0, first);
  for (std::size_t j = 0; j < count; ++j) {
    const ChordKey key = pos.keys[pos.at.at];
    auto& fingers = node(slot_at(pos.at)).fingers;
    Cursor succ = pos;
    step(succ);
    // A target at or before the successor is the successor's: that covers
    // every finger below bit_width of the gap to it (none on a lone node,
    // whose successor is itself a lap on). Every later target's successor
    // is at or past it, so a cursor left behind jumps there.
    const ChordKey gap = succ.keys[succ.at.at] - key;
    const int near = std::bit_width(gap);
    std::fill_n(fingers.begin(), near, succ.peers[succ.at.at]);
    for (int i = near; i < kKeyBits; ++i) {
      const ChordKey target = key + (ChordKey{1} << i);  // wraps
      const std::size_t target_laps = pos.laps + (target < key ? 1 : 0);
      Cursor& c = cursors[static_cast<std::size_t>(i)];
      if (before(c, succ)) c = succ;
      while (c.laps < target_laps ||
             (c.laps == target_laps && c.keys[c.at.at] < target)) {
        step(c);
      }
      fingers[static_cast<std::size_t>(i)] = c.peers[c.at.at];
    }
    pos = succ;
  }
  return pos.at;
}

void ChordRing::stabilize_round(double fraction) {
  if (slot_of_.empty()) return;
  QSA_EXPECTS(fraction > 0);
  settle();
  const std::size_t n = size();
  const auto count = std::min(
      n, std::max<std::size_t>(
             1, static_cast<std::size_t>(
                    std::ceil(fraction * static_cast<double>(n)))));
  // The round resumes at the first node at or after the cursor (wrapping)
  // and leaves the cursor on the node after its last.
  stabilize_cursor_ =
      key_at(refresh_run(successor(stabilize_cursor_), count));
}

void ChordRing::stabilize_all() {
  if (slot_of_.empty()) return;
  settle();
  if (size() < kPooledStabilizeMin) {
    refresh_run(Pos{}, size());
    return;
  }
  // Disjoint runs, one per index block: each thread writes only its own
  // nodes' finger arrays from the shared read-only index, so the result is
  // the serial run's, bit for bit, regardless of scheduling.
  util::parallel_for(blocks_.size(), 0, [this](std::size_t b) {
    refresh_run(Pos{b, 0}, blocks_[b].keys.size());
  });
}

net::PeerId ChordRing::owner_of(ChordKey key) const {
  QSA_EXPECTS(!slot_of_.empty());
  settle();
  return peer_at(successor(key));
}

std::array<ChordKey, kKeyBits> ChordRing::fingers(net::PeerId peer) const {
  const auto it = slot_of_.find(peer);
  QSA_EXPECTS(it != slot_of_.end());
  const auto& fingers = node(it->second).fingers;
  std::array<ChordKey, kKeyBits> keys;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    keys[i] = node_key(seed_, fingers[i]);
  }
  return keys;
}

}  // namespace qsa::overlay
