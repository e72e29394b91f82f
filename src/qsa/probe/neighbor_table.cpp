#include "qsa/probe/neighbor_table.hpp"

#include <algorithm>
#include <bit>

#include "qsa/util/expects.hpp"

namespace qsa::probe {

NeighborTable::NeighborTable(std::size_t budget) {
  QSA_EXPECTS(budget >= 1);
  QSA_EXPECTS(budget <= kMaxNeighborBudget);
  budget_ = static_cast<std::uint16_t>(budget);
}

bool NeighborTable::add(net::PeerId peer, std::uint8_t hop, NeighborKind kind,
                        sim::SimTime now, sim::SimTime ttl) {
  QSA_EXPECTS(hop >= 1);
  QSA_EXPECTS(budget_ >= 1);  // default-constructed tables never take adds
  const sim::SimTime expires = now + ttl;
  QSA_EXPECTS(expires.as_millis() > -kMaxNeighborDeadlineMs &&
              expires.as_millis() < kMaxNeighborDeadlineMs);
  if (const std::uint16_t r = row_index(peer); r != kFree) {
    // Refresh: keep the better benefit, extend the deadline. Both changes
    // only move the entry later in eviction order, so its heap key is left
    // overstating it until the entry reaches the root (settled_root).
    Row& row = rows_[r];
    if (benefit_rank(hop, kind) < row.rank()) {
      row.hop = hop;
      row.kind = kind;
    }
    if (expires > row.expires) row.expires = expires;
    return true;
  }
  if (rows_.size() >= budget_) {
    // An expired entry is free to reuse regardless of rank, the longest
    // expired first. Otherwise the victim is the lowest-benefit, stalest
    // entry — the heap root — but never one more beneficial than the
    // newcomer.
    std::optional<std::uint16_t> victim = oldest_expired(now);
    if (!victim) {
      victim = settled_root();
      if (rows_[*victim].rank() < benefit_rank(hop, kind)) {
        return false;  // everything in the table beats the newcomer
      }
    }
    erase_row(*victim);
  }
  insert_row(Row{expires, peer, hop, kind, 0});
  return true;
}

bool NeighborTable::knows(net::PeerId peer, sim::SimTime now) const {
  const std::uint16_t r = row_index(peer);
  return r != kFree && rows_[r].expires > now;
}

std::optional<NeighborEntry> NeighborTable::find(net::PeerId peer) const {
  const std::uint16_t r = row_index(peer);
  if (r == kFree) return std::nullopt;
  return rows_[r].entry();
}

NeighborTable::Key NeighborTable::key_of(std::uint16_t r) const noexcept {
  const Row& row = rows_[r];
  const auto high =
      static_cast<std::uint64_t>(row.rank()) << 54 |
      static_cast<std::uint64_t>(kMaxNeighborDeadlineMs -
                                 row.expires.as_millis());
  const std::uint64_t low = std::uint64_t{row.peer} << 16 | r;
  return Key{high} << 64 | low;
}

std::uint16_t NeighborTable::settled_root() noexcept {
  while (true) {
    const std::uint16_t r = row_of(heap_.front());
    const Key key = key_of(r);
    if (key == heap_.front()) return r;
    heap_.front() = key;
    sift_down(0);
  }
}

std::optional<std::uint16_t> NeighborTable::oldest_expired(sim::SimTime now) {
  if (earliest_ > now) return std::nullopt;  // nothing can have expired
  // The earliest deadline (largest PeerId among ties) and the earliest of
  // the others, which bounds the table once that entry is evicted.
  std::size_t best = 0;
  sim::SimTime rest = sim::SimTime::infinity();
  for (std::size_t r = 1; r < rows_.size(); ++r) {
    const Row& row = rows_[r];
    const Row& cur = rows_[best];
    if (row.expires < cur.expires ||
        (row.expires == cur.expires && row.peer > cur.peer)) {
      rest = std::min(rest, cur.expires);
      best = r;
    } else {
      rest = std::min(rest, row.expires);
    }
  }
  if (rows_[best].expires > now) {
    earliest_ = rows_[best].expires;
    return std::nullopt;
  }
  earliest_ = rest;
  return static_cast<std::uint16_t>(best);
}

std::uint16_t NeighborTable::row_index(net::PeerId peer) const noexcept {
  // index_slot's probe, returning the row directly: knows() and every add()
  // start here, and routing them through index_slot cost 3-10% of perfbench
  // serve's traced probe.prepare_ms (Release, 4-vCPU x86-64 host).
  if (index_.empty()) return kFree;
  const std::size_t mask = index_.size() - 1;
  for (std::size_t i = home(peer);; i = (i + 1) & mask) {
    const std::uint16_t r = index_[i];
    if (r == kFree || rows_[r].peer == peer) return r;
  }
}

std::size_t NeighborTable::index_slot(net::PeerId peer) const noexcept {
  // The index is at most half full, so every probe run ends in a free slot.
  const std::size_t mask = index_.size() - 1;
  std::size_t i = home(peer);
  while (index_[i] != kFree && rows_[index_[i]].peer != peer) {
    i = (i + 1) & mask;
  }
  return i;
}

std::size_t NeighborTable::home(net::PeerId peer) const noexcept {
  // Fibonacci hashing: PeerIds are dense, and the top bits of their product
  // with 2^64 / golden ratio spread consecutive ids evenly.
  return static_cast<std::size_t>(
      (std::uint64_t{peer} * 0x9E3779B97F4A7C15ULL) >> index_shift_);
}

void NeighborTable::index_erase(std::size_t slot) noexcept {
  // Backward-shift deletion: each later entry of the probe run moves into
  // the hole unless its home lies cyclically after the hole, so no lookup
  // ever meets a gap before its entry and no tombstones accumulate.
  const std::size_t mask = index_.size() - 1;
  std::size_t hole = slot;
  for (std::size_t i = (slot + 1) & mask; index_[i] != kFree;
       i = (i + 1) & mask) {
    if (((i - home(rows_[index_[i]].peer)) & mask) >= ((i - hole) & mask)) {
      index_[hole] = index_[i];
      hole = i;
    }
  }
  index_[hole] = kFree;
}

void NeighborTable::grow() {
  // Geometric growth, capped at the budget: a full table holds exactly M
  // rows and M heap slots. The index is rebuilt at the smallest power of two
  // of at least twice the row capacity, so it is never over half full.
  const std::size_t cap = std::min<std::size_t>(
      budget_, std::max<std::size_t>(8, 2 * rows_.capacity()));
  rows_.reserve(cap);
  heap_.reserve(cap);
  const std::size_t slots = std::bit_ceil(2 * cap);
  index_.assign(slots, kFree);
  index_shift_ = static_cast<std::uint8_t>(64 - std::countr_zero(slots));
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    index_[index_slot(rows_[r].peer)] = static_cast<std::uint16_t>(r);
  }
}

void NeighborTable::insert_row(const Row& row) {
  if (rows_.size() == rows_.capacity()) grow();
  const auto r = static_cast<std::uint16_t>(rows_.size());
  rows_.push_back(row);
  heap_.push_back(key_of(r));
  sift_up(heap_.size() - 1);
  index_[index_slot(row.peer)] = r;
  earliest_ = std::min(earliest_, row.expires);
}

void NeighborTable::erase_row(std::uint16_t r) {
  // Unlink from the heap: the last slot fills the hole and sifts whichever
  // way restores the order of stored keys.
  const std::size_t slot = rows_[r].heap_slot;
  const Key moved = heap_.back();
  heap_.pop_back();
  if (slot < heap_.size()) {
    place(slot, moved);
    sift_up(slot);
    sift_down(rows_[row_of(moved)].heap_slot);
  }
  // Swap-remove the row, repointing the index and heap at its new number.
  index_erase(index_slot(rows_[r].peer));
  const auto last = static_cast<std::uint16_t>(rows_.size() - 1);
  if (r != last) {
    index_[index_slot(rows_[last].peer)] = r;
    rows_[r] = rows_[last];
    Key& key = heap_[rows_[r].heap_slot];
    key = (key & ~Key{0xFFFF}) | r;  // the row number is the low 16 bits
  }
  rows_.pop_back();
}

void NeighborTable::place(std::size_t slot, Key key) noexcept {
  heap_[slot] = key;
  rows_[row_of(key)].heap_slot = static_cast<std::uint16_t>(slot);
}

void NeighborTable::sift_up(std::size_t slot) noexcept {
  const Key key = heap_[slot];
  while (slot > 0) {
    const std::size_t parent = (slot - 1) / 2;
    if (heap_[parent] > key) break;
    place(slot, heap_[parent]);
    slot = parent;
  }
  place(slot, key);
}

void NeighborTable::sift_down(std::size_t slot) noexcept {
  const Key key = heap_[slot];
  const std::size_t n = heap_.size();
  while (true) {
    std::size_t child = 2 * slot + 1;
    if (child >= n) break;
    // The larger child, picked without a branch on the comparison.
    if (child + 1 < n) child += heap_[child + 1] > heap_[child];
    if (heap_[child] < key) break;
    place(slot, heap_[child]);
    slot = child;
  }
  place(slot, key);
}

}  // namespace qsa::probe
