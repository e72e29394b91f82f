#include "qsa/probe/neighbor_table.hpp"

#include <algorithm>

#include "qsa/util/expects.hpp"

namespace qsa::probe {

NeighborTable::NeighborTable(std::size_t budget) : budget_(budget) {
  QSA_EXPECTS(budget >= 1);
  QSA_EXPECTS(budget <= kMaxNeighborBudget);
}

bool NeighborTable::add(net::PeerId peer, std::uint8_t hop, NeighborKind kind,
                        sim::SimTime now, sim::SimTime ttl) {
  QSA_EXPECTS(hop >= 1);
  QSA_EXPECTS(budget_ >= 1);  // default-constructed tables never take adds
  const sim::SimTime expires = now + ttl;
  if (auto it = index_.find(peer); it != index_.end()) {
    // Refresh: keep the better benefit, extend the deadline. Both changes
    // only move the entry later in eviction order; a refresh that changes
    // neither leaves the heap alone.
    Row& row = rows_[it->second];
    const bool better = benefit_rank(hop, kind) < row.rank();
    if (!better && expires <= row.expires) return true;
    if (better) {
      row.hop = hop;
      row.kind = kind;
    }
    if (expires > row.expires) row.expires = expires;
    sift_down(row.heap_slot);
    return true;
  }
  if (rows_.size() >= budget_) {
    // An expired entry is free to reuse regardless of rank, the longest
    // expired first. Otherwise the victim is the lowest-benefit, stalest
    // entry — the heap root — but never one more beneficial than the
    // newcomer.
    std::optional<std::uint16_t> victim = oldest_expired(now);
    if (!victim) {
      if (rows_[heap_.front()].rank() < benefit_rank(hop, kind)) {
        return false;  // everything in the table beats the newcomer
      }
      victim = heap_.front();
    }
    erase_row(*victim);
  }
  insert_row(Row{expires, peer, hop, kind, 0});
  return true;
}

bool NeighborTable::knows(net::PeerId peer, sim::SimTime now) const {
  auto it = index_.find(peer);
  return it != index_.end() && rows_[it->second].expires > now;
}

std::optional<NeighborEntry> NeighborTable::find(net::PeerId peer) const {
  auto it = index_.find(peer);
  if (it == index_.end()) return std::nullopt;
  return rows_[it->second].entry();
}

void NeighborTable::purge(sim::SimTime now) {
  // Backwards: erase_row moves the last row into the hole, and every row
  // past the cursor has already been checked.
  sim::SimTime earliest = sim::SimTime::infinity();
  for (std::size_t r = rows_.size(); r-- > 0;) {
    if (rows_[r].expires <= now) {
      erase_row(static_cast<std::uint16_t>(r));
    } else {
      earliest = std::min(earliest, rows_[r].expires);
    }
  }
  earliest_ = earliest;
}

void NeighborTable::erase(net::PeerId peer) {
  if (auto it = index_.find(peer); it != index_.end()) erase_row(it->second);
}

bool NeighborTable::evicts_before(std::uint16_t a,
                                  std::uint16_t b) const noexcept {
  const Row& x = rows_[a];
  const Row& y = rows_[b];
  if (x.rank() != y.rank()) return x.rank() > y.rank();
  if (x.expires != y.expires) return x.expires < y.expires;
  return x.peer > y.peer;
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

void NeighborTable::insert_row(const Row& row) {
  if (rows_.size() == rows_.capacity()) {
    // Geometric growth, capped at the budget: a full table holds exactly M
    // rows and M heap slots.
    const std::size_t cap =
        std::min(budget_, std::max<std::size_t>(8, 2 * rows_.capacity()));
    rows_.reserve(cap);
    heap_.reserve(cap);
  }
  const auto r = static_cast<std::uint16_t>(rows_.size());
  rows_.push_back(row);
  heap_.push_back(r);
  sift_up(heap_.size() - 1);
  index_.emplace(row.peer, r);
  earliest_ = std::min(earliest_, row.expires);
}

void NeighborTable::erase_row(std::uint16_t r) {
  // Unlink from the heap: the last slot fills the hole and sifts whichever
  // way restores the order.
  const std::size_t slot = rows_[r].heap_slot;
  const std::uint16_t moved = heap_.back();
  heap_.pop_back();
  if (slot < heap_.size()) {
    place(slot, moved);
    sift_up(slot);
    sift_down(rows_[moved].heap_slot);
  }
  // Swap-remove the row, repointing the index and heap at its new number.
  index_.erase(rows_[r].peer);
  const auto last = static_cast<std::uint16_t>(rows_.size() - 1);
  if (r != last) {
    rows_[r] = rows_[last];
    index_.at(rows_[r].peer) = r;
    heap_[rows_[r].heap_slot] = r;
  }
  rows_.pop_back();
}

void NeighborTable::place(std::size_t slot, std::uint16_t r) noexcept {
  heap_[slot] = r;
  rows_[r].heap_slot = static_cast<std::uint16_t>(slot);
}

void NeighborTable::sift_up(std::size_t slot) noexcept {
  const std::uint16_t r = heap_[slot];
  while (slot > 0) {
    const std::size_t parent = (slot - 1) / 2;
    if (!evicts_before(r, heap_[parent])) break;
    place(slot, heap_[parent]);
    slot = parent;
  }
  place(slot, r);
}

void NeighborTable::sift_down(std::size_t slot) noexcept {
  const std::uint16_t r = heap_[slot];
  const std::size_t n = heap_.size();
  while (true) {
    std::size_t child = 2 * slot + 1;
    if (child >= n) break;
    if (child + 1 < n && evicts_before(heap_[child + 1], heap_[child])) {
      ++child;
    }
    if (!evicts_before(heap_[child], r)) break;
    place(slot, heap_[child]);
    slot = child;
  }
  place(slot, r);
}

}  // namespace qsa::probe
