// Per-peer neighbor tables (Section 2.2 + 3.3).
//
// A peer may probe at most M neighbors, prioritized by benefit: 1-hop direct
// first, then 1-hop indirect, then 2-hop direct, and so on. Entries are soft
// state with a TTL, refreshed by the resolution protocol while a service
// path needs them. When the table is full, a new entry may evict the
// lowest-benefit (then stalest) existing entry, but never one with higher
// benefit than its own.
//
// Storage: at most M dense 16-byte rows, a DenseMap index from peer to row,
// and a binary max-heap of row numbers in eviction order, so the live victim
// is the heap root and insert, refresh and erase cost O(log M). Expired
// entries are reclaimed first; a lower bound on the earliest deadline gates
// the scan that finds them, so tables with no expired entry never scan.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "qsa/net/peer.hpp"
#include "qsa/sim/time.hpp"
#include "qsa/util/dense_map.hpp"

namespace qsa::probe {

enum class NeighborKind : std::uint8_t { kDirect, kIndirect };

/// Largest hop index an entry can carry: `NeighborEntry::hop` is a
/// std::uint8_t, so callers registering a path must keep its length within
/// this bound or the hop distance would silently wrap.
inline constexpr std::size_t kMaxHopIndex = 255;

/// Largest budget M a table accepts: rows and heap slots are 16-bit.
inline constexpr std::size_t kMaxNeighborBudget =
    std::numeric_limits<std::uint16_t>::max();

struct NeighborEntry {
  std::uint8_t hop = 1;  ///< i-hop distance along the aggregation flow
  NeighborKind kind = NeighborKind::kDirect;
  sim::SimTime expires;  ///< soft-state deadline
};

/// Probe priority of an entry: lower is more beneficial. Matches the paper's
/// order 1-hop direct < 1-hop indirect < 2-hop direct < ...
[[nodiscard]] constexpr int benefit_rank(std::uint8_t hop,
                                         NeighborKind kind) noexcept {
  return 2 * (hop - 1) + (kind == NeighborKind::kDirect ? 0 : 1);
}

class NeighborTable {
 public:
  /// An empty table with budget 0: the state a DenseMap slot holds before a
  /// real table is assigned in (and after one is erased). add() on such a
  /// table asserts — per-peer tables are always created with a budget.
  NeighborTable() = default;

  /// `budget` is M, the maximum number of probed neighbors, in
  /// [1, kMaxNeighborBudget].
  explicit NeighborTable(std::size_t budget);

  /// Inserts or refreshes a neighbor. On refresh the entry keeps the better
  /// (lower) benefit rank and extends its TTL. Returns false when the table
  /// is full of entries at least as beneficial (the insert is rejected).
  bool add(net::PeerId peer, std::uint8_t hop, NeighborKind kind,
           sim::SimTime now, sim::SimTime ttl);

  /// True iff `peer` has a non-expired entry (i.e. the owner has probed
  /// performance information about it).
  [[nodiscard]] bool knows(net::PeerId peer, sim::SimTime now) const;

  /// `peer`'s entry, expired or not; nullopt when the table has none.
  [[nodiscard]] std::optional<NeighborEntry> find(net::PeerId peer) const;

  /// Calls `fn(peer, entry)` for every entry, in row order (a pure function
  /// of the operation history).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Row& r : rows_) fn(r.peer, r.entry());
  }

  /// Drops expired entries.
  void purge(sim::SimTime now);

  /// Removes a specific entry if present.
  void erase(net::PeerId peer);

  [[nodiscard]] std::size_t size() const noexcept { return rows_.size(); }
  [[nodiscard]] std::size_t budget() const noexcept { return budget_; }

 private:
  struct Row {
    sim::SimTime expires;
    net::PeerId peer = net::kNoPeer;
    std::uint8_t hop = 1;
    NeighborKind kind = NeighborKind::kDirect;
    std::uint16_t heap_slot = 0;  ///< this row's position in heap_

    [[nodiscard]] int rank() const noexcept { return benefit_rank(hop, kind); }
    [[nodiscard]] NeighborEntry entry() const noexcept {
      return {hop, kind, expires};
    }
  };
  static_assert(sizeof(Row) == 16);

  /// Eviction order: true when row `a` goes before row `b` — higher rank,
  /// then earlier deadline, then larger PeerId. Total, because PeerIds are
  /// unique, so the heap root is a pure function of the table's contents.
  [[nodiscard]] bool evicts_before(std::uint16_t a,
                                   std::uint16_t b) const noexcept;

  /// Row of the entry with the earliest deadline (largest PeerId among
  /// ties) if that deadline is at or before `now`, else none. Scans only
  /// when earliest_ says an entry may have expired, and tightens earliest_.
  [[nodiscard]] std::optional<std::uint16_t> oldest_expired(sim::SimTime now);

  void insert_row(const Row& row);
  void erase_row(std::uint16_t r);
  void place(std::size_t slot, std::uint16_t r) noexcept;
  void sift_up(std::size_t slot) noexcept;
  void sift_down(std::size_t slot) noexcept;

  std::size_t budget_ = 0;
  std::vector<Row> rows_;
  std::vector<std::uint16_t> heap_;  ///< row numbers, max-heap by eviction
  util::DenseMap<net::PeerId, std::uint16_t> index_;  ///< peer -> row
  /// Lower bound on every row's deadline (exact after each scan).
  sim::SimTime earliest_ = sim::SimTime::infinity();
};

}  // namespace qsa::probe
