// Per-peer neighbor tables (Section 2.2 + 3.3).
//
// A peer may probe at most M neighbors, prioritized by benefit: 1-hop direct
// first, then 1-hop indirect, then 2-hop direct, and so on. Entries are soft
// state with a TTL, refreshed by the resolution protocol while a service
// path needs them. When the table is full, a new entry may evict the
// lowest-benefit (then stalest) existing entry, but never one with higher
// benefit than its own.
//
// Storage: at most M dense 16-byte rows, a binary max-heap of packed 128-bit
// eviction keys whose root is the victim, and an open-addressed array of
// 16-bit row numbers that indexes the rows by PeerId; the three grow together,
// geometrically up to M. A key packs benefit rank, 2^53 - deadline (ms),
// PeerId and row number into one unsigned integer ordered like eviction, so a
// sift compares integers and loads no row. A refresh writes its row only: it
// can only move the entry later in eviction order, so the entry's heap key
// may overstate it, and the root is re-keyed from its row and sifted down
// until its key is current before it is read. Insert and eviction cost
// O(log M), a refresh O(1). Expired entries are reclaimed first; a lower
// bound on the earliest deadline gates the scan that finds them, so tables
// with no expired entry never scan.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "qsa/net/peer.hpp"
#include "qsa/sim/time.hpp"

namespace qsa::probe {

enum class NeighborKind : std::uint8_t { kDirect, kIndirect };

/// Largest hop index an entry can carry: `NeighborEntry::hop` is a
/// std::uint8_t, so callers registering a path must keep its length within
/// this bound or the hop distance would silently wrap.
inline constexpr std::size_t kMaxHopIndex = 255;

/// Largest budget M a table accepts: row numbers and heap slots are 16-bit,
/// and the index reserves 0xFFFF for a free slot.
inline constexpr std::size_t kMaxNeighborBudget =
    std::numeric_limits<std::uint16_t>::max();

/// Deadlines a table accepts lie strictly inside ±kMaxNeighborDeadlineMs
/// (2^53 ms, about 285 000 years): an eviction key spends 54 bits on one.
inline constexpr std::int64_t kMaxNeighborDeadlineMs = std::int64_t{1} << 53;

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
  /// `now + ttl` must lie strictly inside ±kMaxNeighborDeadlineMs.
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

  [[nodiscard]] std::size_t size() const noexcept { return rows_.size(); }
  [[nodiscard]] std::size_t budget() const noexcept { return budget_; }

 private:
  /// A heap slot: the eviction key of a row as of the slot's last sift. The
  /// high word holds the benefit rank (bits 54..63) above 2^53 - deadline in
  /// ms; the low word holds the PeerId (bits 16..47) above the row number.
  /// A larger key evicts first: higher rank, then earlier deadline, then
  /// larger PeerId. The row number never decides, because PeerIds are
  /// unique, so the order is total and the true victim is a pure function of
  /// the table's contents.
  using Key = unsigned __int128;

  /// Index slot that holds no row.
  static constexpr std::uint16_t kFree = 0xFFFF;

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

  /// Row `r`'s current eviction key.
  [[nodiscard]] Key key_of(std::uint16_t r) const noexcept;
  [[nodiscard]] static std::uint16_t row_of(Key key) noexcept {
    return static_cast<std::uint16_t>(key);
  }

  /// Row of the live victim. A stored key never understates its row's
  /// current key, so the root is re-keyed and sifted down until its key is
  /// current; it is then at least every current key.
  [[nodiscard]] std::uint16_t settled_root() noexcept;

  /// Row of the entry with the earliest deadline (largest PeerId among
  /// ties) if that deadline is at or before `now`, else none. Scans only
  /// when earliest_ says an entry may have expired, and tightens earliest_.
  [[nodiscard]] std::optional<std::uint16_t> oldest_expired(sim::SimTime now);

  /// `peer`'s row, or kFree when the table has none.
  [[nodiscard]] std::uint16_t row_index(net::PeerId peer) const noexcept;
  /// The index slot holding `peer`'s row, or else the free slot that ends
  /// its probe run (where an insert puts it). The index must be allocated.
  [[nodiscard]] std::size_t index_slot(net::PeerId peer) const noexcept;
  [[nodiscard]] std::size_t home(net::PeerId peer) const noexcept;
  void index_erase(std::size_t slot) noexcept;

  void grow();
  void insert_row(const Row& row);
  void erase_row(std::uint16_t r);
  void place(std::size_t slot, Key key) noexcept;
  void sift_up(std::size_t slot) noexcept;
  void sift_down(std::size_t slot) noexcept;

  std::vector<Row> rows_;
  std::vector<Key> heap_;  ///< max-heap by stored key
  /// Row numbers by PeerId: linear probing from a multiplicative hash, at
  /// least twice as many slots as rows_ has capacity, kFree when empty.
  std::vector<std::uint16_t> index_;
  /// Lower bound on every row's deadline (exact after each scan).
  sim::SimTime earliest_ = sim::SimTime::infinity();
  std::uint16_t budget_ = 0;
  std::uint8_t index_shift_ = 0;  ///< 64 - log2(index_.size())
};

}  // namespace qsa::probe
